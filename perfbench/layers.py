"""Per-layer metrics of a traced run, computed from its spans.

Only spans inside an ``op`` span count towards the per-op figures;
``decoder.NGramLM.train.ms`` is taken from the ``setup`` spans instead.
Every metric is reported for every workload, as 0 where the layer does not
run.
"""

from __future__ import annotations

import statistics
from collections import Counter

# name -> unit.  BENCHMARK.json lists the same names.
PER_LAYER_UNITS = {
    "textseg.tokenize.calls_per_op": "count",
    "textseg.tokenize.self_ms_per_op": "ms",
    "textseg.count_syllables.calls_per_op": "count",
    "textseg.extract_entities.self_ms_per_op": "ms",
    "readability.flesch_kincaid.self_ms_per_op": "ms",
    "readability.ari.self_ms_per_op": "ms",
    "consistency.LexicalScorer.score.calls_per_op": "count",
    "consistency.LexicalScorer.score.self_ms_per_op": "ms",
    "consistency.unsupported_entities.self_ms_per_op": "ms",
    "consistency.similarity_cache.hit_ratio": "ratio",
    "rerank.score_candidate.calls_per_op": "count",
    "rerank.score_candidate.self_ms_per_op": "ms",
    "rerank.tokenize_per_candidate": "count",
    "rerank.rank_beams.beams_per_call": "count",
    "decoder.beam_search.self_ms_per_op": "ms",
    "decoder.next_distribution.calls_per_op": "count",
    "decoder.next_distribution.self_ms_per_op": "ms",
    "decoder.steps_per_op": "count",
    "decoder.rerank_steps_per_op": "count",
    "decoder.NGramLM.train.ms": "ms",
    "ulloss.StepDistribution.calls_per_op": "count",
    "ulloss.StepDistribution.self_ms_per_op": "ms",
    "ulloss.total_loss.self_ms_per_op": "ms",
    "ulloss.loss_gradient.self_ms_per_op": "ms",
    "ulloss.hallucinated_set.self_ms_per_op": "ms",
    "simpeval.sari.self_ms_per_op": "ms",
    "simpeval.rouge_lsum.self_ms_per_op": "ms",
    "simpeval.fourgram_overlap.self_ms_per_op": "ms",
    "simpeval.evaluate_corpus.self_ms_per_op": "ms",
    "simpeval.report.self_ms_per_op": "ms",
    "simpeval.tokenize_per_doc": "count",
    "corpus.load.self_ms_per_op": "ms",
    "cli.run_cli.self_ms_per_op": "ms",
}

# Metrics that add up the spans of several wrapped callables.
_GROUPS = {
    "simpeval.report": ("simpeval.report_tsv", "simpeval.report_table"),
    "corpus.load": ("corpus.load_jsonl", "corpus.load_outputs"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer, workload, raw: dict) -> tuple[dict, dict]:
    """``(metrics, summary)`` for the last JSON line and the trace file."""
    names = tracer.names
    own = tracer.self_ns()
    roots = tracer.roots()
    op_id = tracer.name_id("op")
    setup_id = tracer.name_id("setup")
    train_id = tracer.name_id("decoder.NGramLM.train")
    under_scoring = tracer.under("rerank.score_candidate")
    under_eval = tracer.under("simpeval.evaluate_corpus")

    calls: Counter = Counter()
    self_ns: Counter = Counter()
    sizes: Counter = Counter()
    tokenize_in_scoring = tokenize_in_eval = 0
    train_ns: Counter = Counter()
    op_ns = []
    for sid, name_id in enumerate(tracer.name):
        root = roots[sid]
        if name_id == train_id and tracer.name[root] == setup_id:
            train_ns[root] += tracer.end[sid] - tracer.start[sid]
        if tracer.name[root] != op_id:
            continue
        name = names[name_id]
        if name == "op":
            op_ns.append(tracer.end[sid] - tracer.start[sid])
        calls[name] += 1
        self_ns[name] += own[sid]
        sizes[name] += tracer.size[sid]
        if name == "textseg.tokenize":
            tokenize_in_scoring += under_scoring[sid]
            tokenize_in_eval += under_eval[sid]
    for group, members in _GROUPS.items():
        self_ns[group] = sum(self_ns[m] for m in members)

    ops = len(op_ns)
    counts = workload.counts
    setup_reps = [r for r, n in enumerate(tracer.name) if n == setup_id and tracer.parent[r] < 0]
    values = {}
    for metric in PER_LAYER_UNITS:
        if metric.endswith(".calls_per_op"):
            values[metric] = calls[metric[: -len(".calls_per_op")]] / ops
        elif metric.endswith(".self_ms_per_op"):
            values[metric] = self_ns[metric[: -len(".self_ms_per_op")]] / ops / 1e6
    values.update({
        "consistency.similarity_cache.hit_ratio": raw["hit_ratio"],
        "rerank.tokenize_per_candidate": _ratio(
            tokenize_in_scoring, calls["rerank.score_candidate"]
        ),
        "rerank.rank_beams.beams_per_call": _ratio(
            sizes["rerank.rank_beams"], calls["rerank.rank_beams"]
        ),
        "decoder.steps_per_op": counts["steps"] / ops,
        "decoder.rerank_steps_per_op": counts["rerank_steps"] / ops,
        "decoder.NGramLM.train.ms": statistics.median(
            train_ns[r] for r in setup_reps
        ) / 1e6,
        "simpeval.tokenize_per_doc": _ratio(tokenize_in_eval, counts["docs"]),
    })
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in PER_LAYER_UNITS.items()
    }
    summary = {
        "ops": ops,
        "spans": len(tracer),
        "traced_op_p50_ms": statistics.median(op_ns) / 1e6,
        "traced_op_p90_ms": statistics.quantiles(op_ns, n=10)[8] / 1e6,
        "calls_per_op": {n: calls[n] / ops for n in sorted(calls)},
        "self_ms_per_op": {n: self_ns[n] / ops / 1e6 for n in sorted(self_ns)},
        "per_layer": values,
    }
    return metrics, summary
