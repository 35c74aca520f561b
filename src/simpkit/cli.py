"""Command-line interface: decode, eval, score, loss, judge-prompt.

Exit codes: 0 on success, 1 on usage errors (bad flags, bad flag values),
2 on data errors (unreadable or malformed files, missing documents).
Every subcommand accepts ``--config FILE`` holding ``key = value`` lines
whose keys mirror the long flag names; values from the file override flag
values and go through the flag's own type and choices.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager, suppress

from .consistency import (
    ConsistencyScorer,
    LexicalScorer,
    PrecomputedScorer,
    consistency_subscore,
    unsupported_entities,
)
from .corpus import (
    DataError,
    apply_config_overrides,
    load_entity_sets,
    load_jsonl,
    load_outputs,
    parse_config_file,
)
from .decoder import DecoderConfig, NGramLM, beam_search
from .judge import build_judge_prompt
from .readability import FkWeightTable, readability_subscore
from .rerank import composite_score, score_candidate
from .simpeval import evaluate_corpus, report_table, report_tsv
from .ulloss import (
    HallucinationSet,
    LossConfig,
    StepDistribution,
    hallucinated_set,
    total_loss,
    ul_consistency,
    ul_readability,
)

__all__ = ["main", "run_cli", "build_parser"]


class UsageError(Exception):
    """Bad command line: unknown flags, missing flags, bad flag values."""


class _HelpShown(Exception):
    """``--help`` has printed the usage text."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)

    def exit(self, status=0, message=None):
        # Only --help gets here: error() raises before argparse would exit.
        raise _HelpShown

    def config_actions(self) -> dict:
        """The action of each flag a config file may set: every flag but
        ``--help`` and ``--config``."""
        skip = ("help", "config")
        return {a.dest: a for a in self._actions if a.dest not in skip}


def _add_scorer_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scorer",
        choices=["lexical", "precomputed"],
        default="lexical",
        help="consistency scorer backend",
    )
    parser.add_argument(
        "--scores",
        default=None,
        help="key<TAB>score file for --scorer precomputed",
    )


def _make_scorer(args) -> ConsistencyScorer:
    if args.scorer == "precomputed":
        if not args.scores:
            raise UsageError("--scorer precomputed requires --scores FILE")
        try:
            return PrecomputedScorer.from_file(args.scores)
        except (OSError, ValueError) as exc:
            raise DataError(f"bad scores file {args.scores!r}: {exc}") from None
    return LexicalScorer()


def build_parser() -> _Parser:
    parser = _Parser(prog="simpkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    decode = sub.add_parser("decode", help="decode a corpus with beam search")
    decode.add_argument("--corpus", required=True, help="input corpus JSONL")
    decode.add_argument("--out", required=True, help="output JSONL path")
    decode.add_argument("--beam-width", type=int, default=4)
    decode.add_argument("--rerank-k", type=int, default=5)
    decode.add_argument("--max-length", type=int, default=128)
    decode.add_argument(
        "--no-hallucination-heuristic",
        action="store_true",
        help="disable zeroing of beams with unsupported entities",
    )
    decode.add_argument("--length-penalty", type=float, default=0.0)
    decode.add_argument(
        "--ngram-order",
        type=int,
        default=2,
        help="order of the n-gram model trained on the corpus labels",
    )
    decode.add_argument("--config", default=None)
    decode.set_defaults(func=_cmd_decode)

    evaluate = sub.add_parser("eval", help="score outputs against a corpus")
    evaluate.add_argument("--corpus", required=True)
    evaluate.add_argument(
        "--outputs",
        default=None,
        help="decode outputs JSONL; defaults to the corpus output fields",
    )
    evaluate.add_argument(
        "--report", default=None, help="also write the report as TSV here"
    )
    _add_scorer_flags(evaluate)
    evaluate.add_argument("--config", default=None)
    evaluate.set_defaults(func=_cmd_eval)

    score = sub.add_parser(
        "score", help="composite-score one candidate or one (f_F, f_B) pair"
    )
    score.add_argument("--candidate", default=None)
    score.add_argument("--source", default=None)
    score.add_argument("--fk", type=float, default=None, help="readability grade f_F")
    score.add_argument("--fb", type=float, default=None, help="consistency score f_B")
    score.add_argument("--no-hallucination-heuristic", action="store_true")
    score.add_argument(
        "--entities-file",
        default=None,
        help="external entity file (id<TAB>entity...) overriding extraction",
    )
    score.add_argument(
        "--entities-id", default=None, help="row of --entities-file to use"
    )
    _add_scorer_flags(score)
    score.add_argument("--config", default=None)
    score.set_defaults(func=_cmd_score)

    loss = sub.add_parser(
        "loss", help="unlikelihood loss of a step-distribution file"
    )
    loss.add_argument("--steps", required=True, help="JSON distributions file")
    loss.add_argument("--input", required=True, help="source text")
    loss.add_argument("--label", required=True, help="reference text")
    loss.add_argument("--nll", type=float, default=None)
    loss.add_argument("--lambda-r", type=float, default=LossConfig.lambda_r)
    loss.add_argument("--lambda-c", type=float, default=LossConfig.lambda_c)
    loss.add_argument("--epsilon", type=float, default=LossConfig.epsilon)
    loss.add_argument(
        "--entities",
        default=None,
        help="hallucinated-word file (one word per line) overriding the "
        "greedy-decode heuristic",
    )
    loss.add_argument("--config", default=None)
    loss.set_defaults(func=_cmd_loss)

    prompts = sub.add_parser(
        "judge-prompt", help="emit factual-consistency judge prompts"
    )
    prompts.add_argument("--corpus", required=True)
    prompts.add_argument("--outputs", default=None)
    prompts.add_argument(
        "--limit",
        type=int,
        default=None,
        help="emit prompts for the first N documents only",
    )
    prompts.add_argument("--out", default=None, help="default stdout")
    prompts.add_argument("--config", default=None)
    prompts.set_defaults(func=_cmd_judge_prompt)

    parser.commands = sub.choices
    return parser


def _resolve_outputs(documents, outputs_path: str | None) -> list[str]:
    if outputs_path:
        by_id = load_outputs(outputs_path)
        missing = [d.id for d in documents if d.id not in by_id]
        if missing:
            raise DataError(f"no output for document id {missing[0]!r}")
        return [by_id[d.id] for d in documents]
    missing = [d.id for d in documents if d.output is None]
    if missing:
        raise DataError(
            f"document {missing[0]!r} has no output field; "
            "decode first or pass --outputs"
        )
    return [d.output for d in documents]


@contextmanager
def _replacing(path: str):
    """Write handle for ``path`` that leaves ``path`` as it was unless the
    block completes.

    Text goes to a new file next to ``path``, which replaces ``path`` only
    when the block exits normally; on any failure it is removed.  A file
    that cannot be written or put in place is a data error.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        handle = open(tmp, "x", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot write {path!r}: {exc}") from None
    try:
        with handle:
            yield handle
        os.replace(tmp, path)
    except OSError as exc:
        raise DataError(f"cannot write {path!r}: {exc}") from None
    finally:
        with suppress(FileNotFoundError):
            os.unlink(tmp)


def _cmd_decode(args) -> int:
    documents = load_jsonl(args.corpus)
    try:
        config = DecoderConfig(
            beam_width=args.beam_width,
            rerank_interval=args.rerank_k,
            max_length=args.max_length,
            heuristic_on=not args.no_hallucination_heuristic,
            length_penalty=args.length_penalty,
        )
        lm = NGramLM.train([d.label for d in documents], order=args.ngram_order)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    scorer = LexicalScorer()

    with _replacing(args.out) as handle:
        for doc in documents:
            try:
                result = beam_search(lm, doc.input, config, scorer)
            except KeyError as exc:
                raise DataError(f"document {doc.id!r}: {exc}") from None
            record = {
                "id": doc.id,
                "output": result.text,
                "r": result.score.r,
                "f_F": result.score.f_f,
                "f_B": result.score.f_b,
                "fallback": result.fallback_used,
                "scorer_calls": result.scorer_calls,
            }
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")
    return 0


def _cmd_eval(args) -> int:
    documents = load_jsonl(args.corpus)
    outputs = _resolve_outputs(documents, args.outputs)
    scorer = _make_scorer(args)
    try:
        report = evaluate_corpus(documents, outputs, scorer)
    except (ValueError, KeyError) as exc:
        raise DataError(str(exc)) from None
    if args.report:
        with _replacing(args.report) as handle:
            handle.write(report_tsv(report))
    sys.stdout.write(report_table(report))
    return 0


def _print_scores(
    f_f: float, f_b: float, r_f: float, r_b: float, r: float
) -> None:
    for name, value in (
        ("f_F", f_f), ("f_B", f_b), ("r_F", r_f), ("r_B", r_b), ("r", r)
    ):
        print(f"{name} = {value:.4f}")


def _cmd_score(args) -> int:
    direct = args.fk is not None or args.fb is not None
    textual = args.candidate is not None or args.source is not None
    if direct and textual:
        raise UsageError("pass either --fk/--fb or --candidate/--source")

    if direct:
        if args.fk is None or args.fb is None:
            raise UsageError("--fk and --fb go together")
        try:
            r_f = readability_subscore(args.fk)
            r_b = consistency_subscore(args.fb)
            r = composite_score(r_f, r_b)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        _print_scores(args.fk, args.fb, r_f, r_b, r)
        return 0

    if args.candidate is None or args.source is None:
        raise UsageError("--candidate and --source go together")
    scorer = _make_scorer(args)
    heuristic_on = not args.no_hallucination_heuristic

    entities = None
    if args.entities_file:
        if not args.entities_id:
            raise UsageError("--entities-file requires --entities-id")
        sets = load_entity_sets(args.entities_file)
        if args.entities_id not in sets:
            raise DataError(
                f"no entity row for id {args.entities_id!r} in "
                f"{args.entities_file!r}"
            )
        entities = sets[args.entities_id]

    try:
        score = score_candidate(
            [args.candidate],
            args.source,
            scorer,
            heuristic_on,
            candidate_entities=entities,
        )
    except (ValueError, KeyError) as exc:
        raise DataError(str(exc)) from None
    unsupported = (
        unsupported_entities(
            args.candidate, args.source, candidate_entities=entities
        )
        if score.hallucination_zeroed
        else set()
    )

    _print_scores(score.f_f, score.f_b, score.r_f, score.r_b, score.r)
    print(f"hallucination_zeroed = {str(score.hallucination_zeroed).lower()}")
    if unsupported:
        print("unsupported_entities = " + ", ".join(sorted(unsupported)))
    return 0


def _cmd_loss(args) -> int:
    try:
        with open(args.steps, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read steps file {args.steps!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"steps file {args.steps!r}: invalid JSON: {exc}") from None

    if not isinstance(payload, dict):
        raise DataError("steps file must hold a JSON object")
    vocab = payload.get("vocab")
    rows = payload.get("steps")
    if not isinstance(vocab, list) or not all(
        isinstance(w, str) and w for w in vocab
    ):
        raise DataError("steps file: vocab must be a list of non-empty strings")
    if not isinstance(rows, list) or not rows:
        raise DataError("steps file: steps must be a non-empty list of rows")
    for step, row in enumerate(rows):
        # JSON true and false load as bool, a subclass of int.
        if not isinstance(row, list) or not all(
            isinstance(p, (int, float)) and not isinstance(p, bool) for p in row
        ):
            raise DataError(f"steps file: step {step} must be a list of numbers")
    if "nll" in payload and (
        not isinstance(payload["nll"], (int, float))
        or isinstance(payload["nll"], bool)
    ):
        raise DataError("steps file: nll must be a number")

    try:
        config = LossConfig(
            lambda_r=args.lambda_r, lambda_c=args.lambda_c, epsilon=args.epsilon
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.nll is not None and not math.isfinite(args.nll):
        raise UsageError(f"--nll must be finite, got {args.nll!r}")

    try:
        dists = [StepDistribution(row) for row in rows]
        for dist in dists:
            if len(dist) != len(vocab):
                raise ValueError("step row size does not match vocab")
    except (TypeError, ValueError) as exc:
        raise DataError(f"steps file: {exc}") from None

    nll = args.nll
    if nll is None and "nll" in payload:
        try:
            nll = float(payload["nll"])
        except OverflowError:  # a JSON integer beyond the float range
            nll = math.inf
        if not math.isfinite(nll):
            raise DataError(f"steps file: nll must be finite, got {nll!r}")
    if nll is None and isinstance(payload.get("target"), list):
        index_of = {w: i for i, w in enumerate(vocab)}
        total = 0.0
        for step, word in enumerate(payload["target"]):
            if (
                step >= len(dists)
                or not isinstance(word, str)
                or word not in index_of
            ):
                raise DataError("steps file: bad target sequence")
            p = dists[step].probs[index_of[word]]
            if p == 0.0:
                raise DataError(
                    f"steps file: target {word!r} has probability 0 "
                    f"at step {step}"
                )
            total += -math.log(p)
        nll = total
    if nll is None:
        raise DataError(
            "no NLL available: pass --nll or put nll/target in the steps file"
        )

    weights = FkWeightTable.for_vocab(vocab)
    greedy = [vocab[d.argmax_index] for d in dists]
    if args.entities:
        try:
            hset = HallucinationSet.load_words(args.entities, vocab)
        except (OSError, ValueError) as exc:
            raise DataError(f"bad entities file {args.entities!r}: {exc}") from None
    else:
        hset = hallucinated_set(greedy, args.input, args.label, vocab)

    ul_r = ul_readability(dists, weights, vocab, config.epsilon)
    ul_c = ul_consistency(dists, hset, config.epsilon)
    total = total_loss(nll, dists, weights, vocab, hset, config)
    print(f"NLL = {nll:.6f}")
    print(f"UL_R = {ul_r:.6f}")
    print(f"UL_C = {ul_c:.6f}")
    print(f"total = {total:.6f}")
    return 0


def _cmd_judge_prompt(args) -> int:
    documents = load_jsonl(args.corpus)
    if args.limit is not None:
        if args.limit < 1:
            raise UsageError(f"--limit must be >= 1, got {args.limit}")
        # Deliberately the first N in file order: reproducible and cheap.
        documents = documents[: args.limit]
    summaries = _resolve_outputs(documents, args.outputs)

    lines = []
    for doc, summary in zip(documents, summaries):
        try:
            system, user = build_judge_prompt(doc, summary)
        except ValueError as exc:
            raise DataError(f"document {doc.id!r}: {exc}") from None
        lines.append(
            json.dumps(
                {"id": doc.id, "system": system, "prompt": user},
                ensure_ascii=False,
            )
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        with _replacing(args.out) as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def run_cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            apply_config_overrides(
                args,
                parse_config_file(args.config),
                parser.commands[args.command].config_actions(),
            )
        return args.func(args)
    except _HelpShown:
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))
