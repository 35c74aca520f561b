"""Tests of the benchmark itself: output checks, the tracer, the entry point.

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

ORACLES = run._import_package()

import layers  # noqa: E402
import workloads  # noqa: E402
from simpkit import decoder, rerank, simpeval, textseg  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture
def quick(monkeypatch):
    """Shrink the run so a whole workload finishes in seconds."""
    monkeypatch.setattr(run, "MIN_OPS", 4)
    monkeypatch.setattr(run, "SETUP_MIN_REPS", 1)
    monkeypatch.setattr(run, "SETUP_MIN_SECONDS", 0.0)


def _ready(workload):
    workload.setup()
    workload.expect()
    return workload


@pytest.fixture(scope="module")
def rerank_k5():
    return _ready(workloads.RerankK5(5, ORACLES))


@pytest.fixture(scope="module")
def vanilla_wide():
    return _ready(workloads.VanillaWide(5, ORACLES))


@pytest.fixture
def eval_long(tmp_path):
    return _ready(workloads.EvalLong(5, ORACLES, str(tmp_path)))


@pytest.fixture(scope="module")
def ul_loss():
    return _ready(workloads.UlLoss(5, ORACLES))


# ------------------------------------------------------------ output checks


def test_rerank_check_rejects_the_complex_sentence(rerank_k5):
    result = rerank_k5.op(0)
    rerank_k5.check(0, result)
    example, _ = rerank_k5.docs[0]
    wrong = dataclasses.replace(result, tokens=tuple(example.complex_text.split()))
    with pytest.raises(workloads.CheckError):
        rerank_k5.check(0, wrong)
    with pytest.raises(workloads.CheckError):
        rerank_k5.check(0, dataclasses.replace(result, log_prob=result.log_prob - 1e-9))
    with pytest.raises(workloads.CheckError):
        rerank_k5.check(0, dataclasses.replace(result, fallback_used=True))


def test_decode_oracle_check_rejects_a_changed_result(vanilla_wide, monkeypatch):
    good = vanilla_wide.op
    monkeypatch.setattr(
        vanilla_wide, "op",
        lambda i: dataclasses.replace(good(i), scorer_calls=good(i).scorer_calls + 1),
    )
    with pytest.raises(workloads.CheckError):
        vanilla_wide.final_check()


def test_vanilla_check_rejects_wrong_log_prob_and_calls(vanilla_wide):
    result = vanilla_wide.op(0)
    vanilla_wide.check(0, result)
    with pytest.raises(workloads.CheckError):
        vanilla_wide.check(0, dataclasses.replace(result, log_prob=result.log_prob * 1.0001))
    with pytest.raises(workloads.CheckError):
        vanilla_wide.check(0, dataclasses.replace(result, scorer_calls=2))


def test_bigram_recount_matches_a_hand_count():
    counts = workloads.BigramCounts(["a b", "a c"])
    # Vocabulary a, b, c plus the two markers; context <s> seen twice.
    want = np.log(3 / 7) + np.log(2 / 7) + np.log(2 / 6)
    assert counts.log_prob(["a", "b"]) == pytest.approx(want, abs=1e-12)


def _corrupt_report(workload, f, column, value):
    path = workload._report(f)
    lines = Path(path).read_text().splitlines()
    cells = lines[1].split("\t")
    cells[column] = value
    lines[1] = "\t".join(cells)
    Path(path).write_text("\n".join(lines) + "\n")


def test_eval_check_accepts_the_report_and_rejects_changed_cells(eval_long):
    eval_long.check(0, eval_long.op(0))
    for column, value in ((4, "0.0000"), (5, "1.0000"), (3, "1.5000")):
        output = eval_long.op(0)
        _corrupt_report(eval_long, 0, column, value)
        with pytest.raises(workloads.CheckError):
            eval_long.check(0, output)


def test_eval_check_rejects_a_wrong_mean(eval_long):
    output = eval_long.op(1)
    path = eval_long._report(1)
    lines = Path(path).read_text().splitlines()
    cells = lines[-1].split("\t")
    cells[4] = f"{float(cells[4]) + 0.01:.4f}"
    lines[-1] = "\t".join(cells)
    Path(path).write_text("\n".join(lines) + "\n")
    with pytest.raises(workloads.CheckError):
        eval_long.check(1, output)


def test_ul_check_rejects_a_perturbed_gradient_and_loss(ul_loss):
    halluc, loss, grad = ul_loss.op(0)
    bumped = grad.copy()
    bumped[3, 7] += 1e-6
    with pytest.raises(workloads.CheckError):
        ul_loss.check(0, (halluc, loss, bumped))
    with pytest.raises(workloads.CheckError):
        ul_loss.check(0, (halluc, loss * (1 + 1e-6), grad))
    ul_loss.check(0, (halluc, loss, grad))
    # Once checked, a repeat of the same problem must come out the same.
    with pytest.raises(workloads.CheckError):
        ul_loss.check(len(ul_loss.problems), (halluc, loss, bumped))


def test_ul_gradient_check_against_finite_differences(ul_loss, monkeypatch):
    good = ul_loss.op

    def perturbed(i):
        halluc, loss, grad = good(i)
        return halluc, loss, grad * 1.01

    monkeypatch.setattr(ul_loss, "op", perturbed)
    with pytest.raises(workloads.CheckError):
        ul_loss.final_check()


# ------------------------------------------------------------------ tracer


def test_tracer_wraps_every_binding_and_restores_it():
    originals = {
        (rerank, "word_tokens"): rerank.word_tokens,
        (rerank, "flesch_kincaid"): rerank.flesch_kincaid,
        (simpeval, "tokenize"): simpeval.tokenize,
        (textseg, "tokenize"): textseg.tokenize,
        (decoder.NGramLM, "next_distribution"): decoder.NGramLM.__dict__["next_distribution"],
    }
    tracer = Tracer()
    tracer.install()
    try:
        for (owner, attr), original in originals.items():
            assert vars(owner)[attr] is not original, (owner, attr)
    finally:
        tracer.uninstall()
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original, (owner, attr)


def test_self_times_add_up_to_the_op(vanilla_wide):
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("op") as op:
            vanilla_wide.op(0)
    finally:
        tracer.uninstall()
    own = tracer.self_ns()
    roots = tracer.roots()
    inside = [sid for sid in range(len(tracer)) if roots[sid] == op.sid]
    assert len(inside) > 100
    assert sum(own[sid] for sid in inside) == tracer.end[op.sid] - tracer.start[op.sid]
    assert all(own[sid] >= 0 for sid in inside)


def test_traced_outputs_equal_untraced_outputs(rerank_k5, ul_loss):
    for workload in (rerank_k5, ul_loss):
        plain = workload.op(1)
        tracer = Tracer()
        tracer.install()
        try:
            traced = workload.op(1)
        finally:
            tracer.uninstall()
        assert len(tracer) > 0
        assert workload.same(plain, traced)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(name, quick, tmp_path):
    workload = run.make_workload(name, 2, ORACLES, str(tmp_path))
    tracer = Tracer()
    raw = run.run_workload(workload, 0.0, tracer)
    metrics, summary = layers.per_layer_metrics(tracer, workload, raw)
    assert list(metrics) == list(layers.PER_LAYER_UNITS)
    assert summary["ops"] == run.MIN_OPS
    values = {k: v["value"] for k, v in metrics.items()}
    if name == "rerank_k5":
        calls = sum(workload.op(i).scorer_calls for i in range(run.MIN_OPS))
        assert values["rerank.score_candidate.calls_per_op"] == calls / run.MIN_OPS
        assert values["decoder.rerank_steps_per_op"] > 0
    if name == "eval_long":
        assert values["simpeval.tokenize_per_doc"] > 0
        assert values["cli.run_cli.self_ms_per_op"] > 0
    if name == "ul_loss":
        assert values["ulloss.StepDistribution.calls_per_op"] == workloads.UL_STEPS


# ------------------------------------------------------------- entry point


def test_benchmark_json_names_the_metrics_the_runner_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER_UNITS


def test_untraced_run_prints_every_end_to_end_metric(quick, tmp_path):
    workload = run.make_workload("ul_loss", 3, ORACLES, str(tmp_path))
    raw = run.run_workload(workload, 0.0)
    metrics = run.end_to_end_metrics(raw)
    assert set(metrics) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in metrics.values())


def test_fails_without_a_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ul_loss",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
