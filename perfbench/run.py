"""simpkit benchmark: one workload per process, checked outputs, one JSON line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload rerank_k5 --seed 1 --seconds 15 --trace 0

The package is imported from ``src/`` of the checkout, never from an
installed copy.  With ``--trace 0`` the last line of standard output holds
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run, and every span is also written to
``perfbench/out/<workload>-trace.json``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

# The program is single-threaded; keep numpy's BLAS from starting threads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"

WORKLOADS = ("rerank_k5", "vanilla_wide", "eval_long", "ul_loss")

# Every run times at least this many ops, so that at least ten lie beyond
# the 90th percentile.
MIN_OPS = 100
# Set-up is timed before and again after the loop, each time at least this
# many times and until this much time has gone (but at most the cap), and
# the median of all of them is reported.  Timing both ends of the run lets
# the median see more of the machine's slow and fast spells than a burst at
# the start would.
SETUP_MIN_REPS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPS = 100
# Outputs of the first ops are recomputed after the loop (untraced) and must
# come out the same.
REPLAYED_OPS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _import_package():
    """Import simpkit from the checkout's ``src`` and the brute-force
    oracles from its ``tests``; exit 2 when the checkout lacks them."""
    package = ROOT / "src" / "simpkit" / "__init__.py"
    oracles_path = ROOT / "tests" / "oracles.py"
    if not package.is_file() or not oracles_path.is_file():
        print(
            f"error: {ROOT} is not a simpkit checkout "
            "(needs src/simpkit and tests/oracles.py)",
            file=sys.stderr,
        )
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import simpkit

    if Path(simpkit.__file__).resolve() != package.resolve():
        print(f"error: imported simpkit from {simpkit.__file__}", file=sys.stderr)
        sys.exit(2)
    spec = importlib.util.spec_from_file_location("oracles", oracles_path)
    oracles = importlib.util.module_from_spec(spec)
    sys.modules["oracles"] = oracles
    spec.loader.exec_module(oracles)
    return oracles


def make_workload(name: str, seed: int, oracles, workdir: str):
    import workloads

    if name == "rerank_k5":
        return workloads.RerankK5(seed, oracles)
    if name == "vanilla_wide":
        return workloads.VanillaWide(seed, oracles)
    if name == "eval_long":
        return workloads.EvalLong(seed, oracles, workdir)
    if name == "ul_loss":
        return workloads.UlLoss(seed, oracles)
    raise ValueError(f"unknown workload {name!r}")


def _similarity_cache():
    from simpkit import consistency

    return getattr(getattr(consistency, "_token_similarity", None), "cache_info", None)


def time_setups(workload, tracer=None) -> list:
    """Run ``workload.setup`` repeatedly; return each run's nanoseconds."""
    times = []
    while (
        len(times) < SETUP_MIN_REPS or sum(times) < SETUP_MIN_SECONDS * 1e9
    ) and len(times) < SETUP_MAX_REPS:
        if tracer is not None:
            tracer.install()
        start = time.perf_counter_ns()
        if tracer is not None:
            with tracer.span("setup"):
                workload.setup()
        else:
            workload.setup()
        times.append(time.perf_counter_ns() - start)
        if tracer is not None:
            tracer.uninstall()
    return times


def run_workload(workload, seconds: float, tracer=None, durations=None) -> dict:
    """Set up, time ops for ``seconds`` (and at least :data:`MIN_OPS`),
    check every output, and return the raw measurements.

    Op times are appended to ``durations`` when given, so a caller still
    knows how many ops ran when a check raises.
    """
    import workloads

    setup_ns = time_setups(workload, tracer)
    workload.expect()

    cache_info = _similarity_cache()
    cache_before = cache_info() if cache_info else None
    if tracer is not None:
        tracer.install()
    durations = [] if durations is None else durations
    replay = []
    failed = 0
    timed = 0
    budget = seconds * 1e9
    try:
        while timed < budget or len(durations) < MIN_OPS:
            i = len(durations)
            start = time.perf_counter_ns()
            try:
                if tracer is not None:
                    with tracer.span("op"):
                        output = workload.op(i)
                else:
                    output = workload.op(i)
            except Exception as exc:  # an op that raises counts as failed
                elapsed = time.perf_counter_ns() - start
                durations.append(elapsed)
                timed += elapsed
                if not failed:
                    print(f"op {i} failed: {exc!r}", file=sys.stderr)
                failed += 1
                continue
            elapsed = time.perf_counter_ns() - start
            durations.append(elapsed)
            timed += elapsed
            workload.check(i, output)
            if i < REPLAYED_OPS:
                replay.append((i, output))
    finally:
        if tracer is not None:
            tracer.uninstall()
    cache_after = cache_info() if cache_info else None
    # Same seed, same inputs: the checks below still hold after this.
    setup_ns += time_setups(workload, tracer)

    for i, output in replay:
        workloads.require(
            workload.same(workload.op(i), output),
            f"op {i}: output differs when run again untraced",
        )
    workload.final_check()

    hit_ratio = 0.0
    if cache_before is not None:
        hits = cache_after.hits - cache_before.hits
        lookups = hits + cache_after.misses - cache_before.misses
        hit_ratio = hits / lookups if lookups else 0.0
    return {
        "setup_ns": setup_ns,
        "durations": durations,
        "failed": failed,
        "hit_ratio": hit_ratio,
    }


def end_to_end_metrics(raw: dict) -> dict:
    durations = raw["durations"]
    values = {
        "setup_s": statistics.median(raw["setup_ns"]) / 1e9,
        "op_p50_ms": statistics.median(durations) / 1e6,
        "op_p90_ms": statistics.quantiles(durations, n=10)[8] / 1e6,
        "ops_per_s": len(durations) / (sum(durations) / 1e9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    oracles = _import_package()
    import layers
    import workloads
    from tracer import Tracer

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    tracer = Tracer() if args.trace else None
    workload = make_workload(args.workload, args.seed, oracles, workdir)
    durations = []
    try:
        raw = run_workload(workload, args.seconds, tracer, durations)
    except workloads.CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        attempted = max(len(durations), 1)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": 0, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir)

    if tracer is None:
        metrics = end_to_end_metrics(raw)
    else:
        metrics, summary = layers.per_layer_metrics(tracer, workload, raw)
        summary.update(workload=args.workload, seed=args.seed)
        tracer.dump(str(OUT / f"{args.workload}-trace.json"), summary)
        print(json.dumps(summary, indent=1), file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": len(raw["durations"]),
                "failed": raw["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
