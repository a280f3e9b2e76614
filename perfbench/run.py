"""Benchmark of dswave: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 15 --trace 0

Run from a checkout of the repository: the program is imported from its
``src/`` directory.  With ``--trace 0`` the run measures the end-to-end
metrics (operations per second, set-up time, peak memory); with
``--trace 1`` it replays a fixed number of rounds twice, untraced and
traced, and reports the per-layer metrics.  Either way the outputs are
checked outside the timed part, and the last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import os

# one thread per process: numpy's BLAS pools would otherwise take both cores
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 3


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def measure_setup(workload) -> float:
    """Median wall time of fresh interpreters from start to the first
    operation ready (they exit there)."""
    from workloads import python_env

    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(workload.setup_command(), env=python_env(), check=True,
                       stdout=subprocess.DEVNULL, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_rounds(workload, rounds, tracer=None):
    """Run each round's tasks in order; returns [(seconds, outcomes)]."""
    from workloads import OP_FAILURES, Outcome

    out = []
    op_id = 0
    for tasks in rounds:
        outcomes = []
        t0 = time.perf_counter()
        for task in tasks:
            if tracer is not None:
                tracer.begin_op(op_id, task.kind)
            op_id += 1
            try:
                outcomes.append(Outcome(task, task.call()))
            except OP_FAILURES as exc:
                outcomes.append(Outcome(task, None, f"{type(exc).__name__}: {exc}"))
        out.append((time.perf_counter() - t0, outcomes))
    return out


def timed_rounds(workload, rng, seconds):
    """Whole rounds until `seconds` have passed."""
    results = []
    gen = workload.rounds(rng)
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        results += run_rounds(workload, [next(gen)])
        _log(f"round {len(results)}: {results[-1][0]:.3f} s")
    return results


def summarize(workload, results):
    """attempted, failed and the median rate of finished operations per
    round."""
    attempted = failed = 0
    rates = []
    for seconds, outcomes in results:
        n = sum(oc.task.n_ops for oc in outcomes)
        bad = sum(workload.failed_ops(oc) for oc in outcomes)
        attempted += n
        failed += bad
        rates.append((n - bad) / seconds)
    return attempted, failed, statistics.median(rates)


def report_errors(workload, results) -> list[str]:
    for _, outcomes in results:
        for oc in outcomes:
            if workload.failed_ops(oc):
                _log(f"failed op {oc.task.kind} {oc.task.inputs}: {oc.error or 'see output'}")
    return workload.check([oc for _, outcomes in results for oc in outcomes])


def end_to_end(workload, seed, seconds):
    setup_s = measure_setup(workload)
    workload.warmup()
    results = timed_rounds(workload, random.Random(seed), seconds)
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    attempted, failed, rate = summarize(workload, results)
    problems = report_errors(workload, results)
    metrics = {
        "ops_per_s": {"value": rate, "unit": "1/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }
    return problems, attempted, failed, metrics


def traced(workload, seed, seconds):
    import layers
    from tracer import Tracer

    n_rounds = max(1, round(0.5 * seconds / workload.nominal_round_s))
    gen = workload.rounds(random.Random(seed))
    rounds = [next(gen) for _ in range(n_rounds)]
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload.name}-seed{seed}"
    workload.warmup()
    plain = run_rounds(workload, rounds)
    if workload.name == "cli":
        shutil.rmtree(stem, ignore_errors=True)
        stem.mkdir()
        workload.trace_dir = stem
        traced_results = run_rounds(workload, rounds)
        totals, extra = layers.collect_cli(stem)
    else:
        tracer = Tracer()
        tracer.install()
        try:
            traced_results = run_rounds(workload, rounds, tracer)
        finally:
            tracer.uninstall()
        tracer.write_spans(f"{stem}-spans.npz")
        totals, extra = layers.collect(tracer)
    problems = report_errors(workload, plain)
    for (_, a), (_, b) in zip(plain, traced_results):
        for oa, ob in zip(a, b):
            if oa.output != ob.output:
                problems.append(f"traced output differs from untraced: {oa.task.kind} {oa.task.inputs}")
    overhead = sum(s for s, _ in traced_results) - sum(s for s, _ in plain)
    n_pionic = sum(oc.task.kind == "pionic" for _, outcomes in plain for oc in outcomes)
    metrics = layers.metrics(totals, extra, overhead, n_pionic)
    Path(f"{stem}-layers.json").write_text(json.dumps(metrics, indent=1) + "\n")
    print(layers.table(workload.name, metrics))
    a1, f1, _ = summarize(workload, plain)
    a2, f2, _ = summarize(workload, traced_results)
    return problems, a1 + a2, f1 + f2, metrics


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "dswave" / "__init__.py").is_file():
        _log(f"no dswave sources under {SRC}: run from a checkout of the repository")
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _log(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        return 2
    workload = WORKLOADS[args.workload]()
    workload.build()
    run = traced if args.trace else end_to_end
    problems, attempted, failed, metrics = run(workload, args.seed, args.seconds)
    for msg in problems:
        _log(f"check failed: {msg}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
