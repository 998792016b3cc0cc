"""Benchmark of minkring's library calls and CLI verbs.

    python3 perfbench/run.py --workload grid-dilate --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One process runs one workload on one thread.  It imports minkring from the
``src`` directory next to this one, nine times afresh, building the
workload's catalog presentations each time (``setup_s`` is the median).
A first pass then runs every query and checks each answer apart from the
program (workloads.py, oracle.py); the timed passes that follow, for
``--seconds``, must give the same answers.  Every pass starts from
cleared caches and fresh presentations, so the passes are identical.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and it reports the
per-layer metrics of spans.py.  See README.md for what each one means.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

from spans import COUNT_METRICS, RATIO_METRICS, TIME_METRICS, Tracer
from workloads import WORKLOADS, Api

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SETUPS = 9
MIN_PASSES = 3


def load_minkring() -> dict:
    """Import minkring from SRC afresh; returns its modules by name."""
    for name in [n for n in sys.modules if n.split(".")[0] == "minkring"]:
        del sys.modules[name]
    pkg = importlib.import_module("minkring")
    if not os.path.abspath(pkg.__file__).startswith(os.path.join(SRC, "")):
        raise ImportError(f"minkring came from {pkg.__file__}, not {SRC}")
    return {n: m for n, m in sys.modules.items() if n.split(".")[0] == "minkring"}


def clear_caches(modules: dict) -> None:
    """cache_clear() on every lru cache the minkring modules define."""
    for module in modules.values():
        for value in vars(module).values():
            if hasattr(value, "cache_clear") and \
                    getattr(value, "__module__", "").split(".")[0] == "minkring":
                value.cache_clear()


def answer_key(result, error) -> str:
    return f"raised {error}" if error else repr(result)


def run_pass(queries, modules, catalog, api, tracer=None):
    """One pass over the query list: (wall s, latencies s, (result, error)s)."""
    clear_caches(modules)
    # Collect, then exempt every surviving object (the benchmark's own
    # inputs and answers) from later collections, so each pass pays only for
    # the cycles minkring's own objects make, the same way every pass.
    gc.collect()
    gc.freeze()
    t0 = perf_counter()
    if tracer:
        tracer.begin_pass()
    catalog(api)
    latencies, answers = [], []
    for q in queries:
        if tracer:
            tracer.open_root(q.kind)
        start = perf_counter()
        try:
            result, error = q.run(), None
        except Exception as exc:  # counted as a failed operation
            result, error = None, type(exc).__name__
        latencies.append(perf_counter() - start)
        if tracer:
            tracer.close_root()
        answers.append((result, error))
    wall = perf_counter() - t0
    if tracer:
        tracer.end_pass(wall)
    return wall, latencies, answers


def check_answer(q, result) -> str | None:
    try:
        return q.check(result)
    except Exception as exc:  # a malformed report is a wrong answer
        return f"{type(exc).__name__}: {exc}"


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def run_workload(args) -> int:
    if not os.path.isdir(os.path.join(SRC, "minkring")):
        print(f"error: no minkring sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    build, catalog = WORKLOADS[args.workload]

    setups = []
    for _ in range(SETUPS):
        t0 = perf_counter()
        modules = load_minkring()
        api = Api(modules)
        catalog(api)
        setups.append(perf_counter() - t0)
    queries = build(api, args.seed)

    # Checked pass: every answer against the oracle and the paper's laws.
    _, _, answers = run_pass(queries, modules, catalog, api)
    expected, wrong = [], []
    attempted, failed = len(queries), 0
    for q, (result, error) in zip(queries, answers):
        problem = None if error else check_answer(q, result)
        if problem:
            wrong.append(f"{q.kind} [{q.label}]: {problem}")
        if error:
            print(f"failed: {q.kind} [{q.label}] raised {error}")
        failed += bool(error or problem)
        expected.append((answer_key(result, error), bool(error or problem)))

    # Timed passes: whole rounds until the run's time is up.
    tracer = Tracer(modules) if args.trace else None
    walls, latencies = [], []
    deadline = perf_counter() + args.seconds
    while len(walls) < MIN_PASSES or perf_counter() < deadline:
        for traced in ((False, True) if tracer else (False,)):
            wall, lat, answers = run_pass(queries, modules, catalog, api,
                                          tracer if traced else None)
            if not traced:
                walls.append(wall)
                latencies += lat
            for q, (want, was_failed), (result, error) in zip(queries, expected, answers):
                attempted += 1
                if answer_key(result, error) != want:
                    failed += 1
                    wrong.append(f"{q.kind} [{q.label}]: answer changed between passes")
                elif was_failed:
                    failed += 1

    if args.trace:
        per_pass = tracer.pass_metrics
        metrics = {}
        for name in TIME_METRICS + ["trace.traced_pass_ms", "trace.unattributed_ms"]:
            metrics[name] = (statistics.fmean(p[name] for p in per_pass), "ms")
        for name in COUNT_METRICS:
            metrics[name] = (statistics.fmean(p[name] for p in per_pass),
                             "chars" if name == "cli.payload_chars" else "count")
        for name in RATIO_METRICS:
            metrics[name] = (statistics.fmean(p[name] for p in per_pass), "ratio")
        untraced = statistics.fmean(walls) * 1000
        metrics["trace.untraced_pass_ms"] = (untraced, "ms")
        metrics["trace.overhead_ratio"] = (metrics["trace.traced_pass_ms"][0] / untraced,
                                           "ratio")
        for line in tracer.span_table(len(per_pass)):
            print(line)
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "total_s": (statistics.median(walls), "s"),
            "query_ms.p50": (statistics.median(latencies) * 1000, "ms"),
            "query_ms.p90": (percentile(latencies, 0.9) * 1000, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    for line in wrong[:20]:
        print(f"wrong: {line}")
    print(f"workload: {args.workload} seed: {args.seed} queries per pass: {len(queries)}"
          f" timed passes: {len(walls)} latency samples: {len(latencies)}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(f"attempted: {attempted} failed: {failed}")
    print(json.dumps({
        "correct": not wrong, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        status = max(status, subprocess.run(argv, check=False).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
