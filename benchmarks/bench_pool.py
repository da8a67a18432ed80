"""Warm caller-owned pool vs a cold ephemeral pool per sweep.

Runs the same deterministic job sweep through the two ways
:func:`repro.runtime.run_parallel` puts jobs on worker processes:

* **cold** — ``run_parallel(jobs, max_workers=W, timeout=T)``: the
  timeout routes the sweep onto an ephemeral ``WorkerPool`` that is
  spawned for this call and closed before it returns, so the measured
  window includes forking the workers and tearing them down.
* **warm** — a :class:`repro.runtime.WorkerPool` spawned once before
  the measured window (the state a long sweep, the league CLI or the
  serve daemon operates in) and passed as ``pool=``.

Both lanes run the same pool code with the same watchdog (timeouts,
heartbeats, ``error_kind`` taxonomy), so the delta is pure
process-lifecycle overhead.  The job bodies are seeded pure functions,
and the bench asserts the two lanes return bit-identical values.

Usage::

    PYTHONPATH=src python benchmarks/bench_pool.py           # 32-job sweep
    PYTHONPATH=src python benchmarks/bench_pool.py --quick   # CI smoke (8 jobs)
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.runtime import Job, WorkerPool, run_parallel


def bench_job(seed: int, size: int, repeats: int) -> np.ndarray:
    """Deterministic stand-in for one experiment cell.

    A seeded chain of matrix products — enough numpy work to look like a
    small evaluation, small enough that process-lifecycle overhead stays
    visible.  Pure function of its arguments, so both lanes must return
    the same bits.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    state = rng.standard_normal((size, size))
    step = rng.standard_normal((size, size)) / size
    for _ in range(repeats):
        state = np.tanh(state @ step)
    return state[0].copy()


def make_jobs(args: argparse.Namespace) -> list[Job]:
    # Fresh Job objects per lane: cached payload bytes never leak between
    # the measured runs.
    return [Job(fn=bench_job, args=(args.seed + i, args.size, args.repeats),
                name=f"bench:{i}", timeout=args.job_timeout)
            for i in range(args.n_jobs)]


def run(args: argparse.Namespace) -> dict:
    # Lane 1: cold.  run_parallel spawns and closes an ephemeral pool.
    start = time.perf_counter()
    cold_report = run_parallel(make_jobs(args), max_workers=args.workers,
                               timeout=args.job_timeout)
    cold_seconds = time.perf_counter() - start
    if cold_report.n_failed:
        raise RuntimeError(f"cold lane failed: {cold_report.summary()}")

    # Lane 2: warm pool.  The warmup run pays worker spawn + first-dispatch
    # costs outside the measured window, as a long-lived sweep would.
    with WorkerPool(max_workers=args.workers) as pool:
        warmup = run_parallel(make_jobs(args), pool=pool)
        if warmup.n_failed:
            raise RuntimeError(f"pool warmup failed: {warmup.summary()}")
        start = time.perf_counter()
        warm_report = run_parallel(make_jobs(args), pool=pool,
                                   timeout=args.job_timeout)
        warm_seconds = time.perf_counter() - start
        replacements = pool.replacements
    if warm_report.n_failed:
        raise RuntimeError(f"warm lane failed: {warm_report.summary()}")

    identical = all(
        np.array_equal(c.value, w.value)
        for c, w in zip(cold_report.results, warm_report.results))

    return {
        "benchmark": "warm_pool_vs_cold_pool",
        "config": {
            "n_jobs": args.n_jobs, "workers": args.workers,
            "size": args.size, "repeats": args.repeats,
            "job_timeout": args.job_timeout, "seed": args.seed,
            "quick": args.quick,
        },
        "cold": {
            "seconds": cold_seconds,
            "jobs_per_s": args.n_jobs / cold_seconds,
            "s_per_job": cold_seconds / args.n_jobs,
        },
        "warm": {
            "seconds": warm_seconds,
            "jobs_per_s": args.n_jobs / warm_seconds,
            "s_per_job": warm_seconds / args.n_jobs,
            "worker_replacements": replacements,
        },
        "speedup": cold_seconds / warm_seconds,
        "identical_values": identical,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI-scale smoke run (8 jobs)")
    parser.add_argument("--n-jobs", type=int, default=None,
                        help="sweep size (default 32; 8 with --quick)")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--size", type=int, default=96,
                        help="job matrix dimension")
    parser.add_argument("--repeats", type=int, default=10,
                        help="matrix products per job (default 10; larger "
                             "values shift the sweep from overhead-bound "
                             "toward compute-bound)")
    parser.add_argument("--job-timeout", type=float, default=120.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--min-speedup", type=float, default=1.0,
                        metavar="X",
                        help="regression gate: exit 1 if the warm pool is "
                             "not at least X times the cold lane "
                             "(default 1.0: warm must not regress)")
    parser.add_argument("--output", type=Path,
                        default=Path(__file__).resolve().parent.parent / "BENCH_pool.json")
    args = parser.parse_args(argv)
    args.n_jobs = args.n_jobs or (8 if args.quick else 32)

    result = run(args)
    args.output.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")

    cold, warm = result["cold"], result["warm"]
    print(f"{args.n_jobs} jobs x (tanh({args.size}x{args.size} matmul) "
          f"* {args.repeats}), {args.workers} workers")
    print(f"cold pool: {cold['seconds']:.2f}s "
          f"({1e3 * cold['s_per_job']:.0f} ms/job)")
    print(f"warm pool: {warm['seconds']:.2f}s "
          f"({1e3 * warm['s_per_job']:.0f} ms/job)  "
          f"({result['speedup']:.2f}x)")
    print(f"bit-identical values: {result['identical_values']}")
    print(f"wrote {args.output}")
    if not result["identical_values"]:
        print("ERROR: warm lane values diverged from the cold lane")
        return 1
    if result["speedup"] < args.min_speedup:
        print(f"ERROR: warm pool speedup {result['speedup']:.2f}x below "
              f"the {args.min_speedup:.2f}x gate")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
