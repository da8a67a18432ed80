#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs, metric by metric.

    python3 benchmarks/e2e/compare.py A.jsonl B.jsonl

``A`` (the parent) and ``B`` (the change) are files written by
``run.py --out``: one JSON line per workload run.  Runs pair up in file
order within each workload, so record them alternating which side runs
first.  For every workload x metric row this prints each side's median
and quartiles, the share of pairs the change wins (ties count for
neither) and a verdict:

* ``better``: every run of B beats every run of A, or B wins at least
  nine tenths of the pairs and the medians differ by more than A's
  interquartile distance;
* ``unresolved``: otherwise, when either side's interquartile spread
  exceeds the metric's bound in ``BENCHMARK.json``;
* ``worse``: B's median is worse than A's by more than the bound;
* ``same``: none of the above.

Per-layer metrics and the diagnostics (``measured_s``, ``op_ms_p50``,
``host_probe_ms``) have no bound: their verdict is ``better``, ``worse``
(the mirror of the ``better`` rule) or ``same``.  Comparing untraced runs
with traced runs of the same seeds shows the tracing overhead as the
change in ``measured_s``.  The tool also checks
that runs of the same workload and seed produced the same digest, and
exits 1 if an end-to-end row is ``worse`` or any digest differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from stats import spread  # noqa: E402

BENCHMARK = HERE.parents[1] / "BENCHMARK.json"
# Diagnostics every run records, compared like per-layer metrics (no bound).
DIAGNOSTICS = {"measured_s": "s", "op_ms_p50": "ms", "host_probe_ms": "ms"}


def load(path: str) -> tuple[dict, dict]:
    """``({(workload, metric): [values]}, {(workload, seed): {digests}})``."""
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    digests: dict[tuple[str, int], set[str]] = defaultdict(set)
    with open(path) as lines:
        for line in lines:
            if not line.strip():
                continue
            record = json.loads(line)
            for name, metric in record["metrics"].items():
                values[(record["workload"], name)].append(float(metric["value"]))
            for name in DIAGNOSTICS:
                if record["diagnostics"].get(name) is not None:
                    values[(record["workload"], name)].append(
                        float(record["diagnostics"][name]))
            digests[(record["workload"], record["seed"])].add(
                json.dumps(record["digest"], sort_keys=True))
    return values, digests


def beats(x: float, y: float, better: str) -> bool:
    """True when ``x`` is better than ``y``."""
    return x < y if better == "lower" else x > y


def verdict(a: list[float], b: list[float], better: str,
            bound: float | None) -> tuple[str, float]:
    """``(verdict, share of pairs B wins)`` for one metric on one workload."""
    pairs = list(zip(a, b))
    share = sum(beats(y, x, better) for x, y in pairs) / len(pairs)
    lost = sum(beats(x, y, better) for x, y in pairs) / len(pairs)
    if len(a) < 2 or len(b) < 2:
        return "unresolved", share
    q1, median_a, q3 = statistics.quantiles(a, n=4)
    median_b = statistics.median(b)
    all_better = all(beats(y, x, better) for x in a for y in b)
    if all_better or (share >= 0.9 and abs(median_b - median_a) > q3 - q1):
        return "better", share
    if bound is None:
        worse = lost >= 0.9 and abs(median_b - median_a) > q3 - q1
        return ("worse" if worse else "same"), share
    if max(spread(a), spread(b)) > bound:
        return "unresolved", share
    change = (median_b - median_a) / abs(median_a) if median_a else 0.0
    worsened = change if better == "lower" else -change
    return ("worse" if worsened > bound else "same"), share


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="runs of the parent (run.py --out file)")
    parser.add_argument("b", help="runs of the change")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    meta = {m["name"]: (m["unit"], m["better"], m.get("bound"))
            for m in spec["end_to_end"] + spec["per_layer"]}
    meta.update({name: (unit, "lower", None) for name, unit in DIAGNOSTICS.items()})
    values_a, digests_a = load(args.a)
    values_b, digests_b = load(args.b)

    print(f"{'workload':<14} {'metric':<28} {'unit':<12} {'A median [Q1, Q3]':>34} "
          f"{'B median [Q1, Q3]':>34} {'change':>8} {'B wins':>7}  verdict")
    status = 0
    for workload, name in sorted(set(values_a) & set(values_b)):
        a, b = values_a[(workload, name)], values_b[(workload, name)]
        unit, better, bound = meta.get(name, ("?", "lower", None))
        result, share = verdict(a, b, better, bound)
        status |= result == "worse" and bound is not None
        sides = []
        for side in (a, b):
            q1, median, q3 = (statistics.quantiles(side, n=4) if len(side) > 1
                              else (side[0],) * 3)
            sides.append(f"{median:.5g} [{q1:.5g}, {q3:.5g}]")
        median_a = statistics.median(a)
        change = ((statistics.median(b) - median_a) / abs(median_a) * 100
                  if median_a else 0.0)
        print(f"{workload:<14} {name:<28} {unit:<12} {sides[0]:>34} {sides[1]:>34} "
              f"{change:>+7.1f}% {share:>6.0%}  {result}")

    shared = sorted(set(digests_a) & set(digests_b))
    differing = [key for key in shared if len(digests_a[key] | digests_b[key]) > 1]
    print(f"digests: {len(shared) - len(differing)} of {len(shared)} "
          f"workload x seed pairs identical")
    for workload, seed in differing:
        print(f"  DIFFERENT: {workload} seed {seed}")
    return 1 if status or differing else 0


if __name__ == "__main__":
    sys.exit(main())
