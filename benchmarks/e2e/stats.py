"""Order statistics shared by the benchmark, its comparison tool and tests."""

from __future__ import annotations

import statistics

__all__ = ["quantile", "tail_percentile", "spread"]


def quantile(values, q: float) -> float:
    """Linearly interpolated ``q``-quantile (0 <= q <= 1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    position = q * (len(ordered) - 1)
    lo = int(position)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (position - lo)


def tail_percentile(values, beyond: int = 10) -> tuple[float, float]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(percentile, value)``: the sample with exactly ``beyond``
    larger-ranked samples after it, and its rank as a percentage of the
    sample count.  With 30 samples that is the 20th, p66.7.
    """
    ordered = sorted(values)
    if len(ordered) <= beyond:
        raise ValueError(f"need more than {beyond} samples for a tail "
                         f"percentile, got {len(ordered)}")
    k = len(ordered) - beyond - 1
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def spread(values) -> float:
    """Interquartile distance as a share of the median, with the quartiles
    ``statistics.quantiles(values, n=4)`` gives."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median) if median else float("inf")
