"""Order statistics the benchmark reports: medians, tails and quartiles.

Latencies are reported as a median and a *tail*: the highest percentile
of a fixed ladder that still has at least ten samples beyond it. Fewer
samples than that make no tail, so a workload that cannot reach its
pinned tail percentile is an error, not a smaller number.
"""

from __future__ import annotations

import math
import statistics

# Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (75.0, 90.0, 95.0, 99.0, 99.9)
# Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_percentile(n: int) -> float | None:
    """The highest ladder percentile with at least ``TAIL_BEYOND``
    samples beyond it among ``n``, or None when no ladder step has."""
    best = None
    for pct in TAIL_LADDER:
        # In thousandths, so that 100 samples do leave ten beyond p90.
        if n * (1000 - round(pct * 10)) >= TAIL_BEYOND * 1000:
            best = pct
    return best


def tail(values: list[float], pct: float) -> float:
    """The ``pct`` percentile, refusing a sample too small to support it."""
    supported = tail_percentile(len(values))
    if supported is None or supported < pct:
        raise ValueError(
            f"{len(values)} samples cannot support a p{pct:g} tail "
            f"(need {TAIL_BEYOND} beyond it)"
        )
    return percentile(values, pct)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = values[0]
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else math.inf


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of
    ``first`` (negative when it is better)."""
    if first == 0:
        return 0.0 if second == first else math.inf
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def apart(first: float, second: float, better: str) -> float:
    """How far apart two medians are, whichever came first: the larger
    of ``worse_by`` taken both ways. Two sets of runs of one commit must
    agree in both directions, or which set ran first decides whether a
    later change counts as a regression."""
    return max(worse_by(first, second, better), worse_by(second, first, better))
