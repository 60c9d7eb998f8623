"""Summary statistics shared by the benchmark run and its steadiness
check, and the reference work that calibrates timings to the host's speed."""
from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# The tail of a timing distribution is the highest percentile that still
# has this many samples above it, so it never rests on one or two outliers.
TAIL_BEYOND = 10


def tail(samples) -> tuple[float, float | None, int]:
    """Highest percentile of ``samples`` with at least 10 samples beyond it.

    Returns ``(value, percentile, count)``.  With n sorted samples that is
    the (n - 10)-th smallest, at percentile 100 * (n - 10) / n.  With
    fewer than 11 samples no percentile qualifies; the maximum is
    returned and the percentile is ``None``.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of an empty sample")
    if n <= TAIL_BEYOND:
        return ordered[-1], None, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def median(samples) -> float:
    return float(statistics.median(samples))


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as ``statistics.quantiles(n=4)``."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def worse_by(first: float, second: float, better: str) -> float:
    """Share of ``first`` by which ``second`` is worse (negative if better)."""
    if better == "lower":
        return (second - first) / first
    return (first - second) / first


# Reference work, timed between requests: LAPACK factorizations of a
# 120 x 120 matrix and a Python loop of small-array numpy arithmetic, the
# two kinds of work the program does, in about equal shares.  It runs none
# of the program's code, so a shift in the shared host's speed moves it as
# it moves the program, while a change to the program reaches it only
# through the state a request leaves behind (caches, allocator).  That it
# stays put under program changes is assumed, not tested; the unscaled
# timings are reported next to the scaled ones.  REFERENCE_S is the median
# reference time measured in the loop on the 2-core 2.1 GHz Xeon the
# benchmark was built on (60 runs, one BLAS thread), so scaled timings
# read as seconds at that host's speed in those runs.
REFERENCE_S = 0.0084
_REFERENCE_MATRIX = np.random.default_rng(0).standard_normal((120, 120))
# bound at import, so that a traced run does not trace the reference work
_svd, _qr = np.linalg.svd, np.linalg.qr


def reference_seconds() -> float:
    t0 = perf_counter()
    _svd(_REFERENCE_MATRIX)
    _qr(_REFERENCE_MATRIX)
    x = np.ones(4)
    for _ in range(1500):
        x = x + 0.01 * (x * 0.5)
    return perf_counter() - t0


def slowdown() -> float:
    """The host's current speed as reference time over REFERENCE_S;
    timings divided by it are in reference seconds."""
    return reference_seconds() / REFERENCE_S
