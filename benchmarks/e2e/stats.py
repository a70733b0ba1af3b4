"""Estimators the benchmark's numbers go through (stdlib only).

The rules are part of the benchmark's definition (see README.md):
every end-to-end statistic is computed *per pass* and the run's value
is the *best pass*; set-up is the median of repetitions.
"""

from __future__ import annotations

import math
import statistics
import time


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least a
    fraction ``q`` of the sample at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def geomean(values: list[float]) -> float:
    if not values or any(v <= 0 for v in values):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def best_of_passes(
    passes: list[dict[str, float]], better: dict[str, str]
) -> dict[str, float]:
    """Per metric, the best per-pass value: the lowest where lower is
    better, the highest where higher is.

    Interference on a shared host only ever slows a pass down, so the
    best pass is the one closest to what the program itself costs.
    Measured on this box in a noisy hour (6 runs per workload), the
    median across passes spread 12-41 % between runs where the best
    pass spread 5-8 % on the one-client workloads.
    """
    if not passes:
        raise ValueError("no passes")
    return {
        name: (min if better[name] == "lower" else max)(p[name] for p in passes)
        for name in passes[0]
    }


def iqr_spread(values: list[float]) -> float:
    """(Q3 - Q1) / median, quartiles as ``statistics.quantiles(n=4)``."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def calibration_ms() -> float:
    """Time a fixed pure-Python kernel: the drift canary.

    Best of three, so a supervisor thread waking up in this process does
    not read as a slow host.  For diagnosis only -- a pass's numbers are
    never divided by it (that was tried and made the service workloads
    *less* repeatable).
    """
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        table = {}
        for i in range(60_000):
            acc = (acc * 31 + i) % 1_000_003
            table[acc & 1023] = i
        best = min(best, time.perf_counter() - t0)
    return best * 1000.0
