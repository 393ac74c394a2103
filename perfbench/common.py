"""Workload definitions and summary statistics shared by the benchmark's
launcher and its worker processes. Pure Python: the launcher never imports
numpy, so the BLAS thread pin set for the workers cannot leak into it."""

from __future__ import annotations

import math

# Every workload is the default scenario (10 s, 200 control periods of
# 50 ms, 1 ms RK4 plant, +20% gravity mismatch, 0.2 rad / 0.65 Hz sinusoid
# reference); these are the config overrides on top of it. The reasons for
# each choice are in README.md.
WORKLOADS = {
    "classical_sine": {"controller": "classical"},
    "afmpc_sine": {"controller": "afmpc"},
    "afmpc_grid625": {"controller": "afmpc", "fuzzy.counts": "5 5 5 5"},
}

# afmpc_sine must track better than the classical controller on the same
# seed (the paper's claim); this names the workload it is checked against.
BEATS_CLASSICAL = {"afmpc_sine": "classical_sine"}

# Every time the benchmark reports is scaled to the machine speed at which
# one speed probe (worker.speed_probe) takes this long (README.md, "Noise").
NOMINAL_PROBE_S = 2.0e-3


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def nearest_rank(values, q: float):
    """The q-quantile by the nearest-rank rule: the ceil(q * n)-th smallest."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def p95(values, min_beyond: int = 10):
    """Nearest-rank p95, refused unless at least `min_beyond` samples lie
    beyond it, so the tail figure never rests on a handful of samples. At
    n = 200 exactly 10 samples lie beyond it."""
    n = len(values)
    if n - max(1, math.ceil(0.95 * n)) < min_beyond:
        raise ValueError(f"{n} samples leave fewer than {min_beyond} beyond p95")
    return nearest_rank(values, 0.95)


def local_speed(probe_at, probe_s, n: int, nominal_s: float, window: int = 3) -> list:
    """Speed factor of each of `n` control periods: `nominal_s` over the
    median duration of the `window` speed probes that ran nearest it.
    `probe_at[j]` is the number of periods completed when probe j ran.
    A period's time times its factor is its time at the nominal speed."""
    if len(probe_at) < window:
        raise ValueError(f"{len(probe_at)} speed probes, fewer than {window}")
    out = []
    for k in range(1, n + 1):
        nearest = sorted(range(len(probe_at)), key=lambda j: (abs(probe_at[j] - k), j))
        out.append(nominal_s / median([probe_s[j] for j in nearest[:window]]))
    return out


def column_medians(rows):
    """Median of each column of equally long rows."""
    if len({len(r) for r in rows}) != 1:
        raise ValueError("rows of different lengths")
    return [median(col) for col in zip(*rows)]


def failed_periods(statuses, configured: int) -> int:
    """Periods whose solve fell back to the warm start, plus the configured
    periods a divergence kept the run from reaching."""
    if len(statuses) > configured:
        raise ValueError("more logged periods than configured")
    return sum(1 for s in statuses if s == "fallback") + configured - len(statuses)
