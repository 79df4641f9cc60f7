"""Sampling estimator for the number of distinct symbols ("colors").

The basic estimator samples ceil(10 * n / lambda^2) positions uniformly with
replacement, counts the distinct symbols seen, and scales by lambda. The
sample can never contain more colors than the string, so the scaled output
never exceeds lambda times the truth - that side holds on every run, not
just with high probability. The lower side holds with probability at least
2/3; the amplified variant runs the basic estimator several times and takes
the median to push the failure probability below a requested delta.

Used standalone and as the engine behind the LZ distinct-substring
estimates, where each window start is treated as a virtual color.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._rng import derive_seed, make_rng
from .accessor import EstimateReport, QueryCountedString, QuerySession, distinct_count


@dataclass(frozen=True)
class ColorSample:
    """One basic-estimator run: sample size, distinct symbols seen, factor."""

    sample_size: int
    distinct_seen: int
    lam: float

    def __post_init__(self):
        if self.distinct_seen > self.sample_size:
            raise ValueError("distinct count cannot exceed the sample size")


def sample_count(n: int, lam: float) -> int:
    return math.ceil(10.0 * n / lam**2)


def _basic(sess: QuerySession, lam: float, seed: int) -> ColorSample:
    s = sample_count(sess.length, lam)
    rng = make_rng(seed)
    ts = rng.integers(1, sess.length + 1, size=s)
    vals = sess.read_many(ts)
    return ColorSample(sample_size=s, distinct_seen=distinct_count(vals), lam=lam)


def colors_estimate(
    tau: QueryCountedString, lam: float, seed: int, *, session: QuerySession | None = None
) -> EstimateReport:
    """lambda-multiplicative estimate of the distinct-symbol count of ``tau``."""
    if lam <= 1:
        raise ValueError("lambda must be > 1")
    sess = session if session is not None else tau.session()
    sample = _basic(sess, lam, seed)
    return EstimateReport(
        estimate=float(sample.distinct_seen * lam),
        lam=lam,
        epsilon=0.0,
        queries_used=sess.queries,
        seed=seed,
    )


def amplification_runs(delta: float) -> int:
    return max(1, math.ceil(18.0 * math.log(1.0 / delta)))


def lower_median(values) -> float:
    """Deterministic median: the lower of the two middles for even counts."""
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def colors_estimate_amplified(
    tau: QueryCountedString,
    lam: float,
    delta: float,
    seed: int,
    *,
    session: QuerySession | None = None,
) -> EstimateReport:
    """Median of ceil(18 * ln(1/delta)) independent basic runs; confidence 1 - delta."""
    if lam <= 1:
        raise ValueError("lambda must be > 1")
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    sess = session if session is not None else tau.session()
    k = amplification_runs(delta)
    outputs = [_basic(sess, lam, derive_seed(seed, run)).distinct_seen * lam for run in range(k)]
    return EstimateReport(
        estimate=float(lower_median(outputs)),
        lam=lam,
        epsilon=0.0,
        queries_used=sess.queries,
        seed=seed,
        confidence=1.0 - delta,
    )
