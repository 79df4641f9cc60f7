"""Sampling estimator for the number of distinct symbols ("colors").

The basic estimator samples ceil(10 * n / lambda^2) positions uniformly with
replacement, counts the distinct symbols seen, and scales by lambda. The
sample can never contain more colors than the string, so the scaled output
never exceeds lambda times the truth - that side holds on every run, not
just with high probability. The lower side holds with probability at least
2/3.

The amplified variant needs no median. Because the upper side never fails,
a sample can only fail low, and adding positions to a sample can only raise
its distinct count. So one pooled sample of k basic sample sizes is at least
as good as the best of k independent basic runs: it fails only if every one
of them fails on the lower side, with probability at most 3^-k. k is the
smallest integer with 3^k >= 1/delta.

Used standalone and as the engine behind the LZ distinct-substring
estimates, where each window start is treated as a virtual color.
"""

from __future__ import annotations

import math
import sys

from ._rng import make_rng
from .accessor import EstimateReport, QueryCountedString, ReadPlan, distinct_count


def sample_count(n: int, lam: float) -> int:
    # lambda = 1e100 draws one position at every n below 1e199 already;
    # capping lambda there keeps lambda^2 finite and the count at least 1
    return math.ceil(10.0 * n / min(lam, 1e100) ** 2)


def pool_size(n: int, lam: float, runs: int) -> int:
    """Positions one pool of ``runs`` basic sample sizes draws."""
    return runs * sample_count(n, lam)


def colors_plan(n: int, lam: float, runs: int) -> ReadPlan:
    """A run's one pool, which reads no more positions than it draws."""
    if not lam > 1:
        raise ValueError("lambda must be > 1")
    if lam == math.inf:
        raise ValueError("lambda must be finite")
    size = pool_size(n, lam, runs)
    return ReadPlan(False, size, size)


def _pooled_estimate(
    tau: QueryCountedString, lam: float, runs: int, seed: int, confidence: float
) -> EstimateReport:
    """lambda times the distinct symbols in one pool of ``runs`` basic sample sizes."""
    sess = tau.session()
    plan = colors_plan(sess.length, lam, runs)
    ts = make_rng(seed).integers(1, sess.length + 1, size=plan.draws)
    # lambda times the count can pass the largest float, which still lies in
    # [C / lambda, lambda * C] for the string's C >= the count
    est, used = plan.run(sess, lambda: min(distinct_count(sess.read_many(ts)) * lam, sys.float_info.max))
    return EstimateReport(est, lam, 0.0, used, seed, confidence)


def colors_estimate(tau: QueryCountedString, lam: float, seed: int) -> EstimateReport:
    """lambda-multiplicative estimate of the distinct-symbol count of ``tau``."""
    return _pooled_estimate(tau, lam, 1, seed, 2.0 / 3.0)


def amplification_runs(delta: float) -> int:
    """Smallest k >= 1 with 3^-k <= delta: a pool of k basic sample sizes
    fails on the lower side with probability at most delta."""
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    k = 1
    while 3.0**-k > delta:
        k += 1
    return k


def colors_estimate_amplified(
    tau: QueryCountedString, lam: float, delta: float, seed: int
) -> EstimateReport:
    """One pool of amplification_runs(delta) basic sample sizes; confidence 1 - delta."""
    return _pooled_estimate(tau, lam, amplification_runs(delta), seed, 1.0 - delta)
