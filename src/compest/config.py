"""Tunable constants and query-budget ceilings, in one place.

The sampling theorems fix only asymptotics; the concrete constants below are
calibration choices, frozen here so every budget assertion in the package and
the test suite reads the same numbers.
"""

from __future__ import annotations

import math

from .lz import LzEstimateParams, window_pool_size
from .oracles import alphabet_bits

# Sample-count constants.
C_Q = 8.0   # additive RLE estimator: q = ceil(C_Q * ((1 + s) / 2)^2 / eps^2)
C_B = 64.0  # bucketed RLE estimator: q = ceil(C_B * log(1/eps) * loglog(1/eps) / eps)

# Query-ceiling constants for auditing measured reads against the documented
# asymptotic budgets.
C_ADDITIVE_AUDIT = 20.0  # x C_Q * ((1 + s) / 2)^2 * log2(4*sigma/eps) / eps^3
C_BUCKETED_AUDIT = 8.0   # x q * h0^2
C_SEARCH_AUDIT = 4.0     # x (n / C) * log2(n + 2)^3, expected reads of the search

# Safety cap on search iterations (termination is guaranteed well below this
# for any nonempty input; the cap only catches bugs).
SEARCH_MAX_ROUNDS = 64


# -- derived sample counts -----------------------------------------------


def _contribution_range_factor(alphabet_size: int) -> float:
    # c(t) lies in (0, 1 + s], s = ceil(log2(sigma)): the sampling error of a
    # mean of contributions grows with that range, so the sample count grows
    # with its square. The factor is 1 at sigma = 2.
    return ((1 + alphabet_bits(alphabet_size)) / 2) ** 2


def additive_sample_count(epsilon: float, alphabet_size: int) -> int:
    return math.ceil(C_Q * _contribution_range_factor(alphabet_size) / epsilon**2)


def bucketed_sample_count(epsilon: float, delta: float) -> int:
    # log factors guarded below 1 so the formula stays meaningful for
    # eps >= 1/2 (the analysis only needs the asymptotic shape).
    l1 = max(1.0, math.log2(1.0 / epsilon))
    l2 = max(1.0, math.log2(max(2.0, l1)))
    base = math.ceil(C_B * l1 * l2 / epsilon)
    amp = math.ceil(math.log2(3.0 / delta))
    return base * max(1, amp)


# -- audit ceilings --------------------------------------------------------


def additive_query_ceiling(epsilon: float, alphabet_size: int) -> float:
    log_term = max(1.0, math.log2(4 * alphabet_size / epsilon))
    return C_ADDITIVE_AUDIT * C_Q * _contribution_range_factor(alphabet_size) * log_term / epsilon**3


def bucketed_query_ceiling(epsilon: float, delta: float, ell0: int) -> float:
    h0 = max(1, math.ceil(math.log2(max(2, ell0))))
    return C_BUCKETED_AUDIT * bucketed_sample_count(epsilon, delta) * h0**2


def search_query_ceiling(n: int, exact_cost: float) -> float:
    return C_SEARCH_AUDIT * (n / max(1.0, exact_cost)) * math.log2(n + 2) ** 3


def lz_query_ceiling(n: int, a_factor: float, epsilon: float) -> float:
    # the window reads lz_estimate draws; it has no constant of its own
    p = LzEstimateParams.derive(a_factor, epsilon, n)
    size = window_pool_size(n, p.ell0, p.B, p.delta)
    return float(n if size is None else size * p.ell0)
