"""Tunable constants and query-budget ceilings, in one place.

The sampling theorems fix only asymptotics; the concrete constants below are
calibration choices, frozen here so every budget assertion in the package and
the test suite reads the same numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .lz import LzEstimateParams, window_pool_size


@dataclass(frozen=True)
class EstimatorConfig:
    # Sample-count constants.
    c_q: float = 8.0   # additive RLE estimator: q = ceil(c_q / eps^2)
    c_b: float = 64.0  # bucketed RLE estimator: q = ceil(c_b * log(1/eps) * loglog(1/eps) / eps)

    # Query-ceiling constants for auditing measured reads against the
    # documented asymptotic budgets.
    c_additive_audit: float = 20.0  # x c_q * log2(4*sigma/eps) / eps^3
    c_bucketed_audit: float = 8.0   # x q * h0^2
    c_search_audit: float = 4.0     # x (n / C) * log2(n + 2)^3, expected reads of the search

    # Safety cap on search iterations (termination is guaranteed well below
    # this for any nonempty input; the cap only catches bugs).
    search_max_rounds: int = 64

    # -- derived sample counts -------------------------------------------

    def additive_sample_count(self, epsilon: float) -> int:
        return math.ceil(self.c_q / epsilon**2)

    def bucketed_sample_count(self, epsilon: float, delta: float) -> int:
        # log factors guarded below 1 so the formula stays meaningful for
        # eps >= 1/2 (the analysis only needs the asymptotic shape).
        l1 = max(1.0, math.log2(1.0 / epsilon))
        l2 = max(1.0, math.log2(max(2.0, l1)))
        base = math.ceil(self.c_b * l1 * l2 / epsilon)
        amp = math.ceil(math.log2(3.0 / delta))
        return base * max(1, amp)

    # -- audit ceilings ----------------------------------------------------

    def additive_query_ceiling(self, epsilon: float, alphabet_size: int) -> float:
        log_term = max(1.0, math.log2(4 * alphabet_size / epsilon))
        return self.c_additive_audit * self.c_q * log_term / epsilon**3

    def bucketed_query_ceiling(self, epsilon: float, delta: float, ell0: int) -> float:
        h0 = max(1, math.ceil(math.log2(max(2, ell0))))
        return self.c_bucketed_audit * self.bucketed_sample_count(epsilon, delta) * h0**2

    def search_query_ceiling(self, n: int, exact_cost: float) -> float:
        return self.c_search_audit * (n / max(1.0, exact_cost)) * math.log2(n + 2) ** 3

    def lz_query_ceiling(self, n: int, a_factor: float, epsilon: float) -> float:
        # the window reads lz_estimate draws; it has no constant of its own
        p = LzEstimateParams.derive(a_factor, epsilon, n)
        size = window_pool_size(n, p.ell0, p.B, p.delta)
        return float(n if size is None else size * p.ell0)


DEFAULT_CONFIG = EstimatorConfig()
