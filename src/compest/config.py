"""Tunable constants, sample counts and the search's audit ceiling, in one place.

The sampling theorems fix only asymptotics; the constants below are calibration
choices. The read bounds that RLE and LZ runs assert are derived from these
sample counts next to each estimator; only the search's ceiling is audit-only.
"""

from __future__ import annotations

import math

from .oracles import alphabet_bits

# Sample-count constants.
C_Q = 8.0   # additive RLE estimator: q = ceil(C_Q * ((1 + s) / 2)^2 / eps^2)
C_B = 64.0  # bucketed RLE estimator: q = ceil(C_B * log(1/eps) * loglog(1/eps) / eps)

C_SEARCH_AUDIT = 4.0  # x (n / C) * log2(n + 2)^3: the search's expected reads, audit only

# Safety cap on search iterations (termination is guaranteed well below this
# for any nonempty input; the cap only catches bugs).
SEARCH_MAX_ROUNDS = 64


# -- derived sample counts -----------------------------------------------


def additive_sample_count(epsilon: float, alphabet_size: int) -> int:
    # c(t) lies in (0, 1 + s], s = ceil(log2(sigma)): the sampling error of a
    # mean of contributions grows with that range, so the sample count grows
    # with its square. The factor is 1 at sigma = 2.
    range_factor = ((1 + alphabet_bits(alphabet_size)) / 2) ** 2
    return math.ceil(C_Q * range_factor / epsilon**2)


def bucketed_sample_count(epsilon: float, delta: float) -> int:
    # log factors guarded below 1 so the formula stays meaningful for
    # eps >= 1/2 (the analysis only needs the asymptotic shape).
    l1 = max(1.0, math.log2(1.0 / epsilon))
    l2 = max(1.0, math.log2(max(2.0, l1)))
    base = math.ceil(C_B * l1 * l2 / epsilon)
    amp = math.ceil(math.log2(3.0 / delta))
    return base * max(1, amp)


# -- audit ceiling ---------------------------------------------------------


def search_query_ceiling(n: int, exact_cost: float) -> float:
    return C_SEARCH_AUDIT * (n / max(1.0, exact_cost)) * math.log2(n + 2) ** 3
