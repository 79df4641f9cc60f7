"""Sublinear estimator for greedy-LZ77 cost.

The LZ cost of a string is sandwiched by its substring diversity: with
m = max over ell <= ell0 of d_ell / ell (d_ell = distinct length-ell
substrings),

    m  <=  C_lz  <=  4 * (m * log2(ell0) + n / ell0).

So estimating d_ell for all small ell pins C_lz down to a combined
multiplicative/additive factor. Each d_ell is estimated by the colors
sampler over virtual positions (window starts), with one crucial
implementation point: the window starts are drawn once, against the longest
length ell0, and every shorter length reuses prefixes of the same windows,
so the total read cost is one window-read per sample rather than one per
(sample, length) pair. Distinct prefixes are counted for every length at
once by one sort of the sampled windows, with the suffix-array identity the
exact oracle uses: d_ell = windows - #(sort-adjacent pairs with LCP >= ell).

Confidence needs no union bound over the ell0 lengths. A pool holds no
more distinct prefixes than the string, so B * count_ell <= B * d_ell on
every run, and the estimate max over ell of B * count_ell / ell never exceeds
B * m. Its lower side, mhat >= m / B, holds whenever the one length ell* that
attains m (fixed by the input, not by the sample) has
count_ell* >= d_ell* / B^2, which one basic sample size of windows gives with
probability 2/3. So the pool holds one basic sample size, the report's own
confidence. estimate_distinct claims 1 - delta for its one length and pools
amplification_runs(delta) of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rng import derive_seed, make_rng
from .accessor import EstimateReport, QueryCountedString, QuerySession, ReadPlan
from .colors import amplification_runs, pool_size
from .oracles import distinct_profile
from .suffixes import lcp_at_least_counts, symbol_ranks, word_lcps


def _word_lcps(words: np.ndarray, width: int, bits: int) -> np.ndarray:
    """:func:`compest.suffixes.word_lcps` of each pair of adjacent sorted words."""
    return word_lcps(words[1:], words[:-1], width, bits)


class SharedWindowSamples:
    """One pool of window starts sampled at length ell0, reused for all shorter lengths.

    Starts are uniform over [1, n - ell0 + 1], so every start is valid for
    every length up to ell0; the length-ell view of a sampled window is just
    its prefix, which costs no extra reads. ``distinct_counts(ell)`` returns
    the number of distinct length-ell prefixes in the pool. The windows hold
    the dense ranks of the pool's alphabet. The first call sorts the windows
    lexicographically once: as one packed uint64 word each when a window
    fits in 64 bits, where the highest set bit of the XOR of two adjacent
    words gives their LCP, and column by column otherwise, where the LCP is
    the first differing column. The distinct length-ell prefixes are the
    window count minus the adjacent pairs with LCP >= ell.
    """

    def __init__(self, session: QuerySession, ell0: int, size: int, seed: int):
        n = session.length
        if not 1 <= ell0 <= n:
            raise ValueError(f"window length {ell0} outside [1, {n}]")
        self.ell0 = int(ell0)
        self.starts = make_rng(seed).integers(1, n - ell0 + 2, size=int(size))
        self.starts.flags.writeable = False
        positions = self.starts[:, None] + np.arange(self.ell0)
        window = session.read_many(positions.ravel())
        sym, sigma = symbol_ranks(window)
        top = max(sigma - 1, 0)
        self._bits = max(1, top.bit_length())
        self._rows = sym.astype(np.min_scalar_type(top), copy=False).reshape(positions.shape)
        self._counts: np.ndarray | None = None

    def distinct_counts(self, ell: int) -> int:
        """Distinct length-``ell`` prefixes among the pooled windows."""
        if not 1 <= ell <= self.ell0:
            raise ValueError(f"length {ell} outside [1, {self.ell0}]")
        if self._counts is None:
            rows, bits = self._rows, self._bits
            if self.ell0 * bits <= 64:
                words = np.zeros(len(rows), dtype=np.uint64)
                for column in rows.T:
                    words <<= bits
                    words |= column
                words.sort()
                lcp = _word_lcps(words, self.ell0, bits)
            else:
                rows = rows[np.lexsort(rows.T[::-1])]
                lcp = np.logical_and.accumulate(rows[1:] == rows[:-1], axis=1).sum(axis=1)
            self._counts = len(rows) - lcp_at_least_counts(lcp, self.ell0)
        return int(self._counts[ell - 1])


def window_plan(n: int, ell0: int, B: float, delta: float = 1 / 3) -> ReadPlan:
    """Windows of ell0 reads for factor B, confidence 1 - delta per length, or
    a scan where the pool's window reads would reach n, so a sampled bound is
    below n (an exact count is a valid B-estimate for any B >= 1)."""
    if B > 1.0:
        size = pool_size(n - ell0 + 1, B, amplification_runs(delta))
        if size * ell0 < n:
            return ReadPlan(False, size, size * ell0)
    return ReadPlan(True, 0, n)


def _distinct_estimates(
    sess: QuerySession, ell0: int, B: float, seed: int, delta: float = 1 / 3
) -> tuple[np.ndarray, int]:
    """Estimates of d_1..d_ell0 within a factor max(1, B), confidence 1 - delta
    each, and the reads they took.

    The exact lane of :func:`window_plan` is answered from a full scan.
    Otherwise each d_ell is B times the distinct length-ell prefixes in one
    shared pool of amplification_runs(delta) basic sample sizes of windows.
    No estimate exceeds B * d_ell. One fails low only if each of the k
    independent basic samples in the pool would, so with probability at most
    3^-k <= delta; the LZ estimate needs this for one length only.
    """
    plan = window_plan(sess.length, ell0, B, delta)

    def sampled():
        shared = SharedWindowSamples(sess, ell0, plan.draws, seed)
        return B * np.array([shared.distinct_counts(ell) for ell in range(1, ell0 + 1)], dtype=np.float64)

    return plan.run(sess, sampled, lambda symbols: distinct_profile(symbols, ell0).astype(np.float64))


def estimate_distinct(w, ell: int, B: float, delta: float, *, seed: int = 0) -> EstimateReport:
    """Estimate d_ell within a factor max(1, B), confidence 1 - delta.

    Views each window start as a virtual color and runs the pooled colors
    estimator over the n - ell + 1 virtual positions, falling back to an
    exact scan on the exact lane of :func:`window_plan`, whose exact
    count meets lambda = 1. The report claims (max(1, B), 0), and its
    ``queries_used`` is the distinct positions the run read.
    """
    sess = w.session()
    n = sess.length
    if not 1 <= ell <= n:
        raise ValueError(f"length {ell} outside [1, {n}]")
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    dhat, used = _distinct_estimates(sess, ell, B, derive_seed(seed, "windows", ell), delta)
    return EstimateReport(float(dhat[ell - 1]), max(1.0, B), 0.0, used, seed, confidence=1.0 - delta)


@dataclass(frozen=True)
class LzEstimateParams:
    """Derived parameters of one estimator run.

    ell0 = ceil(2 / (A * epsilon)) (clamped to n) is the largest substring
    length whose diversity is estimated; B = A / (2 * sqrt(log2(2/(A*eps))))
    is the per-length multiplicative target handed to the colors machinery.
    """

    A: float
    epsilon: float
    ell0: int
    B: float

    @staticmethod
    def derive(A: float, epsilon: float, n: int) -> "LzEstimateParams":
        if A <= 1:
            raise ValueError("A must be > 1")
        if not 0 < epsilon < 1:
            raise ValueError("epsilon must be in (0, 1)")
        if A * epsilon >= 2:
            raise ValueError("need A * epsilon < 2")
        raw = 2.0 / (A * epsilon)
        ell0 = min(math.ceil(raw), n)
        return LzEstimateParams(A, epsilon, ell0, A / (2.0 * math.sqrt(math.log2(raw))))


def lz_estimate_detailed(
    w: QueryCountedString, A: float, epsilon: float, seed: int
) -> tuple[EstimateReport, LzEstimateParams, np.ndarray]:
    n = w.length
    params = LzEstimateParams.derive(A, epsilon, n)
    sess = w.session()
    ell0 = params.ell0
    dhat, used = _distinct_estimates(sess, ell0, params.B, derive_seed(seed, "windows"))
    mhat = float(max(dhat[ell - 1] / ell for ell in range(1, ell0 + 1)))
    est = mhat * (params.A / max(1.0, params.B)) + epsilon * n
    report = EstimateReport(est, params.A, epsilon, used, seed)
    return report, params, dhat


def lz_estimate(w: QueryCountedString, A: float, epsilon: float, seed: int) -> EstimateReport:
    """(A, epsilon)-estimate of the greedy-LZ77 symbol count of ``w``."""
    report, _, _ = lz_estimate_detailed(w, A, epsilon, seed)
    return report


@dataclass(frozen=True)
class DistinguishResult:
    verdict: str  # "LOW" (compressible side) or "HIGH"
    report: EstimateReport
    midpoint: float
    A: float
    epsilon: float
    threshold_lo: float
    threshold_hi: float

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "midpoint": float(self.midpoint),
            "A": float(self.A),
            "epsilon": float(self.epsilon),
            "threshold_lo": float(self.threshold_lo),
            "threshold_hi": float(self.threshold_hi),
            "report": self.report.to_json_dict(),
        }


def distinguish_compressible(
    w: QueryCountedString,
    threshold_lo: float,
    threshold_hi: float,
    seed: int,
) -> DistinguishResult:
    """Decide whether the LZ cost looks <= threshold_lo or >= threshold_hi.

    Instantiates the estimator with A = sqrt(hi/lo) / 2 and
    epsilon = lo * A / n, then compares the estimate against the geometric
    midpoint of the contract-adjusted thresholds (A*lo + eps*n on the low
    side, hi/A - eps*n on the high side). Inputs whose true cost lies
    strictly between the thresholds carry no promise and may land either way.

    At lo = sqrt(n), hi = n/4 (the README example): A = n^(1/4) / 4 and
    A * eps = 1/16, so ell0 = 32 (33 where float rounding lands just above
    32) and B = n^(1/4) / (8 sqrt(5)). B < 1 for n < 1.0e5, and one basic
    sample of windows plans about 320 n / B^2 reads, at least n while
    B^2 <= 320, up to about n = 1e10. So such calls take the exact lane of
    :func:`window_plan`: the distinct profile up to length 32, a prefix
    doubling stopped at length 32. On a binary string its first sort packs 16
    symbols per position, so one pair round finishes it.
    """
    n = w.length
    if not 1 <= threshold_lo < threshold_hi <= n:
        raise ValueError("need 1 <= threshold_lo < threshold_hi <= n")
    a_factor = math.sqrt(threshold_hi / threshold_lo) / 2.0
    if a_factor <= 1.0:
        raise ValueError("gap too small: threshold ratio must exceed 4")
    epsilon = threshold_lo * a_factor / n
    report = lz_estimate(w, a_factor, epsilon, seed)
    lo_adj = a_factor * threshold_lo + epsilon * n
    hi_adj = threshold_hi / a_factor - epsilon * n
    midpoint = math.sqrt(lo_adj * hi_adj)
    verdict = "LOW" if report.estimate < midpoint else "HIGH"
    return DistinguishResult(
        verdict=verdict,
        report=report,
        midpoint=midpoint,
        A=a_factor,
        epsilon=epsilon,
        threshold_lo=threshold_lo,
        threshold_hi=threshold_hi,
    )
