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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rng import derive_seed, make_rng
from .accessor import EstimateReport, QueryCountedString, QuerySession
from .colors import amplification_runs, lower_median, sample_count
from .oracles import distinct_profile
from .suffixes import lcp_at_least_counts


class SharedWindowSamples:
    """Window starts sampled once at length ell0, reused for all shorter lengths.

    Starts are uniform over [1, n - ell0 + 1], so every start is valid for
    every length up to ell0; the length-ell view of a sampled window is just
    its prefix, which costs no extra reads. ``distinct_counts(ell)`` returns
    the number of distinct length-ell prefixes per amplification run. The
    first call sorts all windows once, by run and then lexicographically; in
    that order the LCP of two adjacent windows of one run is their first
    differing column, and a run's distinct length-ell prefixes are its
    window count minus its adjacent pairs with LCP >= ell.
    """

    def __init__(self, session: QuerySession, ell0: int, n_runs: int, per_run: int, seed: int):
        n = session.length
        if not 1 <= ell0 <= n:
            raise ValueError(f"window length {ell0} outside [1, {n}]")
        self.ell0 = int(ell0)
        self.n_runs = int(n_runs)
        self.per_run = int(per_run)
        total = self.n_runs * self.per_run
        rng = make_rng(seed)
        flat = rng.integers(1, n - ell0 + 2, size=total)
        self.starts = flat.reshape(self.n_runs, self.per_run)
        cols = [session.read_many(flat + off) for off in range(self.ell0)]
        window = np.column_stack(cols)
        low = int(window.min())
        # narrow keys let lexsort's stable passes run as radix sorts
        self._rows = (window - low).astype(np.min_scalar_type(int(window.max()) - low))
        self._counts: np.ndarray | None = None

    def run_starts(self, run: int) -> np.ndarray:
        return self.starts[run].copy()

    def distinct_counts(self, ell: int) -> np.ndarray:
        """Distinct length-``ell`` prefixes in each amplification run's sample."""
        if not 1 <= ell <= self.ell0:
            raise ValueError(f"length {ell} outside [1, {self.ell0}]")
        if self._counts is None:
            run_ids = np.arange(self.n_runs, dtype=np.min_scalar_type(self.n_runs - 1))
            run = np.repeat(run_ids, self.per_run)
            order = np.lexsort((*self._rows.T[::-1], run))
            rows = self._rows[order]
            same = rows[1:] == rows[:-1]
            lcp = np.zeros(len(rows), dtype=np.int64)
            lcp[1:] = np.logical_and.accumulate(same, axis=1).sum(axis=1)
            lcp[:: self.per_run] = 0  # first window of each run has no predecessor
            pairs = lcp_at_least_counts(lcp.reshape(self.n_runs, self.per_run), self.ell0)
            self._counts = self.per_run - pairs
        return self._counts[:, ell - 1].copy()


def _distinct_estimates(
    sess: QuerySession, ell0: int, B: float, delta: float, seed: int
) -> np.ndarray:
    """Estimates of d_1..d_ell0 within a factor max(1, B), confidence 1 - delta each.

    Degenerate regimes are answered exactly from a full scan: a requested
    factor B <= 1, or a sample count that already reaches the n - ell0 + 1
    window starts (an exact count is a valid B-estimate for any B >= 1).
    Otherwise each d_ell is the lower median over amplification runs of
    B times the distinct length-ell prefixes in one shared window sample.
    """
    n_virt = sess.length - ell0 + 1
    s = sample_count(n_virt, B) if B > 1 else n_virt
    if B <= 1.0 or s >= n_virt:
        return distinct_profile(sess.read_all(), ell0).astype(np.float64)
    k = amplification_runs(delta)
    shared = SharedWindowSamples(sess, ell0, k, s, seed)
    dhat = np.array(
        [
            lower_median([c * B for c in shared.distinct_counts(ell).tolist()])
            for ell in range(1, ell0 + 1)
        ]
    )
    if sess.queries > k * s * ell0 + 1:
        raise RuntimeError("window sampling read more than its reuse budget")
    return dhat


def estimate_distinct(w, ell: int, B: float, delta: float, *, seed: int = 0) -> float:
    """Estimate d_ell within a factor B, confidence 1 - delta.

    Views each window start as a virtual color and runs the amplified colors
    estimator over the n - ell + 1 virtual positions, falling back to an
    exact scan in the degenerate regimes of :func:`_distinct_estimates`.
    """
    sess = w.session()
    n = sess.length
    if not 1 <= ell <= n:
        raise ValueError(f"length {ell} outside [1, {n}]")
    dhat = _distinct_estimates(sess, ell, B, delta, derive_seed(seed, "windows", ell))
    return float(dhat[ell - 1])


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
    dhat = _distinct_estimates(sess, ell0, params.B, 1.0 / (3.0 * ell0), derive_seed(seed, "windows"))
    mhat = float(max(dhat[ell - 1] / ell for ell in range(1, ell0 + 1)))
    est = mhat * (params.A / max(1.0, params.B)) + epsilon * n
    report = EstimateReport(est, params.A, epsilon, sess.queries, seed)
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
