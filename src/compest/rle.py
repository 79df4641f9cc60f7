"""Sublinear estimators for run-length encoding cost.

Three estimators with different accuracy/query trade-offs, all reading the
input only through a query-counted session:

* :func:`rle_additive_estimate` - additive error eps*n from O~(1/eps^3) reads.
  Samples positions, bounds the length of each sampled run by probing its
  neighbourhood, and averages per-position cost contributions. Runs longer
  than the probe cap are dropped; their per-position contribution is at most
  eps/2, which the cap is chosen to guarantee.
* :func:`rle_bucketed_estimate` - a (3, eps) estimate from O~(1/eps) reads.
  Groups positions into geometric buckets by run length and estimates each
  bucket's population with precision proportional to its weight.
* :func:`rle_multiplicative_search` - a pure 4-multiplicative estimate with
  no additive term, by calling the bucketed estimator with geometrically
  shrinking eps until the implied cost interval is tight. Expected reads
  scale with n / C, so less compressible inputs finish sooner.
  :func:`rle_refined_search` sharpens the factor to (1 + gamma) with
  narrower buckets at a poly(1/gamma) query premium.

Every sampled read goes through one :class:`RunProber` pass per estimate
(one per search round), which probes the runs around all sampled positions
in lockstep, each up to a final cap known before the first read.
Where the sample count reaches n (for the additive estimator, also where n
is at most the probe cap) the estimator reads the whole string instead.

The per-position cost contribution of index t in a run of length ell is
c(t) = (ceil(log2(ell + 1)) + ceil(log2(sigma))) / ell, so that the total
cost equals n times the mean contribution. c is dominated by the
non-increasing envelope (log2(ell + 1) + 1 + s) / ell (it is not itself
monotone: the ceiling jumps at powers of two), which is what lets capped
probes and coarse buckets stand in for exact lengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rng import derive_seed, make_rng
from .accessor import EstimateReport, QueryCountedString, QuerySession
from .config import SEARCH_MAX_ROUNDS, additive_sample_count, bucketed_sample_count
from .oracles import alphabet_bits, ceil_log2, exact_rle_cost, run_lengths


def contribution(length, alphabet_size: int) -> np.ndarray:
    """Per-position cost contribution c(t) for positions in runs of the given length."""
    ln = np.asarray(length, dtype=np.int64)
    return (ceil_log2(ln + 1) + alphabet_bits(alphabet_size)) / ln


def additive_probe_cap(epsilon: float, alphabet_size: int) -> int:
    """Probe cap ell0 = ceil(8 * log2(4*sigma/eps) / eps).

    Positions in runs at least this long are ignored by the additive
    estimator; the cap guarantees their contribution is at most eps/2 each,
    which is asserted on every call rather than trusted.
    """
    ell0 = math.ceil(8.0 * math.log2(4.0 * alphabet_size / epsilon) / epsilon)
    s_bits = alphabet_bits(alphabet_size)
    # c(ell) is not strictly non-increasing (the length ceiling jumps at
    # powers of two), but it is dominated by the non-increasing envelope
    # (log2(ell+1) + 1 + s) / ell; asserting the envelope at ell0 bounds the
    # contribution of every ignored position, not just the one at ell0.
    tail_exact = (int(ceil_log2(np.array([ell0 + 1]))[0]) + s_bits) / ell0
    tail_envelope = (math.log2(ell0 + 1) + 1 + s_bits) / ell0
    if max(tail_exact, tail_envelope) > epsilon / 2:
        raise RuntimeError(
            f"probe cap {ell0} leaves per-position tail {tail_envelope:.4g} > eps/2; "
            "the cap formula is broken"
        )
    return ell0


class RunProber:
    """Batch run-length prober over sampled positions.

    ``advance(caps)`` expands each probe left first, then right, one offset
    at a time, stopping at a run boundary, the string edge, or once ``cap``
    positions of the run are confirmed. All probes advance in lockstep, so
    reads batch into vectorized calls; a step reads one position per probe
    still open, in ascending probe order, and costs O(open probes).

    Take a probe with L matching positions to its left and R to its right,
    and cap C. It reads its own position, then min(L + 1, C - 1) positions
    to the left, stopping early at position 1. It reads to the right only if
    L < C - 1, and then at most C - 1 - L positions. So it reads at most
    C + 1 positions and returns min(L + R + 1, C), both fixed by C alone:
    walking it through smaller caps first would read nothing else.
    """

    def __init__(self, session: QuerySession, positions: np.ndarray):
        self.sess = session
        self.t = np.asarray(positions, dtype=np.int64)
        self.sym = session.read_many(self.t) if self.t.size else np.empty(0)

    def _scan(self, limit: np.ndarray, step: int) -> np.ndarray:
        """Matching positions next to each probe in direction ``step`` (-1 or
        +1), counting at most ``limit`` of them per probe."""
        ext = np.zeros(self.t.size, dtype=np.int64)
        edge = 1 if step < 0 else self.sess.length
        idx = np.flatnonzero((self.t != edge) & (limit > 0))
        while idx.size:
            pos = self.t[idx] + step * (ext[idx] + 1)
            match = self.sess.read_many(pos) == self.sym[idx]
            idx, pos = idx[match], pos[match]
            ext[idx] += 1
            idx = idx[(pos != edge) & (ext[idx] < limit[idx])]
        return ext

    def advance(self, caps) -> np.ndarray:
        """min(run length, cap) for each probe, for one cap or one cap per probe."""
        caps = np.broadcast_to(np.asarray(caps, dtype=np.int64), self.t.shape)
        left = self._scan(caps - 1, -1)
        return left + self._scan(caps - 1 - left, 1) + 1


def rle_additive_estimate(w: QueryCountedString, epsilon: float, seed: int) -> EstimateReport:
    """Estimate the RLE cost to within an additive eps*n, claiming (1, eps).

    Degenerate inputs (n below the probe cap, or sample count at least n)
    fall back to an exact scan; sublinearity is meaningless below the budget.
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be in (0, 1)")
    n = w.length
    sigma = w.alphabet_size
    ell0 = additive_probe_cap(epsilon, sigma)
    q = additive_sample_count(epsilon, sigma)
    sess = w.session()
    if n <= ell0 or q >= n:
        est = float(exact_rle_cost(sess.read_all(), sigma).total_cost)
    else:
        conf = RunProber(sess, make_rng(seed).integers(1, n + 1, size=q)).advance(ell0)
        contrib = np.where(conf >= ell0, 0.0, contribution(np.maximum(conf, 1), sigma))
        est = float(n * contrib.mean())
    used = sess.queries
    if used > additive_query_ceiling(epsilon, sigma):
        raise RuntimeError("probe budget exceeded; prober is broken")
    return EstimateReport(est, 1.0, epsilon, used, seed)


def additive_query_ceiling(epsilon: float, alphabet_size: int) -> float:
    """Reads of :func:`rle_additive_estimate`: q probes of <= ell0 + 1, or n <= max(q, ell0)."""
    ell0 = additive_probe_cap(epsilon, alphabet_size)
    return float(additive_sample_count(epsilon, alphabet_size) * (ell0 + 1))


@dataclass(frozen=True)
class BucketRow:
    h: int
    low: float        # run lengths in [low, high) land in the bucket
    high: float
    cap: int          # probe cap that decides membership
    weight: float     # cost estimate per position in the bucket
    q_h: int
    hits: int

    @property
    def beta(self) -> float:
        return self.hits / self.q_h if self.q_h else 0.0


@dataclass(frozen=True)
class BucketTable:
    """Per-bucket sampling record for the bucketed estimator.

    In the sampled regime the sample counts obey
    q_h = min(q, ceil(q * weight_h)); when the estimator degenerates to a
    full scan (``exact_mode``) q_h is the full population n instead.
    """

    h0: int
    s_bits: int
    q: int
    rows: tuple
    exact_mode: bool = False

    def validate(self) -> None:
        for row in self.rows:
            if not 0.0 <= row.beta <= 1.0:
                raise AssertionError(f"beta out of range in bucket {row.h}")
            if not self.exact_mode:
                expect = min(self.q, math.ceil(self.q * row.weight))
                if row.q_h != expect:
                    raise AssertionError(f"bucket {row.h}: q_h {row.q_h} != {expect}")


def _geometric_buckets(ell0: int, s_bits: int, ratio: float) -> list[tuple[int, float, float, int, float]]:
    """Rows (h, low, high, cap, weight) for the run lengths in [ratio^(h-1), ratio^h),
    h = 1..ceil(log_ratio(ell0)); ``cap = ceil(high)`` is the smallest probe
    cap that leaves every run length in the bucket below it."""
    # log2 keeps h0 = ceil(log2(ell0)) exact at ratio 2; ceil(log(2^31) / log(2)) is 32
    h0 = math.ceil(math.log2(ell0) / math.log2(ratio))
    out = []
    for h in range(1, h0 + 1):
        low = ratio ** (h - 1)
        high = ratio**h
        lmin = math.ceil(low)
        if lmin >= high:  # no integer run length falls in this bucket
            continue
        cap = math.ceil(high)
        weight = float((int(ceil_log2(np.array([lmin + 1]))[0]) + s_bits) / lmin)
        out.append((h, low, high, cap, weight))
    return out


def _bucket_plan(
    epsilon: float, delta: float, alphabet_size: int, ratio: float = 2.0, q_scale: float = 1.0
) -> tuple[list, int]:
    """Buckets and sample count q of one bucketed round at (epsilon, delta)."""
    ell0 = additive_probe_cap(epsilon, alphabet_size)
    buckets = _geometric_buckets(ell0, alphabet_bits(alphabet_size), ratio)
    return buckets, math.ceil(bucketed_sample_count(epsilon, delta) * q_scale)


def _probe_caps(buckets: list, q: int) -> tuple[list[int], np.ndarray]:
    """Sample counts q_h = min(q, ceil(q * weight_h)) and each probe's final cap."""
    q_hs = [min(q, math.ceil(q * weight)) for *_, weight in buckets]
    caps = np.zeros(q, dtype=np.int64)
    for (*_, cap, weight), q_h in zip(buckets, q_hs):
        caps[:q_h] = cap  # caps rise with h: each probe keeps its last bucket's
    return q_hs, caps


def bucketed_query_ceiling(epsilon: float, delta: float, alphabet_size: int) -> float:
    """Reads of :func:`rle_bucketed_estimate`: q plus the probes' final caps, or n <= q."""
    buckets, q = _bucket_plan(epsilon, delta, alphabet_size)
    return float(q + _probe_caps(buckets, q)[1].sum())


def _bucketed_core(
    sess: QuerySession,
    buckets: list,
    q: int,
    seed: int,
) -> tuple[float, BucketTable, int]:
    """Shared engine for the factor-2 and refined bucketed estimators.

    Returns (estimate, table, bound on the reads). Degenerates to an exact scan
    (bound n) when the sample count reaches the string length; the scan
    classifies every position, so each beta_h is the true bucket fraction and
    the output lands within a factor of the bucket width of the true cost.
    """
    n = sess.length
    s_bits = alphabet_bits(sess.alphabet_size)
    h0 = max((h for h, *_ in buckets), default=0)
    rows = []
    if q >= n:
        data = sess.read_all()
        _, lens = run_lengths(data)
        est = 0.0
        for h, low, high, cap, weight in buckets:
            hits = int(lens[(lens >= low) & (lens < high)].sum())
            est += (hits / n) * n * weight
            rows.append(BucketRow(h, low, high, cap, weight, q_h=n, hits=hits))
        table = BucketTable(h0=h0, s_bits=s_bits, q=q, rows=tuple(rows), exact_mode=True)
        table.validate()
        return est, table, n

    q_hs, caps = _probe_caps(buckets, q)
    conf = RunProber(sess, make_rng(seed).integers(1, n + 1, size=q)).advance(caps)
    est = 0.0
    for (h, low, high, cap, weight), q_h in zip(buckets, q_hs):
        # high <= cap <= the probe's cap, so a length below high is exact
        hits = int(np.count_nonzero((conf[:q_h] >= math.ceil(low)) & (conf[:q_h] < high)))
        est += (n / q_h) * hits * weight
        rows.append(BucketRow(h, low, high, cap, weight, q_h=q_h, hits=hits))
    table = BucketTable(h0=h0, s_bits=s_bits, q=q, rows=tuple(rows), exact_mode=False)
    table.validate()
    return est, table, q + int(caps.sum())


def rle_bucketed_estimate_detailed(
    w: QueryCountedString, epsilon: float, delta: float, seed: int
) -> tuple[EstimateReport, BucketTable]:
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be in (0, 1)")
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    sess = w.session()
    plan = _bucket_plan(epsilon, delta, sess.alphabet_size)
    est, table, bound = _bucketed_core(sess, *plan, seed)
    used = sess.queries
    if used > bound:
        raise RuntimeError("bucketed probes read past their caps; prober is broken")
    return EstimateReport(est, 3.0, epsilon, used, seed, confidence=1.0 - delta), table


def rle_bucketed_estimate(
    w: QueryCountedString, epsilon: float, delta: float, seed: int
) -> EstimateReport:
    """Bucketed (3, eps)-estimate of the RLE cost, confidence 1 - delta."""
    report, _ = rle_bucketed_estimate_detailed(w, epsilon, delta, seed)
    return report


@dataclass(frozen=True)
class SearchRound:
    j: int
    epsilon: float
    delta: float
    estimate: float
    lower: float
    upper: float


@dataclass(frozen=True)
class SearchTrace:
    rounds: tuple
    report: EstimateReport


def _interval_search(
    w: QueryCountedString,
    seed: int,
    *,
    ratio: float,
    q_scale: float,
    shrink: float,
    grow: float,
    stop_ratio: float,
    claim_lam: float,
) -> SearchTrace:
    """Shared search loop: call the bucketed estimator with eps_j = 2^-j and
    delta_j = (1/3) * 2^-j, convert each (factor, additive) estimate into a
    cost interval [lower, upper], and stop once the interval ratio is below
    ``stop_ratio``. A non-positive lower end means the ratio is treated as
    infinite and the loop continues. The output sqrt(lower * upper) is then
    within sqrt(stop_ratio) of the cost whenever every interval was valid.
    """
    n = w.length
    sess = w.session()
    rounds = []
    budget = 0
    for j in range(1, SEARCH_MAX_ROUNDS + 1):
        eps_j = 2.0**-j
        delta_j = (1.0 / 3.0) * 2.0**-j
        plan = _bucket_plan(eps_j, delta_j, sess.alphabet_size, ratio, q_scale)
        est, _, bound = _bucketed_core(sess, *plan, derive_seed(seed, j))
        budget += bound
        lower = (est - eps_j * n) * shrink
        upper = (est + eps_j * n) * grow
        rounds.append(SearchRound(j, eps_j, delta_j, est, lower, upper))
        if lower > 0 and upper / lower <= stop_ratio:
            used = sess.queries
            if used > budget:
                raise RuntimeError("search probes read past their caps; prober is broken")
            out = math.sqrt(lower * upper)
            report = EstimateReport(out, claim_lam, 0.0, used, seed)
            return SearchTrace(rounds=tuple(rounds), report=report)
    raise RuntimeError("cost search did not converge; this should be impossible")


def rle_multiplicative_search_detailed(w: QueryCountedString, seed: int) -> SearchTrace:
    return _interval_search(
        w,
        seed,
        ratio=2.0,
        q_scale=1.0,
        shrink=1.0 / 3.0,
        grow=3.0,
        stop_ratio=16.0,
        claim_lam=4.0,
    )


def rle_multiplicative_search(w: QueryCountedString, seed: int) -> EstimateReport:
    """Pure 4-multiplicative estimate of the RLE cost (no additive slack)."""
    return rle_multiplicative_search_detailed(w, seed).report


def rle_refined_search_detailed(w: QueryCountedString, gamma: float, seed: int) -> SearchTrace:
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    ratio = 1.0 + gamma / 2.0
    # Per-bucket population estimates aim for relative error eta; the clamp
    # keeps the interval arithmetic sane for very loose gamma.
    eta = min(gamma / 8.0, 0.4)
    # Narrower buckets mean more of them and tighter per-bucket estimates:
    # scale the sample count by (1/2 / eta)^2 relative to the factor-2
    # buckets' baseline deviation of 1/2, and by the bucket-count growth.
    q_scale = (0.5 / eta) ** 2 * max(1.0, 1.0 / math.log2(ratio))
    stop_ratio = (1.0 + gamma) ** 2
    # Interval validity: estimate <= ratio*(1+eta)*C + eps*n and
    # estimate >= (1-eta)*C - eps*n, so the cost interval is
    # [(est - eps*n) / (ratio*(1+eta)), (est + eps*n) / (1-eta)].
    # ratio*(1+eta)/(1-eta) < (1+gamma)^2 for every gamma > 0, so the loop
    # terminates once eps_j is small against C/n.
    return _interval_search(
        w,
        seed,
        ratio=ratio,
        q_scale=q_scale,
        shrink=1.0 / (ratio * (1.0 + eta)),
        grow=1.0 / (1.0 - eta),
        stop_ratio=stop_ratio,
        claim_lam=1.0 + gamma,
    )


def rle_refined_search(w: QueryCountedString, gamma: float, seed: int) -> EstimateReport:
    """(1 + gamma)-multiplicative estimate via narrower run-length buckets."""
    return rle_refined_search_detailed(w, gamma, seed).report
