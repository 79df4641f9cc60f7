"""Sublinear estimators for run-length encoding cost.

Three estimators with different accuracy/query trade-offs, all reading the
input only through a query-counted session:

* :func:`rle_additive_estimate` - additive error eps*n from O~(1/eps^3) reads.
  Samples positions, bounds the length of each sampled run by probing its
  neighbourhood, and averages per-position cost contributions. Runs longer
  than the probe cap are dropped; their per-position contribution is at most
  eps/2, which the cap is chosen to guarantee.
* :func:`rle_bucketed_estimate` - a (3, eps) estimate from O~(1/eps) reads.
  Groups sampled positions into geometric buckets by run length and
  estimates each bucket's population with precision proportional to its
  weight.
* :func:`rle_multiplicative_search` - a pure 4-multiplicative estimate with
  no additive term, by calling the bucketed estimator with geometrically
  shrinking eps until the implied cost interval is tight. Expected reads
  scale with n / C, so less compressible inputs finish sooner.
  :func:`rle_refined_search` sharpens the factor to (1 + gamma) with
  narrower buckets at a poly(1/gamma) query premium.

Each estimate (each search round) first fixes its plan (:func:`additive_plan`,
:func:`bucketed_plan`): a scan, or one :class:`RunProber` pass over sampled
positions, and the read bound that the run asserts and the audit reports.
The pass probes the runs around all sampled positions, each up to a final
cap known before the first read. Probes first step in lockstep; those still
open then walk on in order, in blocks that double each round, so a walk
takes O(log cap) rounds. Each heads for a target fixed before the walk, the
nearest open probe ahead with a cap at least its own, which walks at least
as deep; a walk that reaches it stops there, so probes with one cap read a
long run about once, not once per probe. A plan scans once its
sample count reaches ``SCAN_SHARE * n`` (additive: also once n is at most
the probe cap). A search reads through a session budgeted at that share and
scans in one of three ways: its round plans a scan; after a round, its
reads so far plus those forecast up to the round that would close reach the
budget (a first round forecasts itself from a pilot of its draws); or its
reads pass the budget mid-round. It skips the rounds whose interval cannot
close. Every run takes its lane in :meth:`ReadPlan.run`. Every scan, of any
estimator or search round, is one ``read_all`` and one chunked
:func:`rle_total_cost` pass over the runs, with no columns, and reports the
exact cost: it keeps any (lambda, eps) claim at confidence 1.

The per-position cost contribution of index t in a run of length ell is
c(t) = (ceil(log2(ell + 1)) + ceil(log2(sigma))) / ell, so that the total
cost equals n times the mean contribution. c is dominated by the
non-increasing envelope (log2(ell + 1) + 1 + s) / ell (it is not itself
monotone: the ceiling jumps at powers of two), which is what lets capped
probes and coarse buckets stand in for exact lengths.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._rng import derive_seed, make_rng
from .accessor import EstimateReport, QueryCountedString, QuerySession, ReadBudgetSpent, ReadPlan
from .oracles import alphabet_bits, ceil_log2, rle_total_cost

# The sampling theorems fix only asymptotics; the constants below are
# calibration choices. Each run asserts the read bound of its plan, and the
# campaign audit reports that same bound; only the search's audit ceiling
# has a formula of its own.
C_Q = 8.0   # additive RLE estimator: q = ceil(C_Q * ((1 + s) / 2)^2 / eps^2)
C_B = 64.0  # bucketed RLE estimator: q = ceil(C_B * log(1/eps) * loglog(1/eps) / eps)

C_SEARCH_AUDIT = 4.0  # x (n / C) * log2(n + 2)^3: the search's expected reads, audit only

# Planned draws at which a run scans instead, and a search's read budget,
# past which it stops sampling mid-round and scans: past a quarter of n a
# sampled pass reads most of n anyway, at several times the cost of one scan.
SCAN_SHARE = 0.25

# A search's first sampled round, which has no earlier round's reads per draw
# to forecast from, probes a pilot first if its bound could pass the budget:
# every stride-th draw, the stride putting the pilot's bound near this share
# of the budget left, so that the pilot costs a small part of a scan.
PILOT_SHARE = 1 / 16

# Safety cap on search iterations (termination is guaranteed well below this
# for any nonempty input; the cap only catches bugs).
SEARCH_MAX_ROUNDS = 64


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


def contribution(length, alphabet_size: int) -> np.ndarray:
    """Per-position cost contribution c(t) for positions in runs of the given length."""
    ln = np.asarray(length, dtype=np.int64)
    return (ceil_log2(ln + 1) + alphabet_bits(alphabet_size)) / ln


def additive_probe_cap(epsilon: float, alphabet_size: int) -> int:
    """Probe cap ell0 = ceil(8 * log2(4*sigma/eps) / eps), for eps in (0, 1).

    Positions in runs at least this long are ignored by the additive
    estimator; the cap guarantees their contribution is at most eps/2 each,
    which is asserted on every call rather than trusted.
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be in (0, 1)")
    ell0 = math.ceil(8.0 * math.log2(4.0 * alphabet_size / epsilon) / epsilon)
    s_bits = alphabet_bits(alphabet_size)
    # c(ell) is not strictly non-increasing (the length ceiling jumps at
    # powers of two), but it is dominated by the non-increasing envelope
    # (log2(ell+1) + 1 + s) / ell; asserting the envelope at ell0 bounds the
    # contribution of every ignored position, not just the one at ell0.
    tail_exact = (ell0.bit_length() + s_bits) / ell0  # ceil(log2(ell0 + 1)) = bit_length(ell0)
    tail_envelope = (math.log2(ell0 + 1) + 1 + s_bits) / ell0
    if max(tail_exact, tail_envelope) > epsilon / 2:
        raise RuntimeError(
            f"probe cap {ell0} leaves per-position tail {tail_envelope:.4g} > eps/2; "
            "the cap formula is broken"
        )
    return ell0


# Steps each side takes in lockstep before the probes still open are sorted
# to walk on. The sort and the walk's per-event bookkeeping pay only for
# longer walks: at 8, the runs of random binary, coin and run-mix inputs (all
# but a few shorter than 9) end in the lockstep and pay for no sort. Each
# lockstep step costs a long run one read per probe inside it. Against 4 and
# 12 (rle-probe op set, n = 1e6, best of 3 cycles, two seeds): at 4 the op
# set took 5-7% more time, run-mix's search and refined ops 25-30% more; 12
# was no faster. Taking these steps as doubling blocks (1, 2, 4, 1), or no
# lockstep at all, was slower too: coin's and run-mix's searches took 13% and
# 30% more, or 124% and 140% (seed 27001): a block past a short run compares
# positions that one step at a time would not.
LOCKSTEP_STEPS = 8


class RunProber:
    """Batch run-length prober over sampled positions.

    ``advance(caps)`` finds, for each probe, how far its run extends left
    and then right, stopping at a run boundary, the string edge, or once
    ``cap`` positions of the run are confirmed. Each side first takes
    ``LOCKSTEP_STEPS`` steps in lockstep: a step reads the next position of
    every probe still open, in one vectorized call, and costs O(open
    probes). The probes still open after that are sorted by position, and
    each is given its target before the first walk round: the nearest open
    probe ahead of it whose cap is at least its own. A walk round makes one
    :meth:`QuerySession.match_run` call, with one block per walker: as long
    as the stretch it has matched so far, so that blocks double, but never
    past its next event (its limit, the string's edge, or its target's known
    stretch). A walk thus takes O(log cap) rounds, not O(cap); on a
    provider-backed string, whose block is one position, one round per
    position. A walker whose reads all match up to its target's known
    stretch is in the target's run, and it rides the target: it stops, and
    its extent becomes the target's plus the distance between them, up to
    its own limit. The target, d ahead with cap C' >= the walker's C, walks
    at least as deep: on the left side C' - 1 past its start against C - 1;
    on the right, an open walker's left extent L is uncapped, so the
    target's L' is at most L + d, and C' - 1 - L' from d ahead reaches as
    far as C - 1 - L. So no walk stops at a probe with a smaller cap.

    Take a probe with L matching positions to its left and R to its right,
    and cap C. Walking alone, it reads its own position, then
    min(L + 1, C - 1) positions to the left, stopping early at position 1.
    It reads to the right only if L < C - 1, and then at most C - 1 - L
    positions. So it reads at most C + 1 positions and returns
    min(L + R + 1, C), both fixed by C alone: walking it through smaller caps
    first would read nothing else. A pass touches exactly the union of these
    solo walks' reads: a walker reads only what its solo walk reads (a block
    counts only the positions up to its first mismatch), and a rider leaves
    unread only what its target's walk reads or had read. Riding and blocks
    change only which probe asks for a position, how often, and in how many
    calls.
    """

    def __init__(self, session: QuerySession, positions: np.ndarray):
        self.sess = session
        self.t = np.asarray(positions, dtype=np.int64)
        self.sym = session.read_many(self.t) if self.t.size else np.empty(0)

    def _scan(self, caps: np.ndarray, step: int, left: np.ndarray | None = None) -> np.ndarray:
        """Matching positions next to each probe in direction ``step`` (-1 or
        +1), counting at most ``caps - 1 - left`` of them per probe. ``left``,
        the extents found on the other side (``None``: none yet), also tells
        the walks which positions are known to hold each probe's symbol."""
        n = self.sess.length
        lim = caps - 1 if left is None else caps - 1 - left
        ext = np.zeros(self.t.size, dtype=np.int64)
        edge = 1 if step < 0 else n
        idx = np.flatnonzero((self.t != edge) & (lim > 0))
        pos, sym = self.t[idx], self.sym[idx]
        for k in range(1, LOCKSTEP_STEPS + 1):
            if not idx.size:
                return ext
            pos += step
            match = self.sess.read_many(pos) == sym
            ext[idx[match]] = k
            still = np.flatnonzero(match & (pos != edge) & (lim[idx] > k))
            idx, pos, sym = idx[still], pos[still], sym[still]
        if not idx.size:
            return ext
        del match, still
        # Walk coordinates: the position for step -1, n + 1 minus it for +1,
        # so every walk heads for x = 1. Sorted by x, each open probe heads
        # for its target, the nearest open probe ahead with a cap at least its
        # own (-1: none), whose stretch x..top is known to hold its symbol.
        x = pos + LOCKSTEP_STEPS if step < 0 else n + 1 - pos + LOCKSTEP_STEPS
        order = np.argsort(x)
        idx, x, sym = idx[order], x[order], sym[order]
        del pos, order
        lim, cap, rank = lim[idx], caps[idx], np.arange(x.size)
        top = np.append(x if left is None else x + left[idx], 0)  # [-1]: no target, past the edge
        out, tgt, par = lim.copy(), np.empty_like(rank), rank.copy()
        for v in np.unique(cap):
            ahead = np.maximum.accumulate(np.where(cap >= v, rank, -1))
            tgt[cap == v] = np.append(-1, ahead[:-1])[cap == v]

        def place(c, at, miss):
            """End walkers ``c`` (matched down to ``at``, save a ``miss`` below) at a
            miss, the edge or their limit; those in their target's stretch ride it.
            Returns (walker, at, reads to its next event) for the rest."""
            t, seen = tgt[c], x[c] - at  # seen: the positions matched so far
            end = miss | (at == 1) | (seen == lim[c])
            out[c[end]] = seen[end]
            ride = ~end & (at <= top[t])
            par[c[ride]] = t[ride]
            go = ~end & ~ride
            c, at, seen, t = c[go], at[go], seen[go], t[go]
            return c, at, np.minimum(np.minimum(at - 1, lim[c] - seen), at - top[t])

        walk, at, todo = place(rank, x - LOCKSTEP_STEPS, False)
        while walk.size:
            block = np.minimum(todo, x[walk] - at)  # as long as the stretch matched so far
            got, read = self.sess.match_run(at - 1 if step < 0 else n + 2 - at, step, block, sym[walk])
            at -= got
            todo -= got
            miss = read > got
            check = miss | (todo == 0)
            if check.any():
                more = place(walk[check], at[check], miss[check])
                keep = (walk[~check], at[~check], todo[~check])
                walk, at, todo = map(np.concatenate, zip(keep, more))
        # A rider's extent is min(lim, its distance to the walk that ended on
        # its own at the end of its chain of targets + that walk's extent):
        # each target on the way walks at least as deep, so caps no lower.
        while not np.array_equal(par[par], par):
            par = par[par]
        ext[idx] = np.minimum(out, x - x[par] + out[par])
        return ext

    def advance(self, caps) -> np.ndarray:
        """min(run length, cap) for each probe, for one cap or one cap per probe."""
        caps = np.broadcast_to(np.asarray(caps, dtype=np.int64), self.t.shape)
        left = self._scan(caps, -1)
        return left + self._scan(caps, 1, left) + 1


def _exact(sigma: int):
    """The scan lane of every RLE estimator: the exact cost of the whole string."""
    return lambda symbols: float(rle_total_cost(symbols, sigma))


def additive_plan(n: int, alphabet_size: int, epsilon: float) -> ReadPlan:
    """q probes of at most ell0 + 1 reads each, or a scan once n <= ell0 or
    q >= ``SCAN_SHARE * n``: sublinearity is meaningless below the budget."""
    ell0 = additive_probe_cap(epsilon, alphabet_size)
    q = additive_sample_count(epsilon, alphabet_size)
    if n <= ell0 or q >= SCAN_SHARE * n:
        return ReadPlan(True, 0, n)
    return ReadPlan(False, q, q * (ell0 + 1))


def rle_additive_estimate(w: QueryCountedString, epsilon: float, seed: int) -> EstimateReport:
    """Estimate the RLE cost to within an additive eps*n, claiming (1, eps)."""
    n, sigma = w.length, w.alphabet_size
    plan = additive_plan(n, sigma, epsilon)
    sess = w.session()

    def sampled():
        ell0 = additive_probe_cap(epsilon, sigma)
        conf = RunProber(sess, make_rng(seed).integers(1, n + 1, size=plan.draws)).advance(ell0)
        contrib = np.where(conf >= ell0, 0.0, contribution(np.maximum(conf, 1), sigma))
        return float(n * contrib.mean())

    est, used = plan.run(sess, sampled, _exact(sigma))
    return EstimateReport(est, 1.0, epsilon, used, seed)


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
        weight = float((lmin.bit_length() + s_bits) / lmin)
        out.append((h, low, high, cap, weight))
    return out


@dataclass(frozen=True)
class BucketPlan(ReadPlan):
    """A bucketed round's plan: ``buckets`` rows (h, low, high, cap, weight)
    and each row's q_h = min(q, ceil(q * weight_h)), q the round's sample
    count (its ``draws`` when it samples)."""

    buckets: tuple
    q_hs: tuple


def bucketed_plan(
    n: int, alphabet_size: int, epsilon: float, delta: float, ratio: float = 2.0, q_scale: float = 1.0
) -> BucketPlan:
    """One bucketed round at (epsilon, delta): a scan once q reaches
    ``SCAN_SHARE * n``, else q reads plus the probes' final caps.

    Going from the last bucket back, bucket h sets the caps of the probes
    from the largest later q_h up to its own q_h; whatever the order of the
    q_h, the bound takes O(buckets) and allocates no per-probe array.
    """
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    ell0 = additive_probe_cap(epsilon, alphabet_size)
    buckets = tuple(_geometric_buckets(ell0, alphabet_bits(alphabet_size), ratio))
    q = math.ceil(bucketed_sample_count(epsilon, delta) * q_scale)
    q_hs = tuple(min(q, math.ceil(q * weight)) for *_, weight in buckets)
    if q >= SCAN_SHARE * n:
        return BucketPlan(True, 0, n, buckets, q_hs)
    bound, covered = q, 0
    for (*_, cap, weight), q_h in zip(reversed(buckets), reversed(q_hs)):
        bound += cap * max(0, q_h - covered)
        covered = max(covered, q_h)
    return BucketPlan(False, q, bound, buckets, q_hs)


def _bucketed_core(sess: QuerySession, plan: BucketPlan, seed: int, room: float | None = None) -> float | None:
    """The sampled pass of a bucketed round, shared by the factor-2 and
    refined estimators: one :class:`RunProber` pass over ``plan.draws``
    positions, each probe capped at its last bucket's cap, and the sum over
    buckets of (n / q_h) * hits_h * weight_h.

    Given the ``room`` of reads left to the round, if its bound could pass
    that room, the pass first probes a pilot, every stride-th draw (a stride, not a
    prefix: the first probes have the largest caps). The pilot reads through
    a session of its own, budgeted at the room's share for its probes: if it
    passes that budget, the round is forecast past the room, and the pass
    returns None, unread. A probe's reads and extent are fixed by its
    position and cap (:class:`RunProber`), so a pass that goes on reads the
    pilot's positions again, touches the same positions and returns the same
    estimate as one without a pilot.
    """
    n = sess.length
    # Each probe's final cap is its last bucket's (caps rise with h): probes
    # below the largest q_h of buckets h.. but not of buckets h + 1.. end in
    # h. Bucket 1 has q_1 = q (w_1 = 1 + s), so every draw gets a cap.
    reach = np.maximum.accumulate(plan.q_hs[::-1])
    caps = np.repeat([cap for *_, cap, _ in reversed(plan.buckets)], np.diff(reach, prepend=0))
    t = make_rng(seed).integers(1, n + 1, size=plan.draws)
    if room is not None and plan.bound > room:
        stride = math.ceil(plan.bound / (PILOT_SHARE * room))
        pilot = sess.parent.session(budget=room * t[::stride].size / plan.draws)
        try:
            RunProber(pilot, t[::stride]).advance(caps[::stride])
        except ReadBudgetSpent:
            return None
    conf = RunProber(sess, t).advance(caps)
    est = 0.0
    for (_, low, high, _, weight), q_h in zip(plan.buckets, plan.q_hs):
        # high <= cap <= the probe's cap, so a length below high is exact
        hits = int(np.count_nonzero((conf[:q_h] >= math.ceil(low)) & (conf[:q_h] < high)))
        est += (n / q_h) * hits * weight
    return est


def rle_bucketed_estimate(w: QueryCountedString, epsilon: float, delta: float, seed: int) -> EstimateReport:
    """Bucketed (3, eps)-estimate of the RLE cost, confidence 1 - delta; a
    plan that scans reports the exact cost."""
    sess = w.session()
    plan = bucketed_plan(sess.length, sess.alphabet_size, epsilon, delta)
    est, used = plan.run(sess, lambda: _bucketed_core(sess, plan, seed), _exact(sess.alphabet_size))
    return EstimateReport(est, 3.0, epsilon, used, seed, confidence=1.0 - delta)


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
    """A search's rounds and report, and why it scanned: ``switch`` is ""
    (it stayed sampled), "plan" (its round planned a scan), "forecast" (its
    reads were forecast to reach the budget) or "budget" (its reads passed
    the budget mid-round)."""

    rounds: tuple
    report: EstimateReport
    switch: str = ""


def search_query_ceiling(n: int, exact_cost: float) -> float:
    return C_SEARCH_AUDIT * (n / max(1.0, exact_cost)) * math.log2(n + 2) ** 3


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
    Rounds that cannot stop are skipped.

    The search reads through a session budgeted at ``SCAN_SHARE * n``, and
    reads the string once instead, ending on a last round whose estimate and
    interval are the exact cost, in three ways (``SearchTrace.switch``):
    a round's plan is a scan; the reads are forecast to reach the budget;
    or a round's reads pass it, mid-round. After a sampled round that does
    not close, the forecast finds the first round j* whose interval would
    close at that round's estimate, and prices rounds j + 1 .. j* at its
    reads per draw (infinite if no round closes or one of them plans a
    scan). The first sampled round forecasts itself from a pilot if its
    bound could pass the budget (:func:`_bucketed_core`). After each sampled
    round and at the end, the reads must stay within the sum of the sampled
    rounds' plan bounds (n once the search scans).
    """
    n, sigma = w.length, w.alphabet_size
    budget = SCAN_SHARE * n
    sess = w.session(budget=budget)
    # Every bucketed estimate is at most (1 + s) n: a bucket with weight
    # w_h >= 1 has q_h = q, one with w_h < 1 has q_h >= q w_h, each probe
    # lands in at most one bucket, and w_1 = 1 + s is the largest weight. As
    # (est + e) / (est - e) falls while est grows, a round whose interval
    # would not close at est = (1 + s) n cannot stop; it is skipped unread.
    top = (1 + alphabet_bits(sigma)) * n

    def interval(est, eps):
        return (est - eps * n) * shrink, (est + eps * n) * grow

    def closes(lower, upper):
        return lower > 0 and upper / lower <= stop_ratio

    @functools.cache
    def plan(j):
        return bucketed_plan(n, sigma, 2.0**-j, (1.0 / 3.0) * 2.0**-j, ratio, q_scale)

    def forecast(est, j, per_draw):
        # no round after a sampled one is skipped: intervals narrow as j grows
        draws = 0
        for k in range(j + 1, SEARCH_MAX_ROUNDS + 1):
            if plan(k).scan:
                return math.inf
            draws += plan(k).draws
            if closes(*interval(est, 2.0**-k)):
                return per_draw * draws
        return math.inf

    rounds, bound, used, switch = [], 0, 0, ""
    for j in range(1, SEARCH_MAX_ROUNDS + 1):
        eps_j = 2.0**-j
        if not closes(*interval(top, eps_j)):
            continue
        if plan(j).scan:
            switch = "plan"
        elif not switch:
            try:
                est = _bucketed_core(sess, plan(j), derive_seed(seed, j), None if rounds else budget)
            except ReadBudgetSpent:
                switch = "budget"
            else:
                switch = "forecast" if est is None else ""
        if switch:
            out, used = ReadPlan(True, 0, n).run(sess, None, _exact(sigma))
            rounds.append(SearchRound(j, 0.0, 0.0, out, out, out))
            break
        bound += plan(j).bound
        prev, used = used, sess.queries_within(bound)
        lower, upper = interval(est, eps_j)
        rounds.append(SearchRound(j, eps_j, (1.0 / 3.0) * eps_j, est, lower, upper))
        if closes(lower, upper):
            out = math.sqrt(lower * upper)
            break
        if used + forecast(est, j, (used - prev) / plan(j).draws) >= budget:
            switch = "forecast"
    else:
        raise RuntimeError("cost search did not converge; this should be impossible")
    report = EstimateReport(out, claim_lam, 0.0, used, seed)
    return SearchTrace(rounds=tuple(rounds), report=report, switch=switch)


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
