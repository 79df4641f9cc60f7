import math
import time
import tracemalloc

import numpy as np
import pytest

from compest import (
    LzEstimateParams,
    QueryCountedString,
    colors_estimate,
    colors_estimate_amplified,
    estimate_distinct,
    exact_rle_cost,
    lz_estimate,
    meets_contract,
    rle_additive_estimate,
    rle_bucketed_estimate,
    rle_multiplicative_search,
    rle_refined_search,
)
from compest._rng import derive_seed, make_rng
from compest.accessor import EstimateReport, QuerySession
from compest.campaign import build_builtin
from compest.colors import amplification_runs, colors_plan
from compest.lz import window_plan
from compest.oracles import ceil_log2, rle_total_cost
from compest.generators import GeneratorSpec, generate_coin_runs, generate_wk
from compest import rle
from compest.rle import (
    LOCKSTEP_STEPS,
    PILOT_SHARE,
    SCAN_SHARE,
    RunProber,
    SearchRound,
    _bucketed_core,
    _geometric_buckets,
    additive_plan,
    additive_probe_cap,
    additive_sample_count,
    bucketed_plan,
    bucketed_sample_count,
    contribution,
    rle_multiplicative_search_detailed,
    rle_refined_search_detailed,
)
from naive import all_ones, alternating, naive_run_lengths, random_symbols, staged_probe


def acc(arr, sigma=2):
    return QueryCountedString.from_tokens(arr, sigma)


# -- probing -------------------------------------------------------------


def true_run_lengths(arr):
    """Length of the run through each position, by walking left and right."""
    n = arr.size
    out = np.empty(n, dtype=np.int64)
    for i in range(n):
        lo = hi = i
        while lo > 0 and arr[lo - 1] == arr[i]:
            lo -= 1
        while hi < n - 1 and arr[hi + 1] == arr[i]:
            hi += 1
        out[i] = hi - lo + 1
    return out


def test_probe_examples():
    arr = np.array([0, 0, 1, 1, 0])
    assert RunProber(acc(arr).session(), np.array([3, 1, 5, 4])).advance(8).tolist() == [2, 2, 1, 2]
    ones = RunProber(acc(all_ones(100)).session(), np.array([50, 1, 100]))
    assert ones.advance(8).tolist() == [8, 8, 8]


def test_probe_matches_direct_computation():
    # one lockstep prober over many positions, duplicates included, at the
    # string's edges and with caps on both sides of the true lengths
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 61))
        arr = rng.integers(0, 2, size=n).astype(np.uint8)
        ts = rng.integers(1, n + 1, size=200)
        cap = int(rng.integers(1, 13))
        conf = RunProber(acc(arr).session(), ts).advance(cap)
        assert np.array_equal(conf, np.minimum(true_run_lengths(arr)[ts - 1], cap))


def test_probe_query_budget():
    sess = acc(all_ones(10_000)).session()
    assert RunProber(sess, np.array([5_000])).advance(64).tolist() == [64]
    assert sess.queries <= 64 + 1


class RecordingSession:
    """What a prober uses of a session, recording every position it reads,
    each ``read_many`` call, and the direction and blocks of each
    ``match_run`` call."""

    def __init__(self, arr):
        self.arr, self.length, self.requested = arr, arr.size, []
        self.read_calls, self.blocks = 0, []

    def read_many(self, positions):
        self.read_calls += 1
        self.requested += np.asarray(positions).tolist()
        return self.arr[np.asarray(positions) - 1]

    def match_run(self, starts, step, limits, symbols):
        # the walk primitive as one-position reads: each walker reads on
        # until a mismatch or its limit
        self.blocks.append((step, np.asarray(limits).tolist()))
        matched, read = [], []
        for start, limit, sym in zip(np.asarray(starts).tolist(), np.asarray(limits).tolist(), symbols):
            assert limit >= 1
            k = 0
            while k < limit:
                self.requested.append(start + step * k)
                if self.arr[start + step * k - 1] != sym:
                    break
                k += 1
            matched.append(k)
            read.append(min(k + 1, limit))
        return np.array(matched, dtype=np.int64), np.array(read, dtype=np.int64)


def random_runs(rng, n, sigma, longest):
    runs = [np.full(int(rng.integers(1, longest + 1)), rng.integers(0, sigma)) for _ in range(n)]
    return np.concatenate(runs)[:n].astype(np.uint8)


def short_and_long_runs(rng, n, sigma):
    return random_runs(rng, n, sigma, int(rng.choice([1, 3, 12, 40])))


def test_final_cap_pass_matches_staged_reference():
    # a pass at each probe's final cap confirms the same lengths and reads
    # the same positions as the walk through its whole rising cap history
    rng = np.random.default_rng(31)
    for _ in range(150):
        n = int(rng.integers(1, 81))
        arr = short_and_long_runs(rng, n, int(rng.integers(2, 5)))
        ts = np.concatenate([[1, n, n], rng.integers(1, n + 1, size=int(rng.integers(1, 25)))])
        histories = [np.sort(rng.integers(1, 2 * n + 3, size=int(rng.integers(1, 5)))) for _ in ts]
        finals = np.array([hist[-1] for hist in histories])
        expect = [staged_probe(arr, int(t), hist) for t, hist in zip(ts, histories)]
        sess = RecordingSession(arr)
        conf = RunProber(sess, ts).advance(finals)
        assert conf.tolist() == [length for length, _ in expect]
        assert set(sess.requested) == set().union(*(read for _, read in expect))
        for t, cap, (_, read) in zip(ts, finals, expect):
            one = RecordingSession(arr)
            RunProber(one, np.array([t])).advance(cap)
            assert set(one.requested) == read and len(one.requested) <= cap + 1


def check_against_staged_reference(arr, ts, caps):
    """Returns the number of positions requested and the solo walks' total size."""
    expect = [staged_probe(arr, int(t), [int(cap)]) for t, cap in zip(ts, caps)]
    sess = RecordingSession(arr)
    conf = RunProber(sess, ts).advance(caps)
    assert conf.tolist() == [length for length, _ in expect]
    assert set(sess.requested) == set().union(*(read for _, read in expect))
    return len(sess.requested), sum(len(read) for _, read in expect)


def test_dense_probes_over_long_runs_match_staged_reference():
    # More probes than positions, duplicates included, on runs of up to a few
    # hundred, with bucket-style caps: most small, a few past any run. Runs
    # hold many probes each, so most walks reach their target and ride it, or
    # walk past probes with smaller caps.
    rng = np.random.default_rng(47)
    for _ in range(12):
        n = int(rng.integers(300, 2_500))
        arr = random_runs(rng, n, 2, int(rng.choice([40, 150, 400])))
        ts = rng.integers(1, n + 1, size=int(n * rng.uniform(1.0, 1.6)))
        caps = 2 ** rng.integers(1, 5, size=ts.size)
        big = rng.random(ts.size) < 0.05
        caps[big] = rng.integers(2, 2 * n, size=int(big.sum()))
        requested, _ = check_against_staged_reference(arr, ts, caps)
        # each probe's own read and its lockstep steps, then each position at
        # most once per side
        assert requested <= ts.size * (1 + 2 * LOCKSTEP_STEPS) + 2 * n
    # Sparse probes, 2-10% of n, on runs of up to 5 000 (log-uniform lengths),
    # with one cap for all, powers of two, or arbitrary caps up to 2n: walks
    # cross long gaps to their targets and walk past probes with smaller caps.
    for kind in range(3):
        n = int(rng.integers(1_000, 5_000))
        lens = np.exp(rng.uniform(0, math.log(5_000), size=n)).astype(np.int64)
        lens = lens[: np.searchsorted(np.cumsum(lens), n) + 1]
        arr = np.repeat(np.arange(lens.size) % 2, lens)[:n].astype(np.uint8)
        ts = rng.integers(1, n + 1, size=int(n * rng.uniform(0.02, 0.1)))
        caps = (
            np.full(ts.size, rng.integers(2, 2 * n)),
            2 ** rng.integers(1, 13, size=ts.size),
            rng.integers(1, 2 * n, size=ts.size),
        )[kind]
        requested, solo = check_against_staged_reference(arr, ts, caps)
        # no probe asks for a position twice, or for one off its solo walk
        assert requested <= solo


def test_single_cap_walks_read_each_position_once_per_side():
    # With one cap for every probe, as in the additive pass, each walk's
    # target is the open probe ahead of it, which it rides on reaching it, so
    # no walk goes past another: past the lockstep, each side reads each
    # position at most once. Without riding, 3 200 probes walking runs longer
    # than the cap would ask for millions of positions.
    n, cap = 10**5, additive_probe_cap(0.05, 2)
    ts = make_rng(11).integers(1, n + 1, size=3_200)
    for arr in (all_ones(n), generate_wk(n, 64, 3), generate_wk(n, 100, 3)):
        for a in (arr, arr[::-1].copy()):
            sess = RecordingSession(a)
            conf = RunProber(sess, ts).advance(cap)
            lens = naive_run_lengths(a)
            assert np.array_equal(conf, np.minimum(np.repeat(lens, lens)[ts - 1], cap))
            assert len(sess.requested) <= ts.size * (1 + 2 * LOCKSTEP_STEPS) + 2 * n


def test_capped_chains_continue_for_a_far_member():
    # One long run holds a row of probes, spaced past the lockstep, so each
    # stops at its small cap inside its gap. Only the last probe needs more:
    # its walk crosses every capped probe on its way to the run's start, and
    # each capped probe keeps its own cap. No capped probe can be its target,
    # so its walk never stops at one: each side takes O(log n) primitive
    # calls, not one per capped probe.
    spacing = LOCKSTEP_STEPS + 6
    for n, start, far in ((600, 37, 10**6), (600, 37, 300), (350, 1, 10**6), (20_000, 37, 10**7)):
        arr = np.zeros(n, dtype=np.uint8)
        arr[start - 1 :] = 1
        ts = np.arange(start + spacing, n + 1, spacing)
        caps = np.full(ts.size, LOCKSTEP_STEPS + 3)
        caps[-1] = far
        # and mirrored, so the right pass continues the same way
        for a, t in ((arr, ts), (arr[::-1].copy(), n + 1 - ts)):
            check_against_staged_reference(a, t, caps)
            sess = RecordingSession(a)
            RunProber(sess, t).advance(caps)
            for step in (-1, 1):
                assert sum(s == step for s, _ in sess.blocks) <= 2 * int(ceil_log2([n])[0]) + 4


@pytest.mark.parametrize("cap", [2, 9, 10, 11, 64, 1_000, 4_097, 30_000])
def test_a_walk_takes_rounds_logarithmic_in_its_cap(cap):
    # One probe in a long run, in its middle and a third of a cap from
    # either edge, so that each side walks far. Past its own read and the
    # lockstep, each side's walk takes one primitive call per block, and
    # the blocks double.
    n = 50_000
    for t in (1, cap // 3 + 1, n // 2, n - cap // 3, n):
        sess = RecordingSession(all_ones(n))
        assert RunProber(sess, np.array([t])).advance(cap).tolist() == [cap]
        assert sess.read_calls <= 1 + 2 * LOCKSTEP_STEPS
        for step in (-1, 1):
            assert sum(s == step for s, _ in sess.blocks) <= 2 * int(ceil_log2([cap])[0]) + 4


def walk_inputs(rng):
    """(name, string, symbols) for each builtin and generator family, about
    2 000 to 5 000 symbols long; col2lz is read through its provider."""
    n = int(rng.integers(2_000, 5_001))
    seed = int(rng.integers(2**31))
    for name in ("random-binary", "random-bytes", "run-mix"):
        arr = build_builtin(name, n, seed)
        yield name, acc(arr, 256 if name == "random-bytes" else 2), arr
    arr = generate_wk(n, int(rng.choice([n // 100, n // 10])), seed)
    yield "wk", acc(arr), arr
    arr = generate_coin_runs(n, float(rng.choice([0.5, 0.05])), seed)
    yield "coin", acc(arr), arr
    arr = GeneratorSpec("lztight", {"m": n // 8, "ell0": 8}).build()
    yield "lztight", acc(arr, n // 8 + 1), arr
    col2lz = GeneratorSpec("col2lz", {"n_prime": n // 10, "colors": 5, "alpha_prime": 0.1}, seed).build()
    yield "col2lz", col2lz, col2lz.materialize()


def test_block_walks_touch_the_union_of_solo_walks():
    # Dense and sparse probes, with one cap for all, powers of two, or
    # arbitrary caps up to 2n, on every input family: the extents and the
    # positions the ledger counts are those of the solo one-position walks,
    # and a provider is asked for exactly the positions counted.
    rng = np.random.default_rng(61)
    for case in range(2):
        for i, (name, w, arr) in enumerate(walk_inputs(rng)):
            n, fetched = arr.size, []
            if name == "col2lz":
                inner = w.provider
                w = QueryCountedString.from_provider(
                    lambda idx0: fetched.append(np.asarray(idx0)) or inner(idx0), n, w.alphabet_size
                )
            for dense, kind in ((True, (i + case) % 3), (False, (i + case + 1) % 3)):
                size = int(n * (rng.uniform(1.0, 1.6) if dense else rng.uniform(0.02, 0.1)))
                ts = rng.integers(1, n + 1, size=size)
                caps = (
                    np.full(size, rng.integers(2, 2 * n)),
                    2 ** rng.integers(1, 13, size=size),
                    rng.integers(1, 2 * n, size=size),
                )[kind]
                expect = [staged_probe(arr, int(t), [int(cap)]) for t, cap in zip(ts, caps)]
                union = np.array(sorted(set().union(*(read for _, read in expect))))
                fetched.clear()
                sess = w.session()
                conf = RunProber(sess, ts).advance(caps)
                assert conf.tolist() == [length for length, _ in expect], (name, dense, kind)
                assert sess.queries == union.size, (name, dense, kind)
                if fetched:
                    assert np.array_equal(np.unique(np.concatenate(fetched)) + 1, union)
                sess.read_many(union)  # re-reads are free: every one was counted
                assert sess.queries == union.size


def test_contribution_dominated_by_decreasing_envelope():
    # c(ell) itself ticks up where the length ceiling jumps (e.g. 4/7 -> 5/8
    # at sigma=2), but it never exceeds the smooth envelope
    # (log2(ell+1) + 1 + s) / ell, which is non-increasing. That envelope is
    # what the capped-probe tail bound relies on.
    for sigma in (2, 4, 26, 256):
        lengths = np.arange(1, 2000)
        c = contribution(lengths, sigma)
        s_bits = int(ceil_log2(np.array([sigma]))[0])
        envelope = (np.log2(lengths + 1) + 1 + s_bits) / lengths
        assert np.all(c <= envelope + 1e-12)
        assert np.all(np.diff(envelope) <= 1e-12)
        # so every longer run contributes at most the envelope at the cap
        running_max_from_right = np.maximum.accumulate(c[::-1])[::-1]
        assert np.all(running_max_from_right <= envelope + 1e-12)


def test_probe_cap_tail_bound():
    # ignored runs contribute at most eps/2 per position, for many parameter mixes
    for eps in (0.03, 0.1, 0.3, 0.7):
        for sigma in (2, 4, 26, 1024):
            ell0 = additive_probe_cap(eps, sigma)
            tail = (int(ceil_log2(np.array([ell0 + 1]))[0]) + int(ceil_log2(np.array([sigma]))[0])) / ell0
            assert tail <= eps / 2


# -- additive estimator ---------------------------------------------------


def test_additive_rejects_bad_epsilon():
    w = acc(alternating(100))
    for eps in (0.0, 1.0, -0.2, 5.0):
        with pytest.raises(ValueError):
            rle_additive_estimate(w, eps, seed=1)


def test_additive_alternating_is_exact():
    n = 100_000
    w = acc(alternating(n))
    rep = rle_additive_estimate(w, 0.1, seed=123)
    assert rep.estimate == 2.0 * n == exact_rle_cost(alternating(n), 2).total_cost
    assert rep.lam == 1.0 and rep.epsilon == 0.1


def test_additive_all_ones_estimates_zero():
    n = 100_000
    w = acc(all_ones(n))
    rep = rle_additive_estimate(w, 0.1, seed=9)
    assert rep.estimate == 0.0
    exact = exact_rle_cost(all_ones(n), 2).total_cost
    assert meets_contract(rep, exact, n)


def test_additive_budget_and_contract_on_random():
    n = 30_000
    eps = 0.1
    hits = 0
    for seed in range(30):
        arr = random_symbols(n, 2, seed + 400)
        w = acc(arr)
        rep = rle_additive_estimate(w, eps, seed=seed)
        exact = exact_rle_cost(arr, 2).total_cost
        q = additive_sample_count(eps, 2)
        ell0 = additive_probe_cap(eps, 2)
        assert rep.queries_used <= q * (ell0 + 1)
        assert rep.queries_used <= additive_plan(n, 2, eps).bound
        hits += abs(rep.estimate - exact) <= eps * n
    assert hits >= 27


def unit_and_long_runs(n, sigma, seed, unit=2_000, run=2_000):
    """Blocks of ``unit`` uniform symbols (mostly unit runs), each followed
    by one run of length ``run``: contributions spread over (0, 1 + s]."""
    rng = make_rng(seed)
    blocks = []
    for _ in range(-(-n // (unit + run))):
        blocks += [rng.integers(0, sigma, size=unit), np.full(run, rng.integers(0, sigma))]
    return np.concatenate(blocks)[:n].astype(np.uint8)


@pytest.mark.parametrize("sigma", [16, 256])
def test_additive_contract_rate_on_wide_alphabets(sigma):
    # the sample count grows with the contribution range 1 + s; a count
    # fixed at its binary value met the contract on 14 of 30 seeds at sigma 256
    n, eps, seeds = 200_000, 0.1, range(15)
    hits = 0
    for seed in seeds:
        arr = unit_and_long_runs(n, sigma, seed + 500)
        rep = rle_additive_estimate(acc(arr, sigma), eps, seed=seed)
        hits += meets_contract(rep, exact_rle_cost(arr, sigma).total_cost, n)
    assert hits >= 2 / 3 * len(seeds)


def test_additive_small_input_goes_exact():
    arr = random_symbols(100, 2, seed=8)
    w = acc(arr)
    rep = rle_additive_estimate(w, 0.2, seed=0)
    assert rep.estimate == exact_rle_cost(arr, 2).total_cost
    assert rep.queries_used == 100


def test_additive_scans_once_its_sample_reaches_the_scan_share():
    # q = 800 probes at eps 0.1 plan 0.4 n on n = 2000, above the probe cap 506
    n, eps = 2000, 0.1
    assert additive_probe_cap(eps, 2) < n
    assert SCAN_SHARE * n <= additive_sample_count(eps, 2) < n
    arr = random_symbols(n, 2, seed=8)
    rep = rle_additive_estimate(acc(arr), eps, seed=0)
    assert rep.estimate == exact_rle_cost(arr, 2).total_cost
    assert rep.queries_used == n


def test_additive_matches_its_own_sample():
    n, eps, seed = 50_000, 0.1, 6
    arr = random_symbols(n, 2, seed=12)
    rep = rle_additive_estimate(acc(arr), eps, seed=seed)
    ts = make_rng(seed).integers(1, n + 1, size=additive_sample_count(eps, 2))
    lengths = true_run_lengths(arr)[ts - 1]
    ell0 = additive_probe_cap(eps, 2)
    contrib = np.where(lengths >= ell0, 0.0, contribution(lengths, 2))
    assert rep.estimate == n * float(np.mean(contrib))


def test_additive_deterministic_replay():
    arr = random_symbols(50_000, 2, seed=2)
    r1 = rle_additive_estimate(acc(arr), 0.05, seed=77)
    r2 = rle_additive_estimate(acc(arr), 0.05, seed=77)
    assert r1 == r2


# -- bucketed estimator ---------------------------------------------------


def test_bucketed_rejects_bad_params():
    w = acc(alternating(100))
    with pytest.raises(ValueError):
        rle_bucketed_estimate(w, 0.0, 0.5, seed=1)
    with pytest.raises(ValueError):
        rle_bucketed_estimate(w, 0.1, 1.5, seed=1)


def test_bucketed_alternating_concentrates_in_first_bucket():
    # every probe lands in a unit run, and bucket 1 (weight 2) counts all draws
    n = 400_000
    plan = bucketed_plan(n, 2, 0.05, 1 / 3)
    assert not plan.scan and plan.q_hs[0] == plan.draws
    rep = rle_bucketed_estimate(acc(alternating(n)), 0.05, 1 / 3, seed=5)
    assert rep.estimate == pytest.approx(2.0 * n)
    assert rep.lam == 3.0 and rep.confidence == pytest.approx(2 / 3)


def test_bucketed_all_ones_estimates_zero():
    n = 400_000  # q = 46 728 at eps 0.05 stays below SCAN_SHARE * n
    assert not bucketed_plan(n, 2, 0.05, 1 / 3).scan
    rep = rle_bucketed_estimate(acc(all_ones(n)), 0.05, 1 / 3, seed=5)
    assert rep.estimate == 0.0  # runs exceed every bucket cap
    assert meets_contract(rep, exact_rle_cost(all_ones(n), 2).total_cost, n)


def test_bucketed_sample_counts_follow_weights():
    n = 400_000
    plan = bucketed_plan(n, 2, 0.05, 1 / 3)
    q = bucketed_sample_count(0.05, 1 / 3)
    assert not plan.scan and plan.draws == q
    assert plan.q_hs == tuple(min(q, math.ceil(q * weight)) for *_, weight in plan.buckets)
    rep = rle_bucketed_estimate(acc(random_symbols(n, 2, seed=3)), 0.05, 1 / 3, seed=6)
    assert rep.queries_used <= plan.bound


@pytest.mark.parametrize("ell0", [2, 3, 1000, 1024, 1025, 2**31, 2**31 + 1, 2**44])
@pytest.mark.parametrize("s_bits", [1, 7])
def test_ratio_two_bucket_rows(ell0, s_bits):
    h0 = (ell0 - 1).bit_length()  # ceil(log2(ell0)), in integers
    expect = [(h, 2.0 ** (h - 1), 2.0**h, 2**h, (h + s_bits) / 2 ** (h - 1)) for h in range(1, h0 + 1)]
    assert _geometric_buckets(ell0, s_bits, 2.0) == expect


def test_bucketed_full_sampling_two_sided_identity():
    # a plan whose draws reach SCAN_SHARE * n reads the whole string and
    # reports the exact cost, which meets the (3, eps) claim at confidence 1;
    # q >= n at eps 0.3 on n = 1000, and q = 0.47 n at eps 0.05 on n = 1e5
    for n, eps in ((1000, 0.3), (100_000, 0.05)):
        plan = bucketed_plan(n, 2, eps, 1 / 3)
        assert plan.scan and (plan.draws, plan.bound) == (0, n)
        assert bucketed_sample_count(eps, 1 / 3) >= SCAN_SHARE * n
        for seed in range(8):
            arr = random_symbols(n, 2, seed + 900)
            rep = rle_bucketed_estimate(acc(arr), eps, 1 / 3, seed=seed)
            assert rep.estimate == exact_rle_cost(arr, 2).total_cost
            assert rep.queries_used == n


def test_bucketed_scan_takes_one_pass_in_o_chunk_memory():
    # delta 1e-7 puts q = 0.29 n past SCAN_SHARE at eps 0.01 on n = 1e7; the
    # scan views the array in place and costs the runs chunk by chunk
    n = 10**7
    arr = random_symbols(n, 2, seed=27)
    w = acc(arr)
    assert bucketed_plan(n, 2, 0.01, 1e-7).scan
    tracemalloc.start()
    try:
        start = time.perf_counter()
        rep = rle_bucketed_estimate(w, 0.01, 1e-7, seed=0)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.queries_used == n
    assert peak < 64 * 2**20 and elapsed < 2.0, (peak, elapsed)
    assert rep.estimate == rle_total_cost(arr, 2)


def test_sampled_lanes_below_the_scan_share_stay_sampled():
    n = 10**6
    w = acc(random_symbols(n, 2, seed=14))
    rep = rle_bucketed_estimate(w, 0.05, 1 / 3, seed=0)
    assert not bucketed_plan(n, 2, 0.05, 1 / 3).scan and rep.queries_used < SCAN_SHARE * n
    trace = rle_multiplicative_search_detailed(acc(build_builtin("run-mix", n, 3)), seed=0)
    assert all(r.epsilon > 0 for r in trace.rounds)  # no round is the scan
    assert trace.report.queries_used < SCAN_SHARE * n


def test_bucketed_query_ceiling():
    # q = 0.47 n at eps 0.05 on n = 1e5 plans a scan; on n = 4e5 it samples
    eps, delta = 0.05, 1 / 3
    for n, scan in ((100_000, True), (400_000, False)):
        w = acc(random_symbols(n, 2, seed=13))
        rep = rle_bucketed_estimate(w, eps, delta, seed=21)
        plan = bucketed_plan(n, 2, eps, delta)
        assert plan.scan == scan and rep.queries_used <= plan.bound
        assert (plan.bound == n) == scan


def test_read_bound_sums_caps_without_the_caps_array():
    # the bound adds up the probes' final caps from the (cap, q_h) pairs;
    # narrow refined buckets (ratio 1.1) have q_h that rise again after falling.
    # n = 1e12 keeps every plan here on the sampled lane.
    n = 10**12
    rising = 0
    for ratio in (2.0, 1.1):
        for eps in (0.5, 0.2, 0.05, 0.01):
            for delta in (1 / 3, 0.01):
                for sigma in (2, 5, 256):
                    plan = bucketed_plan(n, sigma, eps, delta, ratio)
                    q_hs = plan.q_hs
                    q = plan.draws
                    assert not plan.scan and q == bucketed_sample_count(eps, delta)
                    assert q_hs == tuple(min(q, math.ceil(q * b[-1])) for b in plan.buckets)
                    rising += any(a < b for a, b in zip(q_hs, q_hs[1:]))
                    caps = np.zeros(q, dtype=np.int64)  # each probe's last bucket's cap
                    for (*_, cap, _), q_h in zip(plan.buckets, q_hs):
                        caps[:q_h] = cap
                    assert plan.bound == q + int(caps.sum())
    assert rising
    # at eps 1e-5 the sample count is about 1.7e9: no per-probe array
    tracemalloc.start()
    try:
        plan = bucketed_plan(n, 2, 1e-5, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not plan.scan and plan.draws > 1.5e9 and plan.bound > 1e9 and peak < 2**20


def test_provider_backed_runs_match_and_read_only_what_they_count():
    n = 100_000
    arr = generate_wk(n, n // 100, seed=3)
    fetched = []

    def provider(idx0):
        fetched.append(np.unique(idx0))
        return arr[idx0]

    lazy = QueryCountedString.from_provider(provider, n, 2)
    runs = (
        lambda w: rle_additive_estimate(w, 0.1, seed=4),
        lambda w: rle_bucketed_estimate(w, 0.05, 1 / 3, seed=4),
        lambda w: rle_multiplicative_search(w, seed=4),
    )
    for run in runs:
        fetched.clear()
        report = run(lazy)
        assert report == run(acc(arr))
        # every counted read reaches the provider, so equal sizes mean equal sets
        assert np.unique(np.concatenate(fetched)).size == report.queries_used


def test_runs_that_read_past_their_bounds_fail(monkeypatch):
    # A prober that reads the whole string before its real pass returns the
    # same lengths, so only the runs' read bounds can catch it.
    n = 10**6
    w = acc(random_symbols(n, 2, seed=5))
    assert bucketed_plan(n, 2, 0.2, 1 / 3).bound == 159_200 < n
    assert additive_plan(n, 2, 0.1).bound == 405_600 < n
    # the search stops after 2 rounds on this input, whose bounds sum to 152 448
    assert len(rle_multiplicative_search_detailed(w, seed=0).rounds) == 2
    real_advance = RunProber.advance

    def reads_everything(self, caps):
        self.sess.read_all()
        return real_advance(self, caps)

    monkeypatch.setattr(RunProber, "advance", reads_everything)
    with pytest.raises(RuntimeError, match="the sampler is broken"):
        rle_bucketed_estimate(w, 0.2, 1 / 3, seed=0)
    with pytest.raises(RuntimeError, match="the sampler is broken"):
        rle_multiplicative_search(w, seed=0)
    with pytest.raises(RuntimeError, match="the sampler is broken"):
        rle_additive_estimate(w, 0.1, seed=0)


def test_colors_and_lz_runs_that_read_past_their_plans_fail(monkeypatch):
    # Reading the whole string beside each batch leaves every estimate as it
    # was, so only the plans' read bounds can catch it.
    n = 200_000
    w = acc(random_symbols(n, 256, seed=61), 256)
    p = LzEstimateParams.derive(64, 0.005, n)
    lz_plan = window_plan(n, p.ell0, p.B)
    assert not lz_plan.scan and lz_plan.bound < n
    assert not window_plan(n, p.ell0, p.B, 0.05).scan  # estimate_distinct's pool of 3
    assert colors_plan(n, 8, amplification_runs(0.1)).bound < n
    real_read_many = QuerySession.read_many

    def reads_everything(self, positions):
        real_read_many(self, np.arange(1, self.length + 1))
        return real_read_many(self, positions)

    monkeypatch.setattr(QuerySession, "read_many", reads_everything)
    runs = (
        lambda: colors_estimate(w, 8, seed=0),
        lambda: colors_estimate_amplified(w, 8, 0.1, seed=0),
        lambda: lz_estimate(w, 64, 0.005, seed=0),
        lambda: estimate_distinct(w, p.ell0, p.B, 0.05, seed=0),
    )
    for run in runs:
        with pytest.raises(RuntimeError, match="the sampler is broken"):
            run()


# -- the exact lane -------------------------------------------------------

SCAN_N = 2**13

# Each run's scan at n = 2^13: the additive plan's 3200 draws and the
# bucketed plan's 46 728 reach SCAN_SHARE * n; both searches plan 3072 or
# more draws in round 2, where none of these inputs closes its interval.
SCAN_RUNS = {
    "additive": lambda w: (rle_additive_estimate(w, 0.05, seed=1), additive_plan(SCAN_N, 2, 0.05).scan),
    "bucketed": lambda w: (
        rle_bucketed_estimate(w, 0.05, 1 / 3, seed=1), bucketed_plan(SCAN_N, 2, 0.05, 1 / 3).scan
    ),
    "search": lambda w: _switched(rle_multiplicative_search_detailed(w, seed=1)),
    "refined": lambda w: _switched(rle_refined_search_detailed(w, 0.5, seed=1)),
}

SCAN_INPUTS = {
    "random-binary": lambda: build_builtin("random-binary", SCAN_N, 4),
    "coin": lambda: generate_coin_runs(SCAN_N, 0.5, seed=4),
    "run-mix": lambda: build_builtin("run-mix", SCAN_N, 4),
    "wk": lambda: generate_wk(SCAN_N, SCAN_N // 100, seed=4),
}


def _switched(trace):
    """The report, and whether the search ended on its exact round."""
    return trace.report, trace.rounds[-1].epsilon == 0.0


@pytest.mark.parametrize("inp", SCAN_INPUTS)
@pytest.mark.parametrize("run", SCAN_RUNS)
def test_every_rle_scan_reports_the_exact_cost(run, inp):
    arr = SCAN_INPUTS[inp]()
    report, scanned = SCAN_RUNS[run](acc(arr))
    assert scanned
    assert report.estimate == rle_total_cost(arr, 2)
    assert report.queries_used == arr.size


# -- multiplicative searches ----------------------------------------------


def test_search_scans_once_its_forecast_reaches_the_scan_share():
    n = 100_000
    arr = generate_wk(n, n // 100, seed=3)
    trace = rle_multiplicative_search_detailed(acc(arr), seed=0)
    exact = float(exact_rle_cost(arr, 2).total_cost)
    first, last = trace.rounds
    # round 1 reads 0.15 n at 24 reads per draw; its estimate (0.013 n)
    # closes no round before round 4 plans a scan, so the forecast is
    # infinite and round 2, which would read past the budget, is never run
    sess = acc(arr).session()
    _bucketed_core(sess, bucketed_plan(n, 2, 0.5, 1 / 6), derive_seed(0, 1))
    assert first.j == 1 and first.epsilon > 0 and sess.queries < SCAN_SHARE * n
    assert not bucketed_plan(n, 2, 0.25, 1 / 12).scan and bucketed_plan(n, 2, 2**-4, 1 / 48).scan
    assert trace.switch == "forecast"
    assert (last.j, last.epsilon, last.estimate, last.lower, last.upper) == (2, 0.0, exact, exact, exact)
    assert trace.report.estimate == exact and trace.report.queries_used == n
    assert (trace.report.lam, trace.report.epsilon) == (4.0, 0.0)


def half_alternating(n):
    """Blocks of 1000: 600 alternating symbols, then a run of 401 ones."""
    i = np.arange(n) % 1000
    return np.where(i < 600, i % 2, 1).astype(np.uint8)


def test_search_scans_mid_round_once_its_reads_pass_the_budget():
    # Round 1 reads 0.041 n at 11.5 reads per draw and forecasts that round
    # 2 closes after 0.196 n more, 0.237 n in all. Round 2's probes in the
    # long runs walk further under its larger caps: it would read 0.261 n,
    # so the session's budget stops it inside its pass.
    n = 180_000
    arr = half_alternating(n)
    exact = float(rle_total_cost(arr, 2))
    for seed in range(3):
        trace = rle_multiplicative_search_detailed(acc(arr), seed=seed)
        first, last = trace.rounds
        assert trace.switch == "budget" and first.epsilon > 0 and not bucketed_plan(n, 2, 0.25, 1 / 12).scan
        assert (last.j, last.epsilon, last.estimate) == (2, 0.0, exact)
        assert trace.report.estimate == exact and trace.report.queries_used == n


LANE_N = 10**6

# Each search's lane at 1e6. Random binary and coin close in round 2 after
# 0.02 n reads. Run-mix closes in round 3 after 0.167 n; its forecast after
# round 2 is 0.180 n, the closest of these to the 0.25 n budget. On wk and
# all-ones, round 1's estimate closes no round before one plans a scan.
LANE_INPUTS = {
    "random-binary": (lambda: build_builtin("random-binary", LANE_N, 3), ""),
    "coin": (lambda: generate_coin_runs(LANE_N, 0.5, 3), ""),
    "run-mix": (lambda: build_builtin("run-mix", LANE_N, 3), ""),
    "wk": (lambda: generate_wk(LANE_N, LANE_N // 100, 3), "forecast"),
    "ones": (lambda: all_ones(LANE_N), "forecast"),
}


@pytest.mark.parametrize("inp", LANE_INPUTS)
def test_search_lanes_at_a_million(inp):
    build, switch = LANE_INPUTS[inp]
    arr = build()
    trace = rle_multiplicative_search_detailed(acc(arr), seed=0)
    assert trace.switch == switch
    if switch:
        assert [r.j for r in trace.rounds] == [1, 2] and trace.rounds[-1].epsilon == 0.0
        assert trace.report.estimate == rle_total_cost(arr, 2) and trace.report.queries_used == LANE_N
    else:
        assert all(r.epsilon > 0 for r in trace.rounds)
        assert trace.report.queries_used < SCAN_SHARE * LANE_N
    if inp == "run-mix":
        assert len(trace.rounds) == 3 and 0.16 < trace.report.queries_used / LANE_N < 0.18


def test_refined_pilot_probes_only_its_stride_and_scans(monkeypatch):
    # Refined gamma 0.5 at 1e7 skips round 1, and round 2 plans 0.061 n
    # draws with a bound 7.5 times the budget. Its pilot on all-ones reads
    # past its share of the budget at once, and the search scans instead.
    n = 10**7
    probed, plans = [], []
    real_plan = rle.bucketed_plan

    class Spy(RunProber):
        def __init__(self, session, positions):
            probed.append(np.asarray(positions))
            super().__init__(session, positions)

    monkeypatch.setattr(rle, "RunProber", Spy)
    monkeypatch.setattr(rle, "bucketed_plan", lambda *a: plans.append(real_plan(*a)) or plans[-1])
    arr = all_ones(n)
    trace = rle_refined_search_detailed(acc(arr), 0.5, seed=5)
    (plan,), (pilot,) = plans, probed
    stride = math.ceil(plan.bound / (PILOT_SHARE * SCAN_SHARE * n))
    assert plan.bound > 7 * SCAN_SHARE * n and stride > 100
    draws = make_rng(derive_seed(5, 2)).integers(1, n + 1, size=plan.draws)
    assert np.array_equal(pilot, draws[::stride])
    assert trace.switch == "forecast"
    exact = float(rle_total_cost(arr, 2))
    assert trace.rounds == (SearchRound(2, 0.0, 0.0, exact, exact, exact),)
    assert trace.report.queries_used == n


def test_a_pilot_that_goes_on_changes_nothing(monkeypatch):
    # At 2^16 round 1's bound (17 280) passes the 4x search's budget
    # (16 384), so it probes a pilot first; on alternating input the round
    # goes on and closes, with the estimate and reads of a pass without one.
    n = 2**16
    arr = alternating(n)
    probed = []
    real_init = RunProber.__init__
    monkeypatch.setattr(RunProber, "__init__", lambda self, s, t: probed.append(len(t)) or real_init(self, s, t))
    trace = rle_multiplicative_search_detailed(acc(arr), seed=4)
    plan = bucketed_plan(n, 2, 0.5, 1 / 6)
    assert plan.bound > SCAN_SHARE * n and probed == [38, plan.draws]  # every 17th of 640
    sess = acc(arr).session()
    est = _bucketed_core(sess, plan, derive_seed(4, 1))
    assert trace.switch == "" and [(r.j, r.estimate) for r in trace.rounds] == [(1, est)]
    assert trace.report.queries_used == sess.queries


def test_refined_skips_the_round_that_cannot_stop():
    # At sigma 2 and gamma 0.5, round 1's interval cannot close even at the
    # largest estimate 2n: 2.667 > 2.541. The report is the one that round 1's
    # scan gave before the skip (q = 127k plans a scan at 2^16).
    n = 2**16
    trace = rle_refined_search_detailed(acc(alternating(n)), 0.5, seed=3)
    assert trace.rounds == (SearchRound(2, 0.0, 0.0, 2.0 * n, 2.0 * n, 2.0 * n),)
    assert trace.report == EstimateReport(2.0 * n, 1.5, 0.0, n, 3)
    # the 4x search never skips (7.5 <= 8 at s = 1), nor refined above sigma 2
    for sigma in (2, 4, 256):
        w = acc(np.arange(2**14) % sigma, sigma)
        assert rle_multiplicative_search_detailed(w, seed=1).rounds[0].j == 1
        assert rle_refined_search_detailed(w, 0.5, seed=1).rounds[0].j == (2 if sigma == 2 else 1)


@pytest.mark.parametrize("sigma", [2, 4, 256])
def test_bucketed_estimates_stay_below_the_largest_weight_times_n(sigma):
    # the bound the search's round skip rests on, est <= (1 + s) n, on the
    # costliest input (every run of length 1) and a random one
    n = 2**14
    top = (1 + math.ceil(math.log2(sigma))) * n
    for arr in (np.arange(n) % sigma, random_symbols(n, sigma, seed=sigma)):
        for j in range(1, 6):
            for ratio in (2.0, 1.25):
                plan = bucketed_plan(n, sigma, 2.0**-j, 2.0**-j / 3, ratio)
                if plan.scan:  # the search reports the exact cost then
                    est = rle_total_cost(arr, sigma)
                else:
                    est = _bucketed_core(acc(arr, sigma).session(), plan, seed=j)
                assert est <= top


def test_search_terminates_fast_on_incompressible():
    n = 2**16
    w = acc(alternating(n))
    trace = rle_multiplicative_search_detailed(w, seed=11)
    assert len(trace.rounds) <= 2
    exact = 2 * n
    assert exact / 4 <= trace.report.estimate <= 4 * exact
    assert trace.report.lam == 4.0 and trace.report.epsilon == 0.0


def test_search_continues_while_lower_bound_nonpositive():
    # at 2^16 a pilot would forecast round 1 past the budget unread
    n = 2**18
    w = acc(all_ones(n))
    trace = rle_multiplicative_search_detailed(w, seed=11)
    nonpos = [r for r in trace.rounds if r.lower <= 0]
    assert nonpos, "early rounds must have had nonpositive lower bounds"
    for r in trace.rounds[:-1]:
        assert r.lower <= 0 or r.upper / r.lower > 16
    exact = exact_rle_cost(all_ones(n), 2).total_cost
    assert exact / 4 <= trace.report.estimate <= 4 * exact


def test_search_on_random_binary():
    n = 2**15
    arr = random_symbols(n, 2, seed=42)
    exact = exact_rle_cost(arr, 2).total_cost
    for seed in range(5):
        rep = rle_multiplicative_search(acc(arr), seed=seed)
        assert exact / 4 <= rep.estimate <= 4 * exact


def test_refined_rejects_bad_gamma():
    w = acc(alternating(100))
    for gamma in (0.0, -1.0):
        with pytest.raises(ValueError):
            rle_refined_search(w, gamma, seed=1)


def test_refined_alternating_within_factor():
    n = 2**16
    w = acc(alternating(n))
    exact = 2 * n
    trace = rle_refined_search_detailed(w, 0.5, seed=3)
    est = trace.report.estimate
    assert exact / 1.5 <= est <= 1.5 * exact
    assert trace.report.lam == 1.5


def test_refined_loose_gamma_comparable_to_plain_search():
    n = 2**14
    arr = random_symbols(n, 2, seed=17)
    exact = exact_rle_cost(arr, 2).total_cost
    rep = rle_refined_search(acc(arr), 3.0, seed=2)
    assert exact / 4 <= rep.estimate <= 4 * exact


def test_refined_query_growth_is_polynomial_in_inv_gamma():
    n = 2**16
    arr = random_symbols(n, 2, seed=23)
    q_loose = rle_refined_search(acc(arr), 1.0, seed=4).queries_used
    q_tight = rle_refined_search(acc(arr), 0.25, seed=4).queries_used
    assert q_tight <= 64 * max(1, q_loose)
