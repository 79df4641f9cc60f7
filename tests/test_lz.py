import itertools
import math

import numpy as np
import pytest

from compest import (
    LzEstimateParams,
    QueryCountedString,
    SharedWindowSamples,
    distinct_profile,
    distinguish_compressible,
    estimate_distinct,
    exact_distinct_substrings,
    exact_lz_cost,
    lz_estimate,
    meets_contract,
)
from compest._rng import derive_seed, make_rng
from compest.accessor import QuerySession, ReadPlan
from compest.colors import sample_count
from compest.generators import generate_lz_tight
from compest import lz
from compest.lz import lz_estimate_detailed, window_plan
from naive import all_ones, naive_distinct_prefixes, random_symbols


def acc(arr, sigma=None):
    return QueryCountedString.from_tokens(arr, sigma)


# -- shared samples ---------------------------------------------------------


def _check_counts_against_prefix_reference(sigma):
    arr = make_rng(sigma).integers(0, sigma, size=3000)
    for ell0 in (1, 7, 16):
        for size in (1, 70, 500, 35_000):
            seed = derive_seed(sigma, ell0, size)
            shared = SharedWindowSamples(acc(arr).session(), ell0, size, seed)
            windows = [tuple(arr[t - 1 : t - 1 + ell0].tolist()) for t in shared.starts]
            for ell in range(1, ell0 + 1):
                got = shared.distinct_counts(ell)
                assert got == naive_distinct_prefixes(windows, ell), (sigma, ell0, size, ell)


def test_counting_backends_agree():
    # the sort-and-LCP counter against the set-of-prefix reference; sigma 1 is a constant input
    for sigma in (1, 2, 65, 256):
        _check_counts_against_prefix_reference(sigma)


def test_sort_backend_agrees_on_wide_alphabet():
    # alphabets this wide need 16- and 32-bit sort keys
    for sigma in (50_000, 100_000):
        _check_counts_against_prefix_reference(sigma)


@pytest.mark.parametrize("sigma", [1, 2, 4, 5])
def test_window_pool_word_boundary(sigma, monkeypatch):
    # a pooled window takes bit_length(sigma - 1) bits per symbol, at least 1
    arr = make_rng(sigma).integers(0, sigma, size=400)
    width = 64 // max(1, (sigma - 1).bit_length())
    calls = []
    word_lcps = lz._word_lcps
    monkeypatch.setattr(lz, "_word_lcps", lambda *a: calls.append(1) or word_lcps(*a))
    for ell0, packed in ((width, True), (width + 1, False)):
        calls.clear()
        shared = SharedWindowSamples(acc(arr).session(), ell0, 300, seed=ell0)
        windows = [tuple(arr[t - 1 : t - 1 + ell0].tolist()) for t in shared.starts]
        for ell in range(1, ell0 + 1):
            assert shared.distinct_counts(ell) == naive_distinct_prefixes(windows, ell), (ell0, ell)
        assert bool(calls) == packed


def test_word_lcps_read_the_first_differing_symbol():
    # "0 1^63" and "1 0^63" XOR to 64 set bits, which float64 rounds up to 2^64
    words = np.array([2**63 - 1, 2**63, 2**63], dtype=np.uint64)
    assert lz._word_lcps(words, 64, 1).tolist() == [0, 64]
    words = np.array([0b01_10_11, 0b01_11_00, 0b01_11_01, 0b10_00_00], dtype=np.uint64)
    assert lz._word_lcps(words, 3, 2).tolist() == [1, 2, 0]


@pytest.mark.parametrize(
    "arr",
    [
        np.array([-(2**62)]),
        np.full(40, 7),
        make_rng(3).choice(np.array([-(2**62), -(2**62) + 1, 0, 2**62 - 1, 2**62]), 300),
        make_rng(4).choice(np.array([0, 2**40, 2**41]), 300),
    ],
    ids=["n1", "one-symbol", "int64-near-2^62", "sparse"],
)
def test_window_pool_on_edge_symbols(arr):
    for ell0 in sorted({1, min(arr.size, 8), min(arr.size, 30)}):
        shared = SharedWindowSamples(acc(arr).session(), ell0, 200, seed=ell0)
        windows = [tuple(arr[t - 1 : t - 1 + ell0].tolist()) for t in shared.starts]
        for ell in range(1, ell0 + 1):
            assert shared.distinct_counts(ell) == naive_distinct_prefixes(windows, ell), (ell0, ell)


def test_shared_starts_reused_across_lengths():
    arr = random_symbols(4096, 2, seed=4)
    w = acc(arr)
    shared = SharedWindowSamples(w.session(), 8, 600, seed=5)
    # one start set serves every length: column ell of the windows is the
    # prefix projection, with no fresh draws per length
    starts = shared.starts.copy()
    _ = shared.distinct_counts(2)
    _ = shared.distinct_counts(8)
    assert np.array_equal(shared.starts, starts)
    assert starts.max() <= arr.size - 8 + 1
    assert not shared.starts.flags.writeable


def test_shared_window_reads_within_reuse_budget():
    arr = random_symbols(4096, 2, seed=4)
    w = acc(arr)
    sess = w.session()
    SharedWindowSamples(sess, 8, 600, seed=5)
    assert sess.queries <= 600 * 8


# -- distinct estimation ----------------------------------------------------


def test_estimate_distinct_constant_string():
    w = acc(all_ones(2000))
    est = estimate_distinct(w, 2, B=2.0, delta=0.1, seed=3).estimate
    assert est in (1.0, 2.0)  # d=1 exactly; sampled lane reports B * 1


def test_estimate_distinct_exact_lane_for_small_factor():
    arr = random_symbols(4096, 2, seed=10)
    w = acc(arr)
    rep = estimate_distinct(w, 4, B=0.5, delta=0.1, seed=3)
    assert rep.estimate == exact_distinct_substrings(arr, 4)
    assert rep.lam == 1.0 and rep.confidence == 0.9
    assert rep.queries_used == arr.size  # full scan


def test_estimate_distinct_sampled_contract():
    # A pool of 4 basic samples of length-4 windows reads 160 n / B^2, below n
    # only for B^2 > 160: at B = 4 this length scans.
    arr = random_symbols(4096, 2, seed=20)
    exact = exact_distinct_substrings(arr, 4)
    assert window_plan(arr.size, 4, 4.0, 1 / 30).scan
    assert not window_plan(arr.size, 4, 16.0, 1 / 30).scan
    hits = 0
    for seed in range(100):
        w = acc(arr)
        est = estimate_distinct(w, 4, B=16.0, delta=1 / 30, seed=seed).estimate
        assert est == int(est / 16.0) * 16.0  # B times an integer distinct count
        hits += exact / 16.0 <= est <= 16.0 * exact
    assert hits >= 90


def test_estimate_distinct_validates_length():
    w = acc(random_symbols(100, 2, seed=1))
    with pytest.raises(ValueError):
        estimate_distinct(w, 101, B=2.0, delta=0.1, seed=0)


@pytest.mark.parametrize("B", [0.5, 4.0])  # window_plan sizes a pool only for B > 1
@pytest.mark.parametrize("delta", [5.0, 1.0, 0.0, -0.5])
def test_estimate_distinct_rejects_delta_before_reading(B, delta):
    def provider(idx0):
        raise AssertionError("a position was read")

    w = QueryCountedString.from_provider(provider, 4096, 2)
    with pytest.raises(ValueError, match="delta"):
        estimate_distinct(w, 3, B=B, delta=delta, seed=0)


# -- parameter derivation ----------------------------------------------------


def test_params_example():
    p = LzEstimateParams.derive(8, 0.05, 100_000)
    assert p.ell0 == 5
    assert p.B == pytest.approx(8 / (2 * math.sqrt(math.log2(5))))
    assert p.B == pytest.approx(2.625, abs=0.01)


def test_params_validation():
    with pytest.raises(ValueError):
        LzEstimateParams.derive(1.0, 0.05, 100)
    with pytest.raises(ValueError):
        LzEstimateParams.derive(8, 0.0, 100)
    with pytest.raises(ValueError):
        LzEstimateParams.derive(8, 0.25, 100)  # A * eps = 2


def test_params_clamp_ell0_to_n():
    p = LzEstimateParams.derive(1.5, 0.01, 20)
    assert p.ell0 == 20


# -- full estimator -----------------------------------------------------------


def test_lz_estimate_constant_string_bounded_by_a_plus_eps_n():
    n = 100_000
    w = acc(all_ones(n))
    rep, params, dhat = lz_estimate_detailed(w, 8, 0.05, seed=3)
    assert np.all(dhat >= 1.0)
    assert rep.estimate <= 8 + 0.05 * n + 1e-9
    assert meets_contract(rep, exact_lz_cost(all_ones(n)).total_cost, n)


def test_lz_estimate_contract_on_random_binary():
    n = 50_000
    arr = random_symbols(n, 2, seed=14)
    exact = exact_lz_cost(arr).total_cost
    for seed in range(5):
        rep = lz_estimate(acc(arr), 8, 0.05, seed=seed)
        assert meets_contract(rep, exact, n)
        assert rep.lam == 8 and rep.epsilon == 0.05


def test_lz_estimate_sandwich_with_exact_profile():
    # the estimate built from exact counts respects the structural sandwich
    for seed in range(10):
        arr = random_symbols(2048, 2, seed + 50)
        ell0 = 8
        prof = distinct_profile(arr, ell0)
        m = max(prof[ell - 1] / ell for ell in range(1, ell0 + 1))
        c = exact_lz_cost(arr).total_cost
        assert m <= c <= 4 * (m * math.log2(ell0) + arr.size / ell0)


def test_lz_estimate_deterministic_replay():
    arr = random_symbols(30_000, 2, seed=9)
    assert lz_estimate(acc(arr), 8, 0.05, seed=4) == lz_estimate(acc(arr), 8, 0.05, seed=4)


def plan_of(n, A, eps):
    p = LzEstimateParams.derive(A, eps, n)
    return window_plan(n, p.ell0, p.B)


def test_window_plan_scans_once_pool_reads_reach_n():
    # Plans only, no reads. The pool is one basic sample of windows. (16, 0.02)
    # draws 0.41 n window starts, 2.9 n window reads, so it scans; (32, 0.01)
    # plans 0.72 n reads and samples.
    n = 200_000
    p = LzEstimateParams.derive(16, 0.02, n)
    assert p.ell0 == 7 and sample_count(n - p.ell0 + 1, p.B) * p.ell0 > 2.8 * n
    assert sample_count(n - p.ell0 + 1, p.B) < 0.42 * n
    assert plan_of(n, 16, 0.02) == ReadPlan(True, 0, n)
    p = LzEstimateParams.derive(32, 0.01, n)
    plan = plan_of(n, 32, 0.01)
    assert not plan.scan and plan.draws == sample_count(n - p.ell0 + 1, p.B)
    assert plan.bound == plan.draws * p.ell0 < 0.73 * n


def test_lz_query_ceiling_at_reference_params():
    # (8, 0.05) takes the exact lane: it reads, and is bounded by, all of n
    n = 100_000
    arr = random_symbols(n, 2, seed=31)
    rep = lz_estimate(acc(arr), 8, 0.05, seed=0)
    plan = plan_of(n, 8, 0.05)
    assert plan.scan and rep.queries_used <= plan.bound == n


@pytest.fixture(scope="module")
def sampled_lane_inputs():
    """n = 2e5 inputs that the lz-sampled settings estimate from a window pool."""
    n = 200_000
    inputs = {
        "random-bytes": random_symbols(n, 256, seed=61),
        "random-binary": random_symbols(n, 2, seed=62),
        "blocks": np.tile(random_symbols(1000, 256, seed=63), n // 1000),
    }
    return {name: (arr, exact_lz_cost(arr).total_cost) for name, arr in inputs.items()}


def test_lz_query_ceiling_on_sampled_lane(sampled_lane_inputs):
    # every lz-sampled setting
    for (A, eps), (name, (arr, _)) in itertools.product(
        [(32, 0.01), (64, 0.005), (128, 0.001)], sampled_lane_inputs.items()
    ):
        plan = plan_of(arr.size, A, eps)
        p = LzEstimateParams.derive(A, eps, arr.size)
        assert not plan.scan and plan.bound == plan.draws * p.ell0
        rep = lz_estimate(acc(arr), A, eps, seed=0)
        assert rep.queries_used <= plan.bound < arr.size, (A, eps, name, rep.queries_used)


@pytest.mark.parametrize("A, eps", [(32, 0.01), (64, 0.005)])
def test_lz_contract_on_sampled_lane(sampled_lane_inputs, A, eps):
    for name, (arr, exact) in sampled_lane_inputs.items():
        n = arr.size
        assert not plan_of(n, A, eps).scan
        upper = two_sided = 0
        for seed in range(20):
            rep = lz_estimate(acc(arr), A, eps, seed=seed)
            upper += rep.estimate <= A * exact + eps * n
            two_sided += meets_contract(rep, exact, n)
        assert upper == 20 and two_sided >= 18, (name, upper, two_sided)


@pytest.mark.parametrize("j", [1, 2, 3])
def test_lz_lower_side_at_its_one_length(j):
    # The pool is one basic sample because the lower side needs only the length
    # ell* that attains m. Here ell* = 1: lztight's first phase, the d_1 - 1
    # distinct symbols, planted once in zeros, with d_1 just above j * B^2.
    # Every other length has d_ell / ell <= (m + 1) / 2 and cannot stand in.
    # With no eps * n slack the check can fail: cutting the pool to 1/8 of its
    # size fails it (j = 1: 59 of 90), and 1/7 still passes.
    n, A, eps, trials = 50_000, 64, 0.005, 90
    p = LzEstimateParams.derive(A, eps, n)
    arr = np.zeros(n, dtype=np.int64)
    d1 = math.floor(j * p.B**2) + 1
    arr[n // 2 : n // 2 + d1 - 1] = generate_lz_tight(d1 - 1, 1)
    prof = distinct_profile(arr, p.ell0)
    ratios = prof / np.arange(1, p.ell0 + 1)
    m = ratios[0]
    assert prof[0] == d1 > j * p.B**2 and ratios[1:].max() <= (m + 1) / 2
    assert not plan_of(n, A, eps).scan
    lower = 0
    for seed in range(trials):
        _, _, dhat = lz_estimate_detailed(acc(arr), A, eps, seed=seed)
        assert np.all(dhat <= p.B * prof), seed
        lower += (dhat / np.arange(1, p.ell0 + 1)).max() >= m / p.B
    assert 3 * lower >= 2 * trials, lower


# -- distinguisher ------------------------------------------------------------


def test_distinguish_constant_vs_random_bytes():
    n = 100_000
    lo, hi = math.sqrt(n), n / 4
    res = distinguish_compressible(acc(all_ones(n)), lo, hi, seed=1)
    assert res.verdict == "LOW"
    arr = random_symbols(n, 256, seed=2)
    res = distinguish_compressible(acc(arr, 256), lo, hi, seed=1)
    assert res.verdict == "HIGH"


def test_distinguish_rejects_small_gap():
    w = acc(random_symbols(1000, 2, seed=1))
    with pytest.raises(ValueError, match="gap too small"):
        distinguish_compressible(w, 100, 399, seed=0)  # ratio < 4
    with pytest.raises(ValueError):
        distinguish_compressible(w, 100, 50, seed=0)


def test_distinguish_derived_parameters_recorded():
    n = 10_000
    w = acc(random_symbols(n, 2, seed=3))
    res = distinguish_compressible(w, 20, 2000, seed=5)
    assert res.A == pytest.approx(math.sqrt(100) / 2)
    assert res.epsilon == pytest.approx(20 * res.A / n)
    assert res.report.lam == res.A


# -- query reuse at scale ------------------------------------------------------


def test_sampled_lane_reuses_queries_across_lengths():
    # pick parameters where the sampling lane is genuinely sublinear
    n = 60_000
    arr = random_symbols(n, 2, seed=8)
    w = acc(arr)
    rep, params, _ = lz_estimate_detailed(w, 16, 0.05, seed=2)
    plan = window_plan(n, params.ell0, params.B)
    assert not plan.scan and plan.bound == plan.draws * params.ell0 < n
    assert rep.queries_used <= plan.bound


def test_sampled_lane_counts_its_reads_once(monkeypatch):
    # On the ledger's bitmap side a count is an O(n) count_nonzero: the run's
    # one count is its plan check, and the report reuses it
    sessions = []
    real = QuerySession.queries
    monkeypatch.setattr(QuerySession, "queries", property(lambda self: sessions.append(self) or real.fget(self)))
    arr = random_symbols(60_000, 2, seed=8)
    assert not window_plan(arr.size, 4, 16.0, 1 / 30).scan
    for run in (lambda w: lz_estimate(w, 16, 0.05, seed=2), lambda w: estimate_distinct(w, 4, 16.0, 1 / 30, seed=2)):
        sessions.clear()
        rep = run(acc(arr))
        assert len(sessions) == 1 and sessions[0]._touched._bitmap is not None
        assert rep.queries_used == real.fget(sessions[0]) > arr.size // 64
