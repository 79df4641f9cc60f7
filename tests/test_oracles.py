import itertools
import math

import numpy as np
import pytest

from compest import (
    QueryCountedString,
    distinct_profile,
    exact_color_count,
    exact_distinct_substrings,
    exact_lz_cost,
    exact_rle_cost,
    verify_structural_lemmas,
)
from compest import oracles
from compest.campaign import ESTIMATORS
from compest.oracles import alphabet_bits, rle_total_cost, run_cost
from naive import (
    all_ones,
    alternating,
    ceil_log2,
    expand_lz_parts,
    naive_color_count,
    naive_distinct,
    naive_lz_parts,
    naive_rle_cost,
    random_symbols,
    rle_length_bits,
)


# -- RLE ---------------------------------------------------------------


def test_rle_examples():
    assert exact_rle_cost(np.array([0, 0, 1, 1]), 2).total_cost == 6
    assert exact_rle_cost(np.array([1, 1, 1, 1]), 2).total_cost == 4


def test_rle_parts_tile_and_sum():
    arr = random_symbols(400, 4, seed=11)
    b = exact_rle_cost(arr, 4)
    assert b.starts.dtype == b.lengths.dtype == b.costs.dtype == np.int64
    covered = 0
    prev_sym = None
    for start, length, cost in zip(b.starts.tolist(), b.lengths.tolist(), b.costs.tolist()):
        assert start == covered + 1
        sym = arr[start - 1]
        assert np.all(arr[start - 1 : start - 1 + length] == sym)
        assert prev_sym is None or sym != prev_sym  # adjacent runs differ
        prev_sym = sym
        covered += length
    assert covered == arr.size
    assert sum(b.costs.tolist()) == b.total_cost


def test_rle_matches_naive_scan():
    for seed in range(40):
        sigma = (2, 4, 26)[seed % 3]
        arr = random_symbols(1 + seed * 13 % 300 + 2, sigma, seed)
        assert exact_rle_cost(arr, sigma).total_cost == naive_rle_cost(arr.tolist(), sigma)


def test_rle_alphabet_validation():
    with pytest.raises(ValueError):
        exact_rle_cost(np.arange(10), 4)
    with pytest.raises(ValueError):
        exact_rle_cost(np.array([], dtype=np.uint8), 2)


def test_rle_length_bits_component():
    arr = np.array([0, 0, 0, 1, 0, 0])
    # runs 3,1,2 -> ceil(log2(4)) + ceil(log2(2)) + ceil(log2(3)) = 2 + 1 + 2
    assert rle_length_bits(arr) == 5
    assert exact_rle_cost(arr, 2).costs.tolist() == [3, 2, 3]


@pytest.mark.parametrize("arr", [all_ones(50), np.array([7]), np.full(9, 300, dtype=np.int64)],
                         ids=["ones", "n-1", "wide-symbol"])
def test_one_symbol_declared_alphabet_prices_two(arr):
    # a declared sigma of 1 counts as 2 in the oracle, as it does in the accessor
    acc = QueryCountedString.from_tokens(arr, 1)
    total = exact_rle_cost(arr, 1).total_cost
    assert acc.alphabet_size == 2
    assert total == rle_total_cost(acc.session().read_all(), acc.alphabet_size)
    assert total == ESTIMATORS["rle-additive"].exact(acc) == naive_rle_cost(arr.tolist(), 2)


@pytest.mark.parametrize("sigma", [2, 3, 256, 2**40])
def test_run_cost_at_powers_of_two(sigma):
    # the exponent field is exact for every length below 2^53: check it at 1,
    # 2 and at and next to every power of two up to 2^53 - 1, against integers
    lengths = sorted({1, 2} | {2**k + d for k in range(2, 54) for d in (-1, 0, 1)} - {2**53, 2**53 + 1})
    expect = [ell.bit_length() + (sigma - 1).bit_length() for ell in lengths]
    assert run_cost(np.array(lengths, dtype=np.int64), sigma).tolist() == expect
    assert [run_cost(ell, sigma) for ell in lengths] == expect


def run_pass_corpus():
    """(symbols, sigma): n = 1, one run, all runs of 1, long runs, and int64
    symbols near +-2^62 from up to 70 000 values."""
    rng = np.random.default_rng(17)
    yield np.array([3]), 2
    yield all_ones(40), 2
    yield alternating(41), 2
    for _ in range(4):
        runs = rng.integers(1, 30, size=25)
        yield np.repeat(rng.integers(0, 3, size=runs.size).astype(np.uint8), runs), 3
    for sign in (1, -1):
        values = sign * 2**62 + rng.integers(0, 70_000, size=60)
        yield np.repeat(values, rng.integers(1, 5, size=60)), 70_000


def grouped_run_lengths(arr) -> np.ndarray:
    return np.array([len(list(run)) for _, run in itertools.groupby(arr.tolist())])


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
def test_chunked_run_pass_matches_the_columns(monkeypatch, chunk):
    # runs cross many chunk edges at these sizes, and the open run is carried over each
    monkeypatch.setattr(oracles, "RUN_CHUNK", chunk)
    for arr, sigma in run_pass_corpus():
        lengths = exact_rle_cost(arr, sigma).lengths
        assert np.array_equal(lengths, grouped_run_lengths(arr))
        total = rle_total_cost(arr, sigma)
        assert total == exact_rle_cost(arr, sigma).total_cost == naive_rle_cost(arr.tolist(), sigma)
        assert rle_length_bits(arr) == total - lengths.size * math.ceil(math.log2(sigma))


@pytest.mark.parametrize("chunk", [None, 1 << 10])
def test_run_pass_bits_at_powers_of_two(monkeypatch, chunk):
    # the pass reads ceil(log2(ell + 1)) off the float64 exponent field: check
    # it at and next to every power of two up to 2^20, at the shipped chunk
    # and at one that the long runs span many times
    if chunk is not None:
        monkeypatch.setattr(oracles, "RUN_CHUNK", chunk)
    lengths = np.random.default_rng(3).permutation([2**k + d for k in range(21) for d in (-1, 0, 1) if 2**k + d])
    arr = np.repeat(np.arange(lengths.size) % 3, lengths).astype(np.uint8)
    bits = sum(int(ell).bit_length() for ell in lengths)
    assert rle_length_bits(arr) == bits
    assert rle_total_cost(arr, 3) == exact_rle_cost(arr, 3).total_cost == bits + 2 * lengths.size
    assert exact_rle_cost(arr, 3).costs.tolist() == [int(ell).bit_length() + 2 for ell in lengths]


def test_integer_bit_math_matches_ceil_log2():
    # alphabet_bits(s) = bit_length(s - 1) and ceil(log2(x + 1)) = bit_length(x),
    # the integer forms of ceil(log2(.)) that run_cost is tested against
    small = range(1, 2**16 + 2)
    expect = [ceil_log2(v) for v in small]
    assert [alphabet_bits(s) for s in small[1:]] == expect[1:]
    assert [x.bit_length() for x in small[:-1]] == expect[1:]
    for k in range(17, 63):
        for v in (2**k - 1, 2**k, 2**k + 1):
            assert alphabet_bits(v) == (v - 1).bit_length() == ceil_log2(v)


# -- LZ ----------------------------------------------------------------


def test_lz_examples():
    assert exact_lz_cost("abab").total_cost == 3
    assert exact_lz_cost("aaaa").total_cost == 2  # overlapping source
    distinct = np.arange(30)
    assert exact_lz_cost(distinct).total_cost == 30


def test_lz_parts_tile():
    arr = random_symbols(500, 2, seed=3)
    b = exact_lz_cost(arr)
    assert b.starts.dtype == b.lengths.dtype == b.costs.dtype == np.int64
    covered = 0
    for start, length, cost in zip(b.starts.tolist(), b.lengths.tolist(), b.costs.tolist()):
        assert start == covered + 1 and cost == 1
        covered += length
    assert covered == arr.size
    assert b.total_cost == b.starts.size == b.lengths.size == b.costs.size


def test_lz_matches_naive_quadratic():
    for seed in range(60):
        sigma = (2, 4, 26)[seed % 3]
        n = 2 + (seed * 37) % 300
        arr = random_symbols(n, sigma, seed + 1000)
        naive = naive_lz_parts(arr)
        fast = exact_lz_cost(arr)
        assert fast.total_cost == len(naive)
        assert list(zip(fast.starts.tolist(), fast.lengths.tolist())) == [
            (s + 1, ln) for s, ln, _ in naive
        ]


def test_lz_decompression_identity():
    for seed in range(25):
        arr = random_symbols(2 + seed * 11 % 200, 3, seed + 77)
        parts = naive_lz_parts(arr)
        assert np.array_equal(expand_lz_parts(parts, arr), arr)


# -- distinct substrings / colors ---------------------------------------


def test_distinct_examples():
    assert exact_distinct_substrings("aaaa", 2) == 1
    assert exact_distinct_substrings("abab", 2) == 2
    assert exact_distinct_substrings("abcabc", 3) == 3
    with pytest.raises(ValueError):
        exact_distinct_substrings("abc", 4)


def test_distinct_profile_matches_window_scan():
    for seed in range(15):
        arr = random_symbols(5 + seed * 17 % 240 + 3, (2, 4, 26)[seed % 3], seed + 5)
        ell_max = min(12, arr.size)
        prof = distinct_profile(arr, ell_max)
        for ell in range(1, ell_max + 1):
            assert prof[ell - 1] == exact_distinct_substrings(arr, ell) == naive_distinct(arr, ell)


def test_distinct_profile_pads_lengths_past_n():
    assert distinct_profile(np.array([1, 2, 1]), 5).tolist() == [2, 2, 1, 0, 0]
    assert distinct_profile("a", 3).tolist() == [1, 0, 0]


def test_distinct_bounds():
    arr = random_symbols(200, 4, seed=9)
    n = arr.size
    for ell in (1, 2, 5, 10):
        d = exact_distinct_substrings(arr, ell)
        assert 1 <= d <= min(4**ell, n - ell + 1)


def test_color_count():
    assert exact_color_count("aaaa") == 1
    assert exact_color_count("abca") == 3
    arr = random_symbols(1000, 50, seed=4)
    assert exact_color_count(arr) == naive_color_count(arr)


# -- structural inequalities --------------------------------------------


def test_lemma_report_examples():
    rep = verify_structural_lemmas("abab", 2)
    assert rep.c_lz == 3 and rep.d == (2, 2)
    assert rep["diversity_lower_bound"].holds
    rep = verify_structural_lemmas("aaaa", 2)
    assert rep.c_lz == 2 and rep.m == 1.0
    assert rep["diversity_upper_bound"].holds
    assert rep.all_hold


def test_lemmas_on_random_corpus():
    for seed in range(60):
        arr = random_symbols(256, 2, seed + 31)
        rep = verify_structural_lemmas(arr, 16)
        assert rep.all_hold, rep


def test_lemmas_edge_ell0_one():
    rep = verify_structural_lemmas("abab", 1)
    assert rep.all_hold  # upper bound and segment-mass checks are skipped
    assert rep["diversity_upper_bound"].witness.get("skipped")


def test_d1_at_most_c_lz():
    for seed in range(20):
        arr = random_symbols(300, 26, seed)
        assert exact_distinct_substrings(arr, 1) <= exact_lz_cost(arr).total_cost


def test_oracles_reject_accessors():
    # an accessor is read through a session or materialize(), never by an oracle
    w = QueryCountedString.from_string("abab")
    with pytest.raises(ValueError):
        exact_lz_cost(w)
    with pytest.raises(ValueError):
        exact_rle_cost(w)
    assert exact_lz_cost(w.materialize()).total_cost == 3
