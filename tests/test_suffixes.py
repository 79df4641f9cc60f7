import numpy as np
import pytest

from compest._rng import make_rng
from compest.campaign import build_builtin
from compest.suffixes import (
    _pack_keys,
    distinct_length_profile,
    lcp_array,
    longest_previous_factor,
    lz_factorize,
    suffix_array,
)
from naive import naive_distinct, naive_lcp, naive_lpf, naive_suffix_array, random_symbols, stack_lpf


def _fibonacci_word(n: int) -> np.ndarray:
    a, b = [0], [0, 1]
    while len(b) < n:
        a, b = b, b + a
    return np.array(b[:n], dtype=np.uint8)


def _run_mix(n: int, max_run: int, sigma: int, seed: int) -> np.ndarray:
    """Runs of uniform length 1..max_run, each of a uniform symbol below sigma."""
    rng = make_rng(seed)
    return np.repeat(rng.integers(0, sigma, n), rng.integers(1, max_run + 1, n))[:n].astype(np.uint8)


def _corpus():
    rng = np.random.default_rng(11)
    yield np.array([7])
    yield np.array([-3])
    for n in (2, 5, 64, 300):
        yield np.full(n, 4, dtype=np.uint8)
    for period in range(1, 9):
        for n in (period, 3 * period + 1, 200):
            yield np.tile(rng.integers(0, 3, period), n)[:n]
    yield _fibonacci_word(610)
    yield rng.integers(0, 70_000, 400)
    yield np.tile(rng.integers(0, 70_000, 9), 30)
    yield rng.integers(-5, 3, 350)
    yield np.arange(120)[::-1].copy()
    for seed in range(18):
        sigma = (2, 4, 256)[seed % 3]
        yield random_symbols(1 + (seed * 97) % 600, sigma, seed + 300)
    # no peak-elimination round runs on these: the stack pass does everything
    yield np.repeat([0, 1], 1000).astype(np.uint8)
    yield np.repeat([0, 1, 2], 1000).astype(np.uint8)
    yield np.arange(3000)
    # the rounds stop with survivors left for the stack pass
    for max_run, sigma in ((8, 2), (32, 4), (200, 2)):
        yield _run_mix(3000, max_run, sigma, seed=max_run + sigma)
    yield np.concatenate([random_symbols(1000, 2, 7), np.ones(2000, dtype=np.uint8)])


CORPUS = list(_corpus())
LEVEL_INPUTS = [np.full(33, 2), np.tile([0, 1, 1], 14)[:40], _fibonacci_word(89), random_symbols(150, 2, 5)]


@pytest.mark.parametrize("arr", CORPUS, ids=[f"{i}-n{a.size}" for i, a in enumerate(CORPUS)])
def test_suffix_layer_matches_naive(arr):
    sa, ranks = suffix_array(arr)
    assert sa.tolist() == naive_suffix_array(arr)
    lcp = lcp_array(sa, ranks)
    assert lcp.tolist() == naive_lcp(arr, sa.tolist())
    lpf = naive_lpf(arr)
    assert longest_previous_factor(sa, lcp) == lpf
    t, walk = 0, []
    while t < arr.size:
        walk.append((t, max(1, lpf[t])))
        t += walk[-1][1]
    starts, lengths = lz_factorize(arr)
    assert starts.dtype == lengths.dtype == np.int64
    assert list(zip(starts.tolist(), lengths.tolist())) == walk


LPF_KINDS = {
    "random-binary": lambda n: random_symbols(n, 2, n + 1),
    "random-bytes": lambda n: random_symbols(n, 256, n + 2),
    "run-mix": lambda n: build_builtin("run-mix", n, n + 3),
    "all-ones": lambda n: np.ones(n, dtype=np.uint8),
    "period-8": lambda n: np.tile(np.array([0, 1, 1, 0, 1, 0, 0, 0], dtype=np.uint8), n // 8 + 1)[:n],
    "fibonacci": _fibonacci_word,
}


@pytest.mark.parametrize("n", [50_000, 200_000])
@pytest.mark.parametrize("kind", LPF_KINDS)
def test_lpf_matches_stack_pass(kind, n):
    sa, ranks = suffix_array(LPF_KINDS[kind](n))
    lcp = lcp_array(sa, ranks)
    assert longest_previous_factor(sa, lcp) == stack_lpf(sa, lcp)


@pytest.mark.parametrize("arr", LEVEL_INPUTS)
def test_rank_levels_mark_equal_prefixes(arr):
    _, ranks = suffix_array(arr)
    _assert_levels_mark_equal_prefixes(arr, ranks)
    assert np.unique(ranks[-1][: arr.size]).size == arr.size


def _assert_levels_mark_equal_prefixes(arr, ranks):
    n = arr.size
    seq = arr.tolist()
    for level, rank in enumerate(ranks):
        width = 1 << level
        assert rank.dtype == np.int32 and rank[n] == -1
        for i in range(n):
            for j in range(n):
                same = seq[i : i + width] == seq[j : j + width]
                assert (rank[i] == rank[j]) == same


@pytest.mark.parametrize("arr", CORPUS, ids=[f"{i}-n{a.size}" for i, a in enumerate(CORPUS)])
def test_capped_distinct_profile_matches_naive(arr):
    naive = [naive_distinct(arr, ell) for ell in range(1, min(33, arr.size) + 1)]
    naive += [0] * (33 - len(naive))  # no windows longer than the input
    for ell_max in (1, 2, 3, 5, 8, 16, 32, 33):
        prof = distinct_length_profile(arr, ell_max)
        assert prof.tolist() == naive[:ell_max]


@pytest.mark.parametrize("arr", LEVEL_INPUTS)
@pytest.mark.parametrize("stop", [1, 2, 3, 4, 5, 8])
def test_capped_levels_mark_equal_prefixes(arr, stop):
    sa, ranks = suffix_array(arr, stop=stop)
    assert len(ranks) == min(len(suffix_array(arr)[1]), 1 + (stop - 1).bit_length())
    _assert_levels_mark_equal_prefixes(arr, ranks)
    # sorted by length-2^top prefixes, ties in text order
    seq = arr.tolist()
    width = 1 << (len(ranks) - 1)
    keys = [(seq[i : i + width], i) for i in sa.tolist()]
    assert keys == sorted(keys)
    naive = np.array(naive_lcp(arr, sa.tolist()))
    assert lcp_array(sa, ranks).tolist() == np.minimum(naive, width).tolist()


def _prefix_sorted(arr: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Starts sorted by their first ``width`` symbols (-1 past the end) and the
    adjacent LCPs, given that those prefixes are all distinct."""
    n = arr.size
    padded = np.concatenate([arr.astype(np.int64), np.full(width, -1)])
    rows = padded[np.arange(n)[:, None] + np.arange(width)]
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    same = np.logical_and.accumulate(rows[1:] == rows[:-1], axis=1)
    assert not same[:, -1].any(), "prefixes must be distinct"
    return order, np.concatenate([[0], same.sum(axis=1)])


@pytest.mark.parametrize(
    "arr, width",
    [
        (make_rng(41).integers(0, 200_000, 150_000), 4),  # 105 519 symbols: uint64 keys
        (make_rng(42).integers(0, 2, 150_000).astype(np.uint8), 64),  # uint8 through uint32 keys
    ],
    ids=["sigma-200k", "binary"],
)
def test_wide_packed_keys(arr, width):
    sa, ranks = suffix_array(arr)
    order, lcp = _prefix_sorted(arr, width)
    assert np.array_equal(sa, order)
    assert np.array_equal(lcp_array(sa, ranks), lcp)


@pytest.mark.parametrize(
    "top, dtype",
    [(0, np.uint8), (13, np.uint8), (14, np.uint16), (65_533, np.uint32), (65_534, np.uint64), (2**31 - 2, np.uint64)],
)
def test_pack_keys_are_exact(top, dtype):
    # top = 2^31 - 2 is the largest rank below n = 2^31; its keys near 2^62
    # differ by 1, which float64 arithmetic would round together
    pattern = [top, top, top, top - 1, top, 0, 1, top, top - 1, 0, top, top]
    n = len(pattern)
    rank = np.array([max(r, 0) for r in pattern] + [-1], dtype=np.int32)
    for k in (1, 2, 4, 8):
        key = _pack_keys(rank, k, top)
        assert key.dtype == dtype
        want = [int(rank[i]) * (top + 2) + (int(rank[i + k]) + 1 if i + k < n else 0) for i in range(n)]
        assert [int(v) for v in key] == want


def test_suffix_array_rejects_int32_overflow():
    too_long = np.broadcast_to(np.uint8(0), (2**31,))  # a view: nothing is allocated
    with pytest.raises(ValueError):
        suffix_array(too_long)


def test_empty_input():
    sa, ranks = suffix_array(np.array([], dtype=np.uint8))
    assert sa.size == 0 and ranks == []
    starts, lengths = lz_factorize(np.array([], dtype=np.uint8))
    assert starts.size == lengths.size == 0
