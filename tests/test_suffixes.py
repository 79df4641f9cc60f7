import numpy as np
import pytest

from compest.suffixes import lcp_array, longest_previous_factor, lz_factorize, suffix_array
from naive import naive_lcp, naive_lpf, naive_suffix_array, random_symbols


def _fibonacci_word(n: int) -> np.ndarray:
    a, b = [0], [0, 1]
    while len(b) < n:
        a, b = b, b + a
    return np.array(b[:n], dtype=np.uint8)


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


CORPUS = list(_corpus())


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
    assert lz_factorize(arr) == walk


@pytest.mark.parametrize(
    "arr", [np.full(33, 2), np.tile([0, 1, 1], 14)[:40], _fibonacci_word(89), random_symbols(150, 2, 5)]
)
def test_rank_levels_mark_equal_prefixes(arr):
    n = arr.size
    sa, ranks = suffix_array(arr)
    seq = arr.tolist()
    for level, rank in enumerate(ranks):
        width = 1 << level
        assert rank.dtype == np.int32 and rank[n] == -1
        for i in range(n):
            for j in range(n):
                same = seq[i : i + width] == seq[j : j + width]
                assert (rank[i] == rank[j]) == same
    assert np.unique(ranks[-1][:n]).size == n


def test_suffix_array_rejects_int32_overflow():
    too_long = np.broadcast_to(np.uint8(0), (2**31,))  # a view: nothing is allocated
    with pytest.raises(ValueError):
        suffix_array(too_long)


def test_empty_input():
    sa, ranks = suffix_array(np.array([], dtype=np.uint8))
    assert sa.size == 0 and ranks == []
    assert lz_factorize(np.array([], dtype=np.uint8)) == []
