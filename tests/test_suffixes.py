import functools

import numpy as np
import pytest

from compest import suffixes
from compest._rng import make_rng
from compest.campaign import build_builtin
from compest.suffixes import (
    _pack_windows,
    _pair_order,
    distinct_length_profile,
    lcp_array,
    longest_previous_factor,
    lz_factorize,
    suffix_array,
    symbol_ranks,
    word_lcps,
)
from naive import (
    _extension_table,
    naive_distinct,
    naive_lcp,
    naive_lpf,
    naive_suffix_array,
    random_symbols,
    stack_lpf,
)


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
    # wide symbol values: int64 near +-2^62, whose range overflows int64, and a sparse alphabet
    yield rng.choice(np.array([-(2**62), -(2**62) + 1, 0, 2**62 - 1, 2**62]), 300)
    yield rng.choice(np.array([0, 2**40, 2**41]), 300)
    yield np.array([-(2**62)])
    yield np.full(5, 2**41)


CORPUS = list(_corpus())
LEVEL_INPUTS = [np.full(33, 2), np.tile([0, 1, 1], 14)[:40], _fibonacci_word(89), random_symbols(150, 2, 5)]


def _naive_levels(arr: np.ndarray) -> list[np.ndarray]:
    """Rank levels 0..D from the naive suffix and LCP arrays, D the first
    level at which all 2^D-prefixes differ. Sorted suffixes keep equal
    prefixes together, so the rank of a 2^L-prefix (cut at the end of the
    text) goes up by one wherever the LCP falls below 2^L; -1 at index n."""
    return _naive_levels_of(arr.dtype.str, arr.tobytes())


@functools.cache
def _naive_levels_of(dtype: str, data: bytes) -> list[np.ndarray]:
    arr = np.frombuffer(data, dtype=dtype)
    sa = naive_suffix_array(arr)
    lcp = np.array(naive_lcp(arr, sa))
    levels = []
    for level in range(int(lcp.max()).bit_length() + 1):
        rank = np.full(arr.size + 1, -1, dtype=np.int32)
        rank[sa] = np.cumsum(lcp < 1 << level) - 1  # lcp[0] = 0 starts rank 0
        levels.append(rank)
    return levels


def _unbuilt_levels(arr: np.ndarray, top: int, stop: int | None = None) -> list[int]:
    """The levels that ``suffix_array`` should leave ``None``: those below
    the first sort's top level F, and the top level ``top`` unless it is
    level 0, as nothing reads it. F is counted up one level at a time: the
    most levels whose 2^F symbol ranks, at (sigma - 1).bit_length() bits each
    (at least 1), fit in a word beside a position, and no higher than the
    first level whose prefixes all differ or whose length reaches ``stop``.
    Every level that ``lcp_array`` reads must be built too: the LCP checks
    fail on a ``None`` level."""
    bits = max(1, (len(set(arr.tolist())) - 1).bit_length())
    p = (arr.size - 1).bit_length()
    distinct = len(_naive_levels(arr)) - 1
    f = 0  # 0: no first sort
    while (2 << f) * bits + p <= suffixes._WORD and f < distinct and (stop is None or 1 << f < stop):
        f += 1
    return sorted(set(range(1, f)) | ({top} - {0}))


def _none_levels(ranks) -> list[int]:
    return [level for level, rank in enumerate(ranks) if rank is None]


@pytest.mark.parametrize("arr", CORPUS, ids=[f"{i}-n{a.size}" for i, a in enumerate(CORPUS)])
def test_suffix_layer_matches_naive(arr):
    sa, ranks = suffix_array(arr)
    assert sa.tolist() == naive_suffix_array(arr)
    naive = _naive_levels(arr)
    assert len(ranks) == len(naive)  # the doubling stops at the first distinct level
    assert _none_levels(ranks) == _unbuilt_levels(arr, len(ranks) - 1)
    for rank, want in zip(ranks, naive):
        assert rank is None or (rank.dtype == np.int32 and np.array_equal(rank, want))
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


def test_lpf_compaction_block_edges(monkeypatch):
    # blocks of 7 put compaction edges all through every round's start and
    # side arrays; n = 1 and constant strings run no round at all
    inputs = [LPF_KINDS[kind](n) for kind in LPF_KINDS for n in (1, 2, 9, 700, 3000)] + CORPUS
    cases = [(sa, lcp_array(sa, ranks)) for sa, ranks in map(suffix_array, inputs)]
    monkeypatch.setattr(suffixes, "_CHUNK", 7)
    for sa, lcp in cases:
        assert longest_previous_factor(sa, lcp) == stack_lpf(sa, lcp), sa.size


@pytest.mark.parametrize("arr", LEVEL_INPUTS)
def test_rank_levels_mark_equal_prefixes(arr):
    _, ranks = suffix_array(arr)
    _assert_levels_mark_equal_prefixes(arr, ranks)
    seq, top = arr.tolist(), len(ranks) - 1
    prefixes = [{tuple(seq[i : i + (1 << level)]) for i in range(arr.size)} for level in range(top + 1)]
    distinct = [len(seen) == arr.size for seen in prefixes]
    assert distinct[-1] and not any(distinct[:-1])  # the doubling stops at the first distinct level


def _assert_levels_mark_equal_prefixes(arr, ranks, stop=None):
    n = arr.size
    seq = arr.tolist()
    assert _none_levels(ranks) == _unbuilt_levels(arr, len(ranks) - 1, stop)
    for level, rank in enumerate(ranks):
        if rank is None:
            continue
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
    _assert_levels_mark_equal_prefixes(arr, ranks, stop)
    # sorted by length-2^top prefixes, ties in text order
    seq = arr.tolist()
    width = 1 << (len(ranks) - 1)
    keys = [(seq[i : i + width], i) for i in sa.tolist()]
    assert keys == sorted(keys)
    naive = np.array(naive_lcp(arr, sa.tolist()))
    assert lcp_array(sa, ranks).tolist() == np.minimum(naive, width).tolist()


def _padded_tie_inputs(n: int, sigma: int) -> list[np.ndarray]:
    """Two strings of length n over symbols below sigma whose zero-padded
    windows tie: one ends in a run of the smallest symbol, whose tails pad
    to the same words as each other and as the run's full windows; in the
    other the tail u of length m also occurs earlier as u followed by zeros."""
    rng = make_rng(n * 1000 + sigma)
    ends_in_zeros = rng.integers(0, sigma, n)
    ends_in_zeros[n - 1 - n // 3 :] = 0
    m = 1 + n * 37 % max(1, min(63, n // 2))
    u = rng.integers(0, sigma, m)
    zeros = (n - 2 * m) * 2 // 3
    lead = rng.integers(0, sigma, max(0, n - 2 * m - zeros))
    twin = np.concatenate([lead, u, np.zeros(max(0, zeros), dtype=np.int64), u])[-n:]
    return [ends_in_zeros, twin]


@pytest.mark.parametrize("sigma", [1, 2, 3, 4, 5, 64, 256])
def test_padded_tails_match_naive(sigma):
    # every window width of the first sort (4..32 symbols here) and of the LCP
    # words (8..64) exceeds some n, so every tail length and end-of-text case
    # comes up, including n below the width, where every suffix is a tail
    for n in range(1, 2 * 64 + 3):
        for arr in _padded_tie_inputs(n, sigma):
            seq = arr.tolist()
            ext = _extension_table(arr)
            sa, ranks = suffix_array(arr)
            assert sa.tolist() == naive_suffix_array(arr), (n, seq)
            lcp = lcp_array(sa, ranks)
            assert lcp.tolist() == [0] + ext[sa[:-1], sa[1:]].tolist(), (n, seq)
            assert longest_previous_factor(sa, lcp) == naive_lpf(arr), (n, seq)
            naive = _naive_levels(arr)
            assert len(ranks) == len(naive), (n, seq)  # the doubling stops at the first distinct level
            assert _none_levels(ranks) == _unbuilt_levels(arr, len(ranks) - 1)
            for rank, want in zip(ranks, naive):
                assert rank is None or np.array_equal(rank, want)
            for stop in (1, 2, 5, 8, 32, 33):
                capped, ranks = suffix_array(arr, stop)
                width = 1 << (len(ranks) - 1)
                keys = [(seq[i : i + width], i) for i in capped.tolist()]
                assert keys == sorted(keys), (n, stop, seq)  # ties in text order
                want = np.minimum(ext[capped[:-1], capped[1:]], width)
                assert lcp_array(capped, ranks).tolist() == [0] + want.tolist(), (n, stop, seq)
            profile = [naive_distinct(arr, ell) for ell in range(1, 34)]
            assert distinct_length_profile(arr, 33).tolist() == profile, (n, seq)


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


@pytest.mark.parametrize("bits", range(1, 33))
def test_word_lcps_at_every_word_width(bits):
    # b sets every bit from the first differing symbol down, the pattern that
    # float64 would round up into the next symbol if the wide words were
    # converted as they are; equal words share all ``width`` symbols
    width = 1
    while width * bits <= 64:
        b = np.array([(1 << (width - first) * bits) - 1 for first in range(width)] + [0], dtype=np.uint64)
        a = np.zeros_like(b)
        assert word_lcps(a, b, width, bits).tolist() == list(range(width + 1)), width
        width *= 2


def test_lcp_word_split_and_chunk_edges(monkeypatch):
    # lcp_array lifts the levels above one word of 2^low symbol ranks, then
    # compares words; blocks of 7 put block edges all through the packer and
    # the pair pass. The top level T lies above the word (Fibonacci, periods,
    # sigma 70 000 with 2 symbols a word) and at or below it (stopped runs).
    runs = [_run_mix(500, 40, 2, seed=1), np.repeat([0, 1], 100), np.full(300, 4)]
    cases = [(arr, None) for arr in CORPUS]
    cases += [(arr, stop) for arr in LEVEL_INPUTS for stop in (1, 2, 3, 5, 8, 33)]
    cases += [(arr, stop) for arr in runs for stop in (4, 8, 32, 64)]
    want = [suffix_array(arr, stop) for arr, stop in cases]
    monkeypatch.setattr(suffixes, "_CHUNK", 7)
    sides = set()
    for (arr, stop), (sa, ranks) in zip(cases, want):
        got_sa, got_ranks = suffix_array(arr, stop)
        assert np.array_equal(got_sa, sa) and all(map(np.array_equal, got_ranks, ranks))
        top = len(ranks) - 1
        low = (64 // max(1, (symbol_ranks(arr)[1] - 1).bit_length())).bit_length() - 1
        sides.add(top > low)
        naive = np.array(naive_lcp(arr, sa.tolist()))
        assert lcp_array(sa, ranks).tolist() == np.minimum(naive, 1 << top).tolist(), (arr.size, stop)
    assert sides == {True, False}


@pytest.mark.parametrize(
    "arr, width",
    [
        (make_rng(41).integers(0, 200_000, 150_000), 4),  # 105 519 symbols: 2 per first-sort word
        (make_rng(42).integers(0, 2, 150_000).astype(np.uint8), 64),  # 32 per first-sort word
        # sigma 4 filled the word here when a symbol took rank + 1 (3 bits); at
        # 2 bits 16 symbols leave room beside a 16- or a 17-bit position
        (make_rng(43).integers(0, 4, 2**16).astype(np.uint8), 40),
        (make_rng(44).integers(0, 4, 2**16 + 1).astype(np.uint8), 40),
        # 16 symbols of 3 bits beside a 16-bit position fill the word; one more position bit, 8 symbols
        (make_rng(45).integers(0, 8, 2**16).astype(np.uint8), 40),
        (make_rng(46).integers(0, 8, 2**16 + 1).astype(np.uint8), 40),
    ],
    ids=["sigma-200k", "binary", "sigma-4-full-word", "sigma-4-past-full-word", "sigma-8-full-word", "sigma-8-past-full-word"],
)
def test_wide_packed_keys(arr, width):
    sa, ranks = suffix_array(arr)
    order, lcp = _prefix_sorted(arr, width)
    assert np.array_equal(sa, order)
    assert np.array_equal(lcp_array(sa, ranks), lcp)


@pytest.mark.parametrize("top", [0, 13, 14, 65_533, 65_534, 2**31 - 2])
@pytest.mark.parametrize("n", [4, 12])
@pytest.mark.parametrize("word", [64, 0], ids=["fitting-word", "forced-split"])
def test_pair_order_keeps_keys_exact(top, n, word):
    # top = 2^31 - 2 is the largest rank below n = 2^31; its pairs differ by 1
    # in a 31-bit field, and at n = 4 the pair and the position fill all 64 bits
    pattern = [top, top, top, top - 1, top, 0, 1, top, top - 1, 0, top, top][:n]
    rank = np.array([max(r, 0) for r in pattern] + [-1], dtype=np.int32)
    for k in (1, 2, 4, 8):
        if k >= n:
            continue
        pairs = [(int(rank[i]), int(rank[i + k]) + 1 if i + k < n else 0) for i in range(n)]
        want = sorted(range(n), key=lambda i: (pairs[i], i))
        order, new = _pair_order(rank, k, top, word=word)
        assert order.dtype == np.int32 and order.tolist() == want
        assert new.tolist() == [pairs[a] != pairs[b] for a, b in zip(want[1:], want[:-1])]


def test_forced_split_rounds_match_one_word_rounds(monkeypatch):
    # no test input reaches n >= 2^21, where the pair rounds split for real
    want = [suffix_array(arr) for arr in CORPUS]
    monkeypatch.setattr(suffixes, "_pair_order", functools.partial(_pair_order, word=0))
    for arr, (sa, ranks) in zip(CORPUS, want):
        got_sa, got_ranks = suffix_array(arr)
        assert np.array_equal(got_sa, sa)
        assert len(got_ranks) == len(ranks) and all(map(np.array_equal, got_ranks, ranks))


def test_first_sort_is_skipped_when_two_symbols_do_not_fit(monkeypatch):
    # wide alphabets at n >~ 2^21 leave room for one symbol beside a position,
    # so the pair rounds start at level 0; a word of p + bits bits does that here
    cases = [(arr, stop) for arr in CORPUS for stop in (None, 1, 2, 5)]
    want = [suffix_array(arr, stop) for arr, stop in cases]
    packed = []
    monkeypatch.setattr(suffixes, "_pack_windows", lambda *a: packed.append(1) or _pack_windows(*a))
    for (arr, stop), (sa, ranks) in zip(cases, want):
        bits = max(1, (symbol_ranks(arr)[1] - 1).bit_length())
        monkeypatch.setattr(suffixes, "_WORD", (arr.size - 1).bit_length() + bits)
        got_sa, got_ranks = suffix_array(arr, stop)
        assert np.array_equal(got_sa, sa)
        # with no first sort every level is a pair round's: all are built but
        # the top one, which nothing reads
        top = len(ranks) - 1
        unbuilt = [top] if top else []
        assert len(got_ranks) == len(ranks) and _none_levels(got_ranks) == unbuilt
        assert _unbuilt_levels(arr, top, stop) == unbuilt
        for got, rank, want in zip(got_ranks[:top], ranks, _naive_levels(arr)):
            assert np.array_equal(got, want if rank is None else rank)
    assert not packed


def test_suffix_array_rejects_int32_overflow():
    too_long = np.broadcast_to(np.uint8(0), (2**31,))  # a view: nothing is allocated
    with pytest.raises(ValueError):
        suffix_array(too_long)


def test_empty_input():
    sa, ranks = suffix_array(np.array([], dtype=np.uint8))
    assert sa.size == 0 and ranks == []
    starts, lengths = lz_factorize(np.array([], dtype=np.uint8))
    assert starts.size == lengths.size == 0
