"""Suffix-array machinery backing the exact oracles.

Every sort of suffixes here is one word-packed ``np.sort``: the
compared key sits in the high bits of a uint64 and, where the order of ties
matters, the text position in the low bits, so the sorted words carry both
the order and the keys, ties in text order, with no stable argsort and no
gather of keys. Symbols enter as dense ranks, so the key width follows the
alphabet, not the range of the symbol values: bit_length(sigma - 1) bits a
symbol, so binary text packs one bit a symbol.

A window of symbols is zero-padded past the end of the text, and 0 is also
the smallest symbol rank. Padding with the smallest symbol keeps the order
of windows, but a suffix u shorter than the window (a tail, of which there
are fewer than the window's width) ties with the windows that read u
followed by zeros, and it is a proper prefix of each. So a tail sorts before
every window equal to its padded one, shorter tails first, and its prefixes
count as differing from their neighbours' at every length past its own; the
LCP of any pair is capped at the length of the shorter suffix.

Prefix doubling (Manber-Myers) builds the suffix array and keeps the rank
levels that something reads. Its first sort packs as many symbols per
position as fit beside the position, and the first rank levels are prefixes
of those sorted words (where two symbols do not fit, the first sort is
skipped). Only the top one of those levels is ever read, by the first pair
round, so only it is built, and only when a pair round follows. Each pair
round packs a pair of ranks; where the pair and the position need more than
64 bits, it sorts twice (minor key, then major). A round's level is built
only if another round follows: the top level is never read. The LCP of every
suffix-array-adjacent pair comes from binary lifting over the rank levels
above one word, all of them pair-round levels or the level the first pair
round read, then one compare of packed symbol windows of level 0.

The LCP-threshold counts behind every distinct-substring count need LCPs
only up to the longest length asked for, so that doubling takes a stop
length and ends at the first 2^L reaching it. The longest-previous-factor
(LPF) array of Crochemore-Ilie, which drives the greedy LZ factorization,
needs the full suffix array and LCP array. It comes from batch peak
elimination: vector rounds delete every suffix-array entry that starts
later than both its neighbours, compacting the survivors to the front of
their arrays in place, and a stack pass finishes whatever the rounds leave.
Everything here is cross-checked against brute-force enumerations in the
test suite.
"""

from __future__ import annotations

import numpy as np

_MAX_N = 2**31  # positions and rank levels are int32
_WORD = 64  # bits in a packed sort word
_CHUNK = 1 << 14  # words per packer block, pairs per LCP-pass block, entries per LPF compaction block


def symbol_ranks(a: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense ranks of the symbols of ``a`` (int32, 0 for the smallest) and
    the number of distinct symbols.

    Integer symbols whose offsets from their minimum stay below
    max(n, 2^16) go through a lookup table, and an alphabet that fills its
    range keeps its offsets. The offsets are taken in the unsigned type of
    the symbols' width, which holds any range. Wider ranges (int64 symbols
    near +-2^62, sparse alphabets) and other dtypes go through ``np.unique``.
    """
    a = np.asarray(a)
    if a.dtype.kind == "b":
        a = a.view(np.uint8)
    off = top = None
    if a.size and a.dtype.kind in "iu":
        off = (a - a.min()).view(f"u{a.itemsize}")
        top = int(off.max())
    if off is not None and top < max(a.size, 1 << 16):
        present = np.zeros(top + 1, dtype=bool)
        present[off] = True
        if present.all():
            return off.astype(np.int32), top + 1
        table = np.cumsum(present, dtype=np.int32) - 1
        return table[off], int(table[-1]) + 1
    values, inverse = np.unique(a, return_inverse=True)
    return inverse.astype(np.int32).reshape(a.shape), values.size


def _pack_windows(rank: np.ndarray, width: int, bits: int) -> np.ndarray:
    """words[i] holds rank[i : i + width], ``bits`` bits per symbol, the
    first symbol highest, zero-padded past the end, for i <= n: ``rank`` is
    level 0, with its -1 slot at index n. Padded windows of the last
    ``width`` - 1 positions can equal other windows; the callers tell them
    apart. ``width`` is a power of two, ``width * bits`` <= 64. Each word
    starts as its first symbol in the top field; log2(width) doubling passes
    OR in the word w ahead shifted down w fields, in place, block by block
    from the front, so no word is read after it is rewritten."""
    words = np.empty(rank.size, dtype=np.uint64)
    np.copyto(words[:-1], rank[:-1], casting="unsafe")
    words[-1] = 0
    words <<= (width - 1) * bits
    w = 1
    while w < width:
        for lo in range(0, words.size, _CHUNK):  # word_2w[i] = word_w[i] : word_w[i + w]
            ahead = words[lo + w : lo + w + _CHUNK]
            words[lo : lo + ahead.size] |= ahead >> (w * bits)
        w *= 2
    return words


def word_lcps(a: np.ndarray, b: np.ndarray, width: int, bits: int) -> np.ndarray:
    """Common-prefix lengths, in symbols, of the words ``a`` and ``b`` that
    each pack ``width`` symbols of ``bits`` bits, the first symbol highest.

    The first differing symbol holds the highest set bit of x = a ^ b, which
    the exponent field of float64(x) names. Words of up to 53 bits convert
    exactly. In wider ones, clearing each set bit just below another keeps the
    highest and leaves no two adjacent, so rounding cannot carry past it.
    """
    x = a ^ b
    if width * bits > 53:
        x &= ~(x >> 1)
    lcps = np.zeros(1023 + _WORD, dtype=np.int64)  # by exponent field: 0 for x = 0, else 1023 + index
    lcps[0], lcps[1023:] = width, width - 1 - np.arange(_WORD) // bits
    return lcps.take(x.astype(np.float64).view(np.int64) >> 52)


def _sort_keys(keys: np.ndarray, p: int) -> np.ndarray:
    """Text positions sorted by ``keys`` (uint64 below 2^(64 - p)), ties in
    text order, by one ``np.sort`` of key << p | position. Returns the
    positions (int32) and leaves the sorted keys in ``keys``."""
    keys <<= p
    keys += np.arange(keys.size, dtype=np.uint32)
    keys.sort()
    order = np.empty(keys.size, dtype=np.int32)
    np.bitwise_and(keys, (1 << p) - 1, out=order, casting="unsafe")
    keys >>= p
    return order


def _window_order(rank: np.ndarray, width: int, bits: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions sorted by their ``width``-symbol windows of level 0, as
    suffixes compare, and diff[r], the XOR of the windows at sorted indices
    r and r + 1 with each suffix's end marked in it.

    One ``np.sort`` of window << p | field, where the field is i + t for a
    full window and n - 1 - i for each of the t tails, the suffixes shorter
    than the window. So a tail comes before every full window that pads to
    the same word, shorter tails first, and full windows tie in text order.
    A binary search finds each tail's sorted index to restore its position.
    In a pair with a tail, one bit in the field of symbol c = the shorter
    suffix's length is set in ``diff``, so the highest set bit of ``diff``
    falls at or before the first symbol where the two suffixes differ or
    one ends: the pair counts as differing at every prefix length past c.
    """
    n = rank.size - 1
    t = min(width - 1, n)
    keys = _pack_windows(rank, width, bits)[:n]
    keys <<= p
    keys[: n - t] += np.arange(t, n, dtype=np.uint32)
    keys[n - t :] += np.arange(t - 1, -1, -1, dtype=np.uint32)
    tails = keys[n - t :].copy()
    keys.sort()
    at = np.searchsorted(keys, tails)
    order = np.empty(n, dtype=np.int32)
    np.bitwise_and(keys, (1 << p) - 1, out=order, casting="unsafe")
    order -= t
    order[at] = np.arange(n - t, n, dtype=np.int32)
    keys >>= p
    diff = keys[1:] ^ keys[:-1]
    del keys
    pairs = np.union1d(at[at > 0] - 1, at[at < n - 1])  # pair r: sorted indices r and r + 1
    shorter = n - np.maximum(order[pairs], order[pairs + 1])
    diff[pairs] |= np.left_shift(np.uint64(1), ((width - 1 - shorter) * bits).astype(np.uint64))
    return order, diff


def _rank_level(order: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Dense ranks of sorted keys scattered back to text order, as int32
    with one extra slot at index n holding -1 (the end of the text).
    ``new[r - 1]`` says whether the key at sorted index r differs from the
    one before it."""
    n = order.size
    dense = np.empty(n, dtype=np.int32)
    dense[0] = 0
    np.cumsum(new, out=dense[1:])
    rank = np.empty(n + 1, dtype=np.int32)
    rank[order] = dense
    rank[n] = -1
    return rank


def _pair_order(rank: np.ndarray, k: int, top: int, word: int = _WORD) -> tuple[np.ndarray, np.ndarray]:
    """Positions sorted by the pair (rank[i], rank[i + k] + 1), 0 past the
    end, ties in text order, and ``new`` as :func:`_rank_level` takes it.

    ``rank`` is a level with ranks in [0, top] and its -1 slot at index n.
    Where the pair and the position fit in ``word`` bits, one sort does it.
    Otherwise two do, least significant key first: the minor keys with
    positions, then the major keys with each entry's index in that order.
    Both fit, as ranks and positions are below 2^31.
    """
    n = rank.size - 1
    p = (n - 1).bit_length()
    minor = (top + 1).bit_length()
    if top.bit_length() + minor + p <= word:
        keys = rank[:n].astype(np.uint64)
        keys <<= minor
        np.add(keys[: n - k], rank[k:n], out=keys[: n - k], dtype=np.uint64, casting="unsafe")
        keys[: n - k] += 1
        order = _sort_keys(keys, p)
        return order, keys[1:] != keys[:-1]
    keys = np.zeros(n, dtype=np.uint64)
    np.add(rank[k:n], 1, out=keys[: n - k], casting="unsafe")
    by_minor = _sort_keys(keys, p)
    group = np.zeros(n, dtype=np.int32)  # dense rank of the minor key, in by_minor order
    np.cumsum(keys[1:] != keys[:-1], out=group[1:])
    del keys
    keys = rank[by_minor].astype(np.uint64)
    at = _sort_keys(keys, p)
    new = keys[1:] != keys[:-1]
    del keys
    group = group[at]
    new |= group[1:] != group[:-1]
    return by_minor[at], new


def suffix_array(arr: np.ndarray, stop: int | None = None) -> tuple[np.ndarray, list[np.ndarray | None]]:
    """Suffix array by prefix doubling, plus the rank levels that a pair
    round or :func:`lcp_array` reads.

    Returns ``(sa, ranks)``, ``sa`` as int32. ``ranks[L][i]`` is the dense
    rank of the length-2^L prefix of the suffix at i (cut at the end of the
    text), so two positions share a rank at level L exactly when those
    prefixes are equal; each level has one extra entry, -1 at index n. The
    top level T = ``len(ranks) - 1`` is the first whose ranks are all
    distinct. Levels that nothing reads are ``None``, T among them.

    Level 0 is the dense symbol ranks. The first sort packs the symbol
    ranks of the 2^L0 symbols from each position, zero-padded past the end,
    beside the position, with 2^L0 the most that fit in a word, and orders
    the tails, the suffixes shorter than 2^L0, by :func:`_window_order`, so
    levels 1..L0 are prefixes of one sorted array, and its top level
    F <= L0 is the first of them whose prefixes all differ, or L0. With
    L0 = 0 (wide alphabets at large n) that sort is skipped. Levels 1..F-1
    are ``None``, and so is F unless a pair round follows. Each pair round
    sorts the pairs (rank[i], rank[i + 2^L] + 1) with :func:`_pair_order`
    and builds its level only if another round reads it, so the top level
    is ``None`` unless it is level 0. There are log2(max LCP) + 2 levels at
    most, each built one taking 4 (n + 1) bytes, and each round sorts one
    or two arrays of n words.

    With ``stop``, the doubling also ends once 2^L >= stop. Then the last
    level may have ties, and ``sa`` is sorted by length-2^L prefixes only,
    ties in text order: enough for every LCP up to 2^L (:func:`lcp_array`
    caps it there), so for distinct counts of lengths up to ``stop``.
    """
    a = np.asarray(arr)
    n = a.size
    if n >= _MAX_N:
        raise ValueError(f"suffix_array supports n < 2^31, got n = {n}")
    if n == 0:
        return np.empty(0, dtype=np.int32), []
    rank = np.empty(n + 1, dtype=np.int32)
    rank[:n], sigma = symbol_ranks(a)
    rank[n] = -1
    ranks = [rank]
    if sigma == n:  # all symbols distinct: level 0 is the last
        order = np.empty(n, dtype=np.int32)
        order[rank[:n]] = np.arange(n, dtype=np.int32)
        return order, ranks
    p = (n - 1).bit_length()
    bits = max(1, (sigma - 1).bit_length())
    first = ((_WORD - p) // bits).bit_length() - 1  # 2^first symbols fit beside a position
    if stop is not None:
        first = min(first, (max(stop, 1) - 1).bit_length())
    top = sigma - 1
    order = new = None
    if first:  # else two symbols do not fit: the pair rounds start at level 0
        width = 1 << first
        order, diff = _window_order(rank, width, bits, p)
        # adjacent sorted suffixes differ in their first 2^L symbols where diff
        # >= 2^((width - 2^L) bits); the first sort's top level is the first L
        # at which all of them do, or ``first``
        least = int(diff.min())
        level = 1
        while level < first and least < 1 << ((width - (1 << level)) * bits):
            level += 1
        new = diff >= 1 << ((width - (1 << level)) * bits)
        del diff
        top = int(np.count_nonzero(new))
        ranks += [None] * level  # built below only if a pair round reads it
    k = 1 << (len(ranks) - 1)
    while top != n - 1 and (stop is None or k < stop):
        if ranks[-1] is None:
            ranks[-1] = _rank_level(order, new)  # one scatter, for the round that reads it
        del order, new  # each round sorts afresh
        order, new = _pair_order(ranks[-1], k, top)
        ranks.append(None)
        top = int(np.count_nonzero(new))
        k *= 2
    if order is None:  # stop <= 1: suffixes in order of their first symbol
        order = _sort_keys(rank[:n].astype(np.uint64), p)
    return order, ranks


def lcp_array(sa: np.ndarray, ranks: list[np.ndarray | None]) -> np.ndarray:
    """lcp[r] = common-prefix length of suffixes sa[r-1] and sa[r]; lcp[0] = 0.

    T is the top level of :func:`suffix_array` and W = 2^w the most symbol
    ranks that fit in a word, capped at 2^T. Binary lifting from level T - 1
    down to w adds 2^L to h where the level-L ranks at x + h and y + h match,
    and :func:`word_lcps` of the zero-padded W-symbol windows there adds the
    rest, below W. Padding can match past the end of the shorter suffix, so
    each LCP is capped at n - max(x, y). A pair tied at T (a doubling cut
    short by ``stop``) matches on every lifted level and its whole word, so
    its LCP is capped at 2^T. Only level 0 and levels w..T-1 are read, and
    :func:`suffix_array` builds those. With no level to lift, each suffix's
    window is gathered once and serves both pairs it is in. Pairs go in
    blocks: ``lcp`` and the windows are the only length-n arrays here.
    """
    n = sa.size
    lcp = np.zeros(n, dtype=np.int64)
    if n < 2:
        return lcp
    top = len(ranks) - 1
    bits = max(1, int(ranks[0][sa[-1]]).bit_length())  # sa[-1] starts with the largest symbol
    w = min((_WORD // bits).bit_length() - 1, top)
    words = _pack_windows(ranks[0], 1 << w, bits)
    for lo in range(0, n - 1, _CHUNK):
        v = sa[lo : lo + _CHUNK + 1]
        x, y, h = v[:-1], v[1:], lcp[lo + 1 : lo + _CHUNK + 1]
        if w == top:  # h is 0: one gather of v serves both pairs each suffix is in
            g = words.take(v)
            h[:] = word_lcps(g[:-1], g[1:], 1 << w, bits)
        else:
            for level in range(top - 1, w - 1, -1):
                h += (ranks[level].take(x + h) == ranks[level].take(y + h)).astype(np.int64) << level
            h += word_lcps(words.take(x + h), words.take(y + h), 1 << w, bits)
        np.minimum(h, n - np.maximum(x, y), out=h)
    return lcp


def lcp_at_least_counts(lcp: np.ndarray, ell_max: int) -> np.ndarray:
    """out[ell-1] = #{r : lcp[r] >= ell} for ell = 1..ell_max.

    One histogram bin per LCP value, so the LCPs should be capped near
    ell_max, as a doubling stopped at ell_max or a window length caps them.
    """
    hist = np.bincount(lcp, minlength=ell_max + 1)
    return np.cumsum(hist[::-1])[::-1][1 : ell_max + 1]  # suffix sums over lcp >= ell


def distinct_length_profile(arr: np.ndarray, ell_max: int) -> np.ndarray:
    """d[ell-1] = number of distinct length-ell substrings, for ell = 1..ell_max.

    Uses the identity: distinct windows of length ell = (n - ell + 1) minus
    the number of suffix-array-adjacent pairs whose LCP is >= ell. Equal
    length-ell prefixes need only be adjacent, so the doubling stops at the
    first 2^L >= min(ell_max, n). Lengths past n have no windows: d = 0.
    """
    a = np.asarray(arr)
    n = a.size
    d = np.zeros(int(ell_max), dtype=np.int64)
    top = min(d.size, n)
    if top == 0:
        return d
    sa, ranks = suffix_array(a, stop=top)
    lcp = lcp_array(sa, ranks)
    ells = np.arange(1, top + 1)
    d[:top] = (n - ells + 1) - lcp_at_least_counts(lcp, top)
    return d


def _compact(a: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The entries of ``a`` where ``keep`` is true, moved to its front in
    place; returns that front as a view. ``np.compress`` runs a block at a
    time: on the whole array it would build an int64 index of every kept
    entry, and a boolean mask index is several times slower on masks as
    mixed as a round's peaks."""
    at = 0
    for lo in range(0, a.size, _CHUNK):
        kept = np.compress(keep[lo : lo + _CHUNK], a[lo : lo + _CHUNK])
        a[at : at + kept.size] = kept
        at += kept.size
    return a[:at]


def longest_previous_factor(sa: np.ndarray, lcp: np.ndarray) -> list[int]:
    """lpf[i] = longest common prefix of the suffix at i with any suffix
    starting before i (Crochemore-Ilie, from the suffix and LCP arrays).

    The best earlier start is one of i's previous and next smaller starts in
    the suffix array (PSV and NSV). Delete the suffix-array entries from a
    list in decreasing start order: when i goes, every entry between it and
    its list neighbours started later and is gone, so those neighbours are
    its PSV and NSV and the LCPs at its two sides are its LCPs with them.
    lpf[i] is the larger, and the deletion joins the two by ``min``.

    Batch peak elimination deletes many entries per round. A peak starts
    later than both list neighbours. All peaks of a round can go at once:
    no two are adjacent, and every entry deleted between two survivors
    started later than both, so a peak's neighbours are already its PSV and
    NSV, as in the sequential order. A round is a few vector passes over
    int32 arrays, with a -1 start at each end for the ends of the list,
    and the survivors move to the front of those arrays in place
    (:func:`_compact`). Rounds run while at least a tenth of the list is
    peaks, so the list shrinks geometrically and the rounds cost O(n) in
    all; below a tenth, a vector round costs more per deleted entry than
    the stack pass that finishes the survivors. Random inputs empty the list
    in the rounds; runs, periods and monotone ranges have hardly any peaks
    and go to the stack at once.

    The stack pass walks the survivors in list order and keeps them on a
    stack of increasing starts. While an entry waits on it, the result holds
    its LCP with the entry below it; popping the entry (its NSV has arrived)
    settles the maximum of the two.
    """
    m = sa.size
    lpf = np.zeros(m, dtype=np.int32)
    start = np.empty(m + 2, dtype=np.int32)  # the list, with a -1 start at each end
    start[0] = start[-1] = -1
    start[1:-1] = sa
    side = np.zeros(m + 1, dtype=np.int32)  # side[k]: LCP of list entries k and k + 1
    side[1:m] = lcp[1:]
    while True:
        mid = start[1:-1]
        peak = np.zeros(start.size, dtype=bool)
        np.greater(mid, start[:-2], out=peak[1:-1])
        peak[1:-1] &= mid > start[2:]
        k = np.flatnonzero(peak)
        if k.size == 0 or 10 * k.size < mid.size:
            break
        left, right = side[k - 1], side[k]
        lpf[start[k]] = np.maximum(left, right)
        side[k - 1] = np.minimum(left, right)
        keep = np.logical_not(peak, out=peak)
        start = _compact(start, keep)
        side = _compact(side, keep[:-1])  # the side right of a peak goes with it
    out = lpf.tolist() if start.size < m + 2 else [0] * m  # skip converting zeros
    stack: list[int] = []
    for i, h in zip(start[1:-1].tolist(), side[:-1].tolist()):
        # h: LCP of suffix i with the survivor before it in the list
        while stack and stack[-1] > i:
            j = stack.pop()
            g = out[j]
            if h > g:
                out[j] = h
                h = g
        out[i] = h  # popping the bottom entry (lpf 0) leaves h = 0
        stack.append(i)
    return out


def lz_factorize(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Greedy left-to-right factorization, as int64 columns (starts0, lengths).

    At position t the segment length is the longest match against any earlier
    start (sources may overlap the segment itself), which is the longest
    previous factor at t; a symbol never seen before becomes a length-1
    literal.
    """
    a = np.asarray(arr)
    n = a.size
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    sa, ranks = suffix_array(a)
    lcp = lcp_array(sa, ranks)
    del ranks  # the largest arrays here; free them before the LPF pass
    lpf = longest_previous_factor(sa, lcp)
    starts = []
    t = 0
    while t < n:
        starts.append(t)
        t += lpf[t] or 1
    starts = np.array(starts, dtype=np.int64)
    return starts, np.diff(starts, append=n)
