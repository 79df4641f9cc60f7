"""Suffix-array machinery backing the exact oracles.

One prefix-doubling pass (Manber-Myers) builds the suffix array and keeps
the rank array of every round. Each round sorts one packed key per
position, stored in the narrowest unsigned type its largest value fits, so
the early rounds on small alphabets sort 8- or 16-bit keys. Those rank
levels give the LCP of every suffix-array-adjacent pair by binary lifting,
vectorized over all pairs.

The LCP-threshold counts behind every distinct-substring count need LCPs
only up to the longest length asked for, so that doubling takes a stop
length and ends at the first 2^L reaching it. The longest-previous-factor
(LPF) array of Crochemore-Ilie, which drives the greedy LZ factorization,
needs the full suffix array and LCP array. It comes from batch peak
elimination: vector rounds delete every suffix-array entry that starts
later than both its neighbours, and a stack pass finishes whatever the
rounds leave. Everything here is cross-checked against brute-force
enumerations in the test suite.
"""

from __future__ import annotations

import numpy as np

_MAX_N = 2**31  # rank levels are int32


def _rank_level(order: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    """Dense ranks of ``sorted_keys`` scattered back to text order, as int32
    with one extra slot at index n holding -1 (the end of the text)."""
    n = order.size
    dense = np.empty(n, dtype=np.int32)
    dense[0] = 0
    np.cumsum(sorted_keys[1:] != sorted_keys[:-1], out=dense[1:])
    rank = np.empty(n + 1, dtype=np.int32)
    rank[order] = dense
    rank[n] = -1
    return rank


def _pack_keys(rank: np.ndarray, k: int, top: int) -> np.ndarray:
    """key[i] = rank[i] * (top + 2) + (rank[i + k] + 1), with 0 past the end,
    in the narrowest unsigned type that holds ``(top + 2)^2``.

    ``rank`` is a level with its -1 slot at index n and ranks in [0, top].
    The sum is taken in the key's own type: numpy would promote a uint64 key
    plus the int32 ranks to float64, which rounds keys above 2^53.
    """
    n = rank.size - 1
    key = rank[:n].astype(np.min_scalar_type((top + 2) ** 2))
    key *= top + 2
    np.add(key[: n - k], rank[k:n] + 1, out=key[: n - k], dtype=key.dtype, casting="unsafe")
    return key


def suffix_array(arr: np.ndarray, stop: int | None = None) -> tuple[np.ndarray, list[np.ndarray]]:
    """Suffix array by prefix doubling, plus the rank array of every round.

    Returns ``(sa, ranks)``. ``ranks[L][i]`` is the dense rank of the
    length-2^L prefix of the suffix at i (cut at the end of the text), so
    two positions share a rank at level L exactly when those prefixes are
    equal; each level has one extra entry, -1 at index n. The last level's
    ranks are all distinct.

    Round L + 1 sorts the packed key ``rank * (top + 2) + (rank[i + 2^L] + 1)``
    (0 past the end), where ``top`` is the largest rank at level L, stored in
    the narrowest unsigned type that holds ``(top + 2)^2``. The sort is one
    stable argsort taken in round L's order, so it sees presorted runs, and
    while keys fit 16 bits numpy runs it as a radix sort. There are
    log2(max LCP) + 2 rounds at most, so the time is O(n log^2 n) and the
    levels take 4 (n + 1) bytes each.

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
        return np.empty(0, dtype=np.int64), []
    order = np.argsort(a, kind="stable").astype(np.int64, copy=False)
    rank = _rank_level(order, a[order])
    ranks = [rank]
    k = 1
    top = int(rank[order[-1]])
    while top != n - 1 and (stop is None or k < stop):
        key = _pack_keys(rank, k, top)[order]
        perm = np.argsort(key, kind="stable")
        order = order[perm]
        rank = _rank_level(order, key[perm])
        ranks.append(rank)
        top = int(rank[order[-1]])
        k *= 2
    return order, ranks


def lcp_array(sa: np.ndarray, ranks: list[np.ndarray]) -> np.ndarray:
    """lcp[r] = common-prefix length of suffixes sa[r-1] and sa[r]; lcp[0] = 0.

    Binary lifting over the rank levels of :func:`suffix_array`, from the
    level below the top down: if the level-L ranks at x + h and y + h match,
    the next 2^L symbols match too, so h grows by 2^L. When the top level
    T has all ranks distinct, every LCP is below 2^T and the lower levels
    spell it out. When it has ties (a doubling cut short by ``stop``), the
    LCP is capped at 2^T: a pair tied at T matches on every lower level,
    which sums to 2^T - 1, and the tie adds the last 1.
    """
    n = sa.size
    lcp = np.zeros(n, dtype=np.int64)
    if n < 2:
        return lcp
    x = sa[:-1]
    y = sa[1:]
    h = lcp[1:]
    for level in range(len(ranks) - 2, -1, -1):
        rank = ranks[level]
        h += (rank[x + h] == rank[y + h]).astype(np.int64) << level
    top = ranks[-1]
    if top[sa[-1]] != n - 1:
        h += top[x] == top[y]
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
    sa, ranks = suffix_array(a, stop=top)
    lcp = lcp_array(sa, ranks)
    ells = np.arange(1, top + 1)
    d[:top] = (n - ells + 1) - lcp_at_least_counts(lcp, top)
    return d


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
    int32 arrays, with a -1 start at each end for the ends of the list.
    Rounds run while at least a tenth of the list is peaks, so the list
    shrinks geometrically and the rounds cost O(n) in all; below a tenth, a
    vector round costs more per deleted entry than the stack pass that
    finishes the survivors. Random inputs empty the list in the rounds;
    runs, periods and monotone ranges have hardly any peaks and go to the
    stack at once.

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
        keep = ~peak
        start = start[keep]
        side = side[keep[:-1]]  # the side right of a peak goes with it
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
