"""Suffix-array machinery backing the exact oracles.

One prefix-doubling pass (Manber-Myers) builds the suffix array and keeps
the rank array of every round. Those rank levels give the LCP of every
suffix-array-adjacent pair by binary lifting, vectorized over all pairs.
The LCP-threshold counts behind every distinct-substring count and the
longest-previous-factor (LPF) array of Crochemore-Ilie, which drives the
greedy LZ factorization, both come from the suffix array and the LCP array.
Everything here is cross-checked against brute-force enumerations in the
test suite.
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


def suffix_array(arr: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Suffix array by prefix doubling, plus the rank array of every round.

    Returns ``(sa, ranks)``. ``ranks[L][i]`` is the dense rank of the
    length-2^L prefix of the suffix at i (cut at the end of the text), so
    two positions share a rank at level L exactly when those prefixes are
    equal; each level has one extra entry, -1 at index n. The last level's
    ranks are all distinct.

    Round L + 1 sorts the packed key ``rank * (n + 1) + (rank[i + 2^L] + 1)``
    (0 past the end) with one stable argsort, taken in round L's order so
    the sort sees presorted runs. There are log2(max LCP) + 2 rounds at
    most, so the time is O(n log^2 n) and the levels take 4 (n + 1) bytes each.
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
    while rank[order[-1]] != n - 1:
        key = rank[:n].astype(np.int64) * (n + 1)
        key[: n - k] += rank[k:n] + 1
        key = key[order]
        perm = np.argsort(key, kind="stable")
        order = order[perm]
        rank = _rank_level(order, key[perm])
        ranks.append(rank)
        k *= 2
    return order, ranks


def lcp_array(sa: np.ndarray, ranks: list[np.ndarray]) -> np.ndarray:
    """lcp[r] = common-prefix length of suffixes sa[r-1] and sa[r]; lcp[0] = 0.

    Binary lifting over the rank levels of :func:`suffix_array`, from the
    top level down: if the level-L ranks at x + h and y + h match, the next
    2^L symbols match too, so h grows by 2^L. The top level's ranks are all
    distinct, so every LCP is below its 2^L and the lower levels spell it out.
    """
    n = sa.size
    lcp = np.zeros(n, dtype=np.int64)
    if n < 2:
        return lcp
    x = sa[:-1]
    y = sa[1:]
    h = np.zeros(n - 1, dtype=np.int64)
    for level in range(len(ranks) - 2, -1, -1):
        rank = ranks[level]
        h += (rank[x + h] == rank[y + h]).astype(np.int64) << level
    lcp[1:] = h
    return lcp


def lcp_at_least_counts(lcp: np.ndarray, ell_max: int) -> np.ndarray:
    """out[ell-1] = #{r : lcp[r] >= ell} for ell = 1..ell_max."""
    hist = np.bincount(np.minimum(lcp, ell_max), minlength=ell_max + 1)
    return np.cumsum(hist[:0:-1])[::-1]  # reversed cumulative sum over lcp = ell_max..1


def distinct_length_profile(arr: np.ndarray, ell_max: int) -> np.ndarray:
    """d[ell-1] = number of distinct length-ell substrings, for ell = 1..ell_max.

    Uses the identity: distinct windows of length ell = (n - ell + 1) minus
    the number of suffix-array-adjacent pairs whose LCP is >= ell.
    """
    a = np.asarray(arr)
    n = a.size
    ell_max = min(int(ell_max), n)
    sa, ranks = suffix_array(a)
    lcp = lcp_array(sa, ranks)
    ells = np.arange(1, ell_max + 1)
    return (n - ells + 1) - lcp_at_least_counts(lcp, ell_max)


def longest_previous_factor(sa: np.ndarray, lcp: np.ndarray) -> list[int]:
    """lpf[i] = longest common prefix of the suffix at i with any suffix
    starting before i (Crochemore-Ilie, from the suffix and LCP arrays).

    The best earlier start is one of the two nearest suffix-array neighbours
    of i that start before i. One left-to-right pass keeps those neighbours
    on a stack of increasing start positions; while an entry waits on the
    stack, ``lpf`` holds its LCP with the entry below it, and popping it
    (its next smaller start has arrived) settles the maximum of the two.
    """
    lpf = [0] * sa.size
    stack: list[int] = []
    for i, h in zip(sa.tolist(), lcp.tolist()):
        # h: LCP of suffix i with the suffix at the top of the stack
        while stack and stack[-1] > i:
            j = stack.pop()
            g = lpf[j]
            if h > g:
                lpf[j] = h
                h = g
        lpf[i] = h  # popping the bottom entry (lpf 0) leaves h = 0
        stack.append(i)
    return lpf


def lz_factorize(arr: np.ndarray) -> list[tuple[int, int]]:
    """Greedy left-to-right factorization into (start0, length) segments.

    At position t the segment length is the longest match against any earlier
    start (sources may overlap the segment itself), which is the longest
    previous factor at t; a symbol never seen before becomes a length-1
    literal.
    """
    a = np.asarray(arr)
    n = a.size
    if n == 0:
        return []
    sa, ranks = suffix_array(a)
    lcp = lcp_array(sa, ranks)
    del ranks  # the largest arrays here; free them before the LPF pass
    lpf = longest_previous_factor(sa, lcp)
    parts: list[tuple[int, int]] = []
    t = 0
    while t < n:
        step = lpf[t] or 1
        parts.append((t, step))
        t += step
    return parts
