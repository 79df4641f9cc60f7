"""Suffix-array machinery backing the exact oracles.

Prefix-doubling suffix array (vectorized), Kasai LCP, the LCP-threshold
counts behind every distinct-substring count, and the
previous/next-smaller-suffix tables used to find longest previous factors.
Everything here is cross-checked against brute-force enumerations in the
test suite.
"""

from __future__ import annotations

import numpy as np


def suffix_array(arr: np.ndarray) -> np.ndarray:
    """Suffix array by prefix doubling, O(n log^2 n)."""
    a = np.asarray(arr)
    n = a.size
    if n == 0:
        return np.empty(0, dtype=np.int64)
    rank = np.unique(a, return_inverse=True)[1].astype(np.int64)
    k = 1
    order = np.argsort(rank, kind="stable")
    while rank[order[-1]] != n - 1:
        key2 = np.full(n, -1, dtype=np.int64)
        key2[: n - k] = rank[k:]
        order = np.lexsort((key2, rank))
        r1 = rank[order]
        r2 = key2[order]
        bump = np.empty(n, dtype=np.int64)
        bump[0] = 0
        bump[1:] = (r1[1:] != r1[:-1]) | (r2[1:] != r2[:-1])
        new = np.cumsum(bump)
        rank = np.empty(n, dtype=np.int64)
        rank[order] = new
        k *= 2
        if k >= n:
            order = np.argsort(rank, kind="stable")
            break
    return order.astype(np.int64)


def lcp_array(arr: np.ndarray, sa: np.ndarray) -> np.ndarray:
    """Kasai: lcp[r] = common-prefix length of suffixes sa[r-1] and sa[r]; lcp[0] = 0."""
    s = np.asarray(arr).tolist()
    n = len(s)
    sa_l = sa.tolist()
    rank = [0] * n
    for r, i in enumerate(sa_l):
        rank[i] = r
    lcp = [0] * n
    h = 0
    for i in range(n):
        r = rank[i]
        if r > 0:
            j = sa_l[r - 1]
            while i + h < n and j + h < n and s[i + h] == s[j + h]:
                h += 1
            lcp[r] = h
            if h:
                h -= 1
        else:
            h = 0
    return np.asarray(lcp, dtype=np.int64)


def lcp_at_least_counts(lcp: np.ndarray, ell_max: int) -> np.ndarray:
    """out[g, ell-1] = #{r : lcp[g, r] >= ell} for each row g of the 2-D
    ``lcp`` (one group of sort-adjacent pairs per row), ell = 1..ell_max."""
    groups = lcp.shape[0]
    ids = np.minimum(lcp, ell_max) + (ell_max + 1) * np.arange(groups)[:, None]
    hist = np.bincount(ids.ravel(), minlength=groups * (ell_max + 1))
    # reversed cumulative sum over lcp = ell_max..1
    return np.cumsum(hist.reshape(groups, ell_max + 1)[:, :0:-1], axis=1)[:, ::-1]


def distinct_length_profile(arr: np.ndarray, ell_max: int) -> np.ndarray:
    """d[ell-1] = number of distinct length-ell substrings, for ell = 1..ell_max.

    Uses the identity: distinct windows of length ell = (n - ell + 1) minus
    the number of suffix-array-adjacent pairs whose LCP is >= ell.
    """
    a = np.asarray(arr)
    n = a.size
    ell_max = min(int(ell_max), n)
    sa = suffix_array(a)
    lcp = lcp_array(a, sa)
    ells = np.arange(1, ell_max + 1)
    return (n - ells + 1) - lcp_at_least_counts(lcp[None, :], ell_max)[0]


def _psv_nsv(sa: np.ndarray) -> tuple[list, list]:
    """For each text position i: nearest suffixes (in suffix-array order)
    on either side of i's rank that start at a smaller text position."""
    n = sa.size
    psv = [-1] * n
    nsv = [-1] * n
    stack: list[int] = []
    for i in sa.tolist():
        while stack and stack[-1] > i:
            nsv[stack.pop()] = i
        psv[i] = stack[-1] if stack else -1
        stack.append(i)
    return psv, nsv


def _extension_length(a: np.ndarray, i: int, j: int) -> int:
    """Length of the longest common prefix of the suffixes at i and j (0-indexed)."""
    n = a.size
    limit = n - max(i, j)
    got = 0
    chunk = 64
    while got < limit:
        m = min(chunk, limit - got)
        x = a[i + got : i + got + m]
        y = a[j + got : j + got + m]
        neq = np.flatnonzero(x != y)
        if neq.size:
            return got + int(neq[0])
        got += m
        chunk = min(chunk * 2, 1 << 16)
    return limit


def lz_factorize(arr: np.ndarray) -> list[tuple[int, int]]:
    """Greedy left-to-right factorization into (start0, length) segments.

    At position t the segment length is the longest match against any earlier
    start (sources may overlap the segment itself); a symbol never seen
    before becomes a length-1 literal. The longest previous match at t is
    attained at one of the two nearest smaller-start suffix-array neighbours,
    so only those two candidates are extended.
    """
    a = np.asarray(arr)
    n = a.size
    if n == 0:
        return []
    sa = suffix_array(a)
    psv, nsv = _psv_nsv(sa)
    parts: list[tuple[int, int]] = []
    t = 0
    while t < n:
        best = 0
        for cand in (psv[t], nsv[t]):
            if cand >= 0:
                ext = _extension_length(a, cand, t)
                if ext > best:
                    best = ext
        step = best if best >= 1 else 1
        parts.append((t, step))
        t += step
    return parts
