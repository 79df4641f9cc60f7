"""Independent brute-force reference implementations for cross-checking.

These deliberately share no code with the package internals: the RLE check
is a plain scan, the LZ, LCP and longest-previous-factor checks read the full
quadratic match table, the suffix array sorts suffix tuples, and the distinct
counts hash raw windows. Slow but unarguable. The one linear reference,
``stack_lpf``, is the plain Crochemore-Ilie stack pass, for LPF checks at
sizes the quadratic table cannot reach.
"""

import math

import numpy as np

from compest._rng import make_rng


def naive_rle_cost(symbols, sigma: int) -> int:
    s_bits = max(1, math.ceil(math.log2(sigma)))
    seq = list(symbols)
    total = 0
    i = 0
    while i < len(seq):
        j = i
        while j < len(seq) and seq[j] == seq[i]:
            j += 1
        total += math.ceil(math.log2(j - i + 1)) + s_bits
        i = j
    return total


def _extension_table(arr: np.ndarray) -> np.ndarray:
    """ext[a, b] = length of the common extension of positions a and b."""
    n = arr.size
    ext = np.zeros((n + 1, n + 1), dtype=np.int32)
    for a in range(n - 1, -1, -1):
        ext[a, :n] = (arr[a] == arr) * (ext[a + 1, 1 : n + 1] + 1)
    return ext


def naive_lz_parts(arr: np.ndarray) -> list:
    """Greedy LZ77 by exhaustive longest-match search.

    Greedy picks, at each position t, the longest match over all earlier
    starts (ties resolved to the smallest start). Returns (start0, length,
    source0) triples, source None for literals.
    """
    n = arr.size
    ext = _extension_table(arr)
    parts = []
    t = 0
    while t < n:
        best, src = 0, None
        if t:
            col = ext[:t, t]
            best = int(col.max())
            if best:
                src = int(np.argmax(col))  # first maximum: smallest source
        length = best if best >= 1 else 1
        parts.append((t, length, src))
        t += length
    return parts


def naive_lz_cost(arr: np.ndarray) -> int:
    return len(naive_lz_parts(arr))


def expand_lz_parts(parts: list, arr: np.ndarray) -> np.ndarray:
    """Re-expand (start, length, source) parts; literals copy the input symbol."""
    out = []
    for start, length, src in parts:
        if src is None:
            out.append(int(arr[start]))
        else:
            for off in range(length):
                out.append(out[src + off])
    return np.array(out, dtype=arr.dtype)


def naive_run_lengths(arr) -> np.ndarray:
    """Lengths of the maximal runs of identical symbols, in order."""
    a = np.asarray(arr)
    ends = np.flatnonzero(a[1:] != a[:-1]) + 1
    return np.diff(np.concatenate([[0], ends, [a.size]]))


def naive_suffix_array(arr) -> list:
    """Start positions sorted by their suffixes, compared as tuples."""
    seq = np.asarray(arr).tolist()
    return sorted(range(len(seq)), key=lambda i: tuple(seq[i:]))


def naive_lcp(arr: np.ndarray, sa) -> list:
    """lcp[r] = common extension of suffixes sa[r-1] and sa[r]; lcp[0] = 0."""
    ext = _extension_table(arr)
    return [0] + [int(ext[a, b]) for a, b in zip(sa[:-1], sa[1:])]


def naive_lpf(arr: np.ndarray) -> list:
    """lpf[i] = longest common extension of i with any earlier start."""
    ext = _extension_table(arr)
    return [int(ext[:i, i].max()) if i else 0 for i in range(arr.size)]


def stack_lpf(sa, lcp) -> list:
    """lpf from the suffix and LCP arrays by one stack pass in rank order.

    The stack holds starts seen so far, increasing from bottom to top. While
    an entry waits on it, ``lpf`` holds its LCP with the entry below it (its previous
    smaller start); popping it, when its next smaller start arrives, settles
    the larger of that and the running LCP with the newcomer.
    """
    lpf = [0] * len(sa)
    stack = []
    for i, h in zip(np.asarray(sa).tolist(), np.asarray(lcp).tolist()):
        # h: LCP of suffix i with the top of the stack, once the pops are done
        while stack and stack[-1] > i:
            j = stack.pop()
            g = lpf[j]
            if h > g:
                lpf[j] = h
                h = g
        lpf[i] = h
        stack.append(i)
    return lpf


def staged_probe(arr, t: int, caps) -> tuple[int, set]:
    """Walk one probe at 1-based position ``t`` through a rising cap history.

    For each cap, extend left and then right, one position at a time, while
    the neighbour matches and fewer than ``cap`` positions are confirmed; a
    side closes at a mismatch or the string's edge. Returns the confirmed
    length and the set of 1-based positions read.
    """
    seq = np.asarray(arr).tolist()
    sym = seq[t - 1]
    ext = {-1: 0, 1: 0}
    open_ = {-1: t > 1, 1: t < len(seq)}
    read = {t}
    for cap in caps:
        for step in (-1, 1):
            while open_[step] and ext[-1] + ext[1] + 1 < cap:
                pos = t + step * (ext[step] + 1)
                read.add(pos)
                if seq[pos - 1] != sym:
                    open_[step] = False
                else:
                    ext[step] += 1
                    open_[step] = 1 < pos < len(seq)
    return ext[-1] + ext[1] + 1, read


def naive_distinct(arr, ell: int) -> int:
    seq = tuple(arr.tolist() if isinstance(arr, np.ndarray) else arr)
    return len({seq[t : t + ell] for t in range(len(seq) - ell + 1)})


def naive_distinct_prefixes(windows, ell: int) -> int:
    """Distinct length-``ell`` prefixes among ``windows`` (sequences of symbols)."""
    return len({tuple(w[:ell]) for w in windows})


def naive_color_count(arr) -> int:
    return len(sorted(set(np.asarray(arr).tolist())))


def random_symbols(n: int, sigma: int, seed: int) -> np.ndarray:
    return make_rng(seed).integers(0, sigma, size=n).astype(np.uint8 if sigma <= 256 else np.int64)


def alternating(n: int) -> np.ndarray:
    return (np.arange(n) % 2).astype(np.uint8)


def all_ones(n: int) -> np.ndarray:
    return np.ones(n, dtype=np.uint8)
