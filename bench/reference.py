"""The benchmark's own ground truth, sharing no code with ``compest``.

* RLE cost and color counts: a chunked numpy scan, cheap enough at n = 1e8
  where ``compest.exact_rle_cost`` would build ~5e7 Python tuples.
* Greedy-LZ77 phrase count: an online suffix automaton in plain Python.
  It is slow at the workload sizes, so its results are pinned in
  ``golden_lz.json`` keyed by a digest of the input; ``make_golden.py``
  regenerates that file. An input missing from it is computed live.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

GOLDEN_PATH = Path(__file__).with_name("golden_lz.json")
CHUNK = 1 << 20  # keeps temporaries near 30 MB, under the cli-bigfile child RSS


def bit_length(values: np.ndarray) -> np.ndarray:
    """Bit length of positive integers below 2**53 (= ceil(log2(v + 1)))."""
    return np.frexp(values.astype(np.float64))[1].astype(np.int64)


def rle_cost(arr: np.ndarray, alphabet_size: int) -> int:
    """Sum over maximal runs of ceil(log2(len + 1)) + ceil(log2(sigma)) bits."""
    n = int(arr.size)
    s_bits = int(bit_length(np.array([alphabet_size - 1]))[0])
    total = 0
    runs = 0
    run_start = 0  # start of the run still open at the current chunk boundary
    for lo in range(0, n - 1, CHUNK):
        hi = min(lo + CHUNK, n - 1)
        ends = np.flatnonzero(arr[lo + 1 : hi + 1] != arr[lo:hi]) + lo + 1
        if ends.size:
            starts = np.concatenate(([run_start], ends[:-1]))
            total += int(bit_length(ends - starts).sum())
            runs += int(ends.size)
            run_start = int(ends[-1])
    total += int(bit_length(np.array([n - run_start]))[0])
    return total + (runs + 1) * s_bits


def color_count(arr: np.ndarray) -> int:
    """Number of distinct symbols."""
    if arr.dtype == np.uint8:
        seen = np.zeros(256, dtype=bool)
        for lo in range(0, arr.size, CHUNK):
            seen[arr[lo : lo + CHUNK]] = True
        return int(seen.sum())
    return int(np.unique(arr).size)


def lz_phrase_count(arr: np.ndarray) -> int:
    """Greedy LZ77 phrase count: each phrase is the longest prefix of the rest
    that also starts earlier (overlap allowed); an unseen symbol is a literal.

    The automaton holds the prefix s[:i + l] when the phrase at i is tested
    for length l + 1, so a match there starts before i.
    """
    seq = arr.tolist()
    n = len(seq)
    nxt: list[dict] = [{}]
    link = [-1]
    length = [0]
    last = 0
    built = 0
    count = 0
    i = 0
    while i < n:
        state, ell = 0, 0
        while i + ell < n:
            while built < i + ell:
                # Standard online suffix-automaton extension by seq[built].
                c = seq[built]
                cur = len(length)
                nxt.append({})
                length.append(length[last] + 1)
                link.append(0)
                p = last
                while p != -1 and c not in nxt[p]:
                    nxt[p][c] = cur
                    p = link[p]
                if p != -1:
                    q = nxt[p][c]
                    if length[p] + 1 == length[q]:
                        link[cur] = q
                    else:
                        clone = len(length)
                        nxt.append(dict(nxt[q]))
                        length.append(length[p] + 1)
                        link.append(link[q])
                        while p != -1 and nxt[p].get(c) == q:
                            nxt[p][c] = clone
                            p = link[p]
                        link[q] = clone
                        link[cur] = clone
                last = cur
                built += 1
                # A clone may now own the matched string; step up to it.
                while state and length[link[state]] >= ell:
                    state = link[state]
            target = nxt[state].get(seq[i + ell])
            if target is None:
                break
            state = target
            ell += 1
        count += 1
        i += max(ell, 1)
    return count


def digest(arr: np.ndarray) -> str:
    """Content key of a symbol array, independent of its dtype."""
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=np.int64).tobytes()).hexdigest()[:32]


class LzOracle:
    """Exact LZ costs: the pinned golden value, else the live reference."""

    def __init__(self, path: Path = GOLDEN_PATH):
        self.golden = json.loads(path.read_text())["costs"] if path.exists() else {}

    def cost(self, arr: np.ndarray) -> int:
        pinned = self.golden.get(digest(arr))
        return lz_phrase_count(arr) if pinned is None else pinned
