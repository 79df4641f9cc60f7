#!/usr/bin/env python3
"""Exact compression costs and the structure that connects them.

Walks through the two cost oracles on small strings where every number can
be checked by hand, then verifies the structural inequalities that tie LZ
cost to substring diversity on a larger random input.
"""

import numpy as np

from compest import (
    exact_distinct_substrings,
    exact_lz_cost,
    exact_rle_cost,
    verify_structural_lemmas,
)

print("== RLE cost ==")
for text, sigma in [("0011", 2), ("1111", 2), ("aabbbbc", 26)]:
    b = exact_rle_cost(text, sigma)
    runs = list(zip(b.starts.tolist(), b.lengths.tolist(), b.costs.tolist()))
    print(f"  {text!r} (sigma={sigma}): {b.total_cost} bits, runs (start, length, bits) {runs}")

print("\n== LZ77 cost (symbols emitted) ==")
for text in ["abab", "aaaa", "abcabc", "to be or not to be"]:
    b = exact_lz_cost(text)
    segs = list(zip(b.starts.tolist(), b.lengths.tolist()))
    print(f"  {text!r}: {b.total_cost} symbols, segments {segs}")

print("\n== distinct substrings ==")
for text, ell in [("aaaa", 2), ("abab", 2), ("abcabc", 3)]:
    print(f"  d_{ell}({text!r}) = {exact_distinct_substrings(text, ell)}")

print("\n== structural inequalities on a random string ==")
rng = np.random.default_rng(7)
arr = rng.integers(0, 2, size=4096).astype(np.uint8)
report = verify_structural_lemmas(arr, ell0=16)
print(f"  n={report.n}  C_lz={report.c_lz}  m=max d_ell/ell={report.m:.1f}")
for chk in report.checks:
    print(f"  {chk.name}: {'ok' if chk.holds else 'VIOLATED'}  witness={chk.witness}")
