#!/usr/bin/env python3
"""The three RLE estimators, their accuracy contracts, and what they cost.

Same three inputs for each estimator: highly compressible (all ones),
incompressible (alternating bits), and a random bit string in between.
Watch the queries column: the estimators read a vanishing fraction of the
input except where a contract requires more, and where it does the searches
read the whole string once instead and report the exact cost.
"""

import numpy as np

from compest import (
    QueryCountedString,
    exact_rle_cost,
    meets_contract,
    rle_additive_estimate,
    rle_bucketed_estimate,
    rle_multiplicative_search,
    rle_refined_search,
)

n = 200_000
inputs = {
    "all-ones": np.ones(n, dtype=np.uint8),
    "alternating": (np.arange(n) % 2).astype(np.uint8),
    "random bits": np.random.default_rng(3).integers(0, 2, size=n).astype(np.uint8),
}

print(f"n = {n}\n")
header = f"{'input':<12} {'estimator':<22} {'estimate':>12} {'exact':>9} {'queries':>8}  contract"
print(header)
print("-" * len(header))

for name, arr in inputs.items():
    exact = exact_rle_cost(arr, 2).total_cost
    runs = [
        ("additive eps=0.05", lambda w: rle_additive_estimate(w, 0.05, seed=1)),
        ("bucketed (3,0.05)", lambda w: rle_bucketed_estimate(w, 0.05, 1 / 3, seed=1)),
        ("search (4x)", lambda w: rle_multiplicative_search(w, seed=1)),
        ("refined (1.5x)", lambda w: rle_refined_search(w, 0.5, seed=1)),
    ]
    for label, fn in runs:
        w = QueryCountedString.from_tokens(arr, 2)
        rep = fn(w)
        ok = meets_contract(rep, exact, n)
        print(
            f"{name:<12} {label:<22} {rep.estimate:>12.1f} {exact:>9} "
            f"{rep.queries_used:>8}  {'ok' if ok else 'MISS'}"
        )
    print()

print("The additive estimator reads ~eps^-3 positions regardless of n, but on")
print("all-ones each probe walks the one run up to its cap. The 4x search needs")
print("about n/C reads: the alternating and random strings finish after a few")
print("thousand. On all-ones (C=19) that is far more than n, so the search scans")
print("once its reads are forecast past a quarter of n and prints the exact cost")
print("with n reads. Every refined run scans too: at this n its first round's")
print("plan already draws more than a quarter of n.")
