#!/usr/bin/env python3
"""Counting distinct things by sampling: colors and substring diversity.

The colors estimator scales a sample's distinct count by lambda. One side of
its guarantee is unconditional: a sample can never contain more colors than
the string, so the output never exceeds lambda * C. The lower side holds
with probability 2/3. The amplified variant pools k basic samples into one:
adding positions can only raise the distinct count, so the pool fails only
if all k parts would, with probability at most 3^-k.

The same machinery estimates d_ell (distinct length-ell substrings) by
treating window starts as virtual colors, reusing one sampled window set for
every length at once.
"""

import numpy as np

from compest import (
    QueryCountedString,
    colors_estimate,
    colors_estimate_amplified,
    estimate_distinct,
    exact_color_count,
    exact_distinct_substrings,
)

rng = np.random.default_rng(11)

print("== colors: 100 colors, multiplicity 100 each, lambda = 5 ==")
tau_arr = np.repeat(np.arange(100), 100)
rng.shuffle(tau_arr)
tau = QueryCountedString.from_tokens(tau_arr)
exact = exact_color_count(tau_arr)
for seed in range(5):
    rep = colors_estimate(tau, 5.0, seed=seed)
    print(
        f"  seed {seed}: estimate {rep.estimate:6.0f}   true C = {exact}   "
        f"interval [{exact / 5:.0f}, {exact * 5:.0f}]   queries {rep.queries_used}"
    )

rep = colors_estimate_amplified(tau, 5.0, delta=0.01, seed=0)
print(f"  amplified (delta=0.01): estimate {rep.estimate:.0f}, confidence {rep.confidence:.2f}")

print("\n== distinct substrings by window sampling, factor B = 16 ==")
# A pool whose window reads would reach n scans instead and counts exactly.
arr = rng.integers(0, 2, size=50_000).astype(np.uint8)
for ell in (3, 6, 9):
    w = QueryCountedString.from_tokens(arr, 2)
    rep = estimate_distinct(w, ell, B=16.0, delta=0.05, seed=2)
    exact_d = exact_distinct_substrings(arr, ell)
    print(
        f"  ell={ell}: estimate {rep.estimate:8.0f}   exact d_ell = {exact_d:5d}   "
        f"interval [{exact_d / 16:.0f}, {exact_d * 16:.0f}]   "
        f"reads {rep.queries_used} of {arr.size}"
    )
