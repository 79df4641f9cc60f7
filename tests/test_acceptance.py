"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``. Statistical criteria use
fixed seeds and the calibrated thresholds recorded here; every expected value
is either derived from the independent brute-force oracles in ``naive.py`` or
pinned by the estimator contracts themselves.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from compest import (
    QueryCountedString,
    colors_estimate,
    distinguish_compressible,
    exact_lz_cost,
    exact_rle_cost,
    generate_coin_runs,
    generate_colors_to_lz,
    generate_lz_tight,
    generate_wk,
    lz_estimate,
    meets_contract,
    rle_additive_estimate,
    rle_bucketed_estimate,
    verify_structural_lemmas,
)
from compest._rng import derive_seed, make_rng
from compest.campaign import build_builtin
from compest.oracles import distinct_profile, rle_length_bits
from compest.lz import LzEstimateParams, window_plan
from compest.rle import (
    additive_plan,
    rle_multiplicative_search_detailed,
    search_query_ceiling,
)
from naive import all_ones, alternating, naive_lz_cost, naive_rle_cost, naive_run_lengths, random_symbols

TRIALS = 100


def check(num, name, ok, detail=""):
    line = f"criterion {num:>2} [{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def acc(arr, sigma=None):
    return QueryCountedString.from_tokens(arr, sigma)


# ---------------------------------------------------------------- corpora


@pytest.fixture(scope="module")
def lemma_corpus():
    """1000 random n=512 strings plus instances of every generator family,
    each paired with its structural-inequality report at ell0 = 16."""
    strings = []
    for i in range(1000):
        sigma = (2, 4, 26)[i % 3]
        strings.append(random_symbols(512, sigma, seed=derive_seed(10_000, i)))
    for seed in range(3):
        strings.append(generate_wk(1024, 16, seed=derive_seed(11_000, seed)))
        strings.append(generate_coin_runs(3000, 0.5, seed=derive_seed(12_000, seed)))
        tau = QueryCountedString.from_tokens(
            make_rng(derive_seed(13_000, seed)).integers(0, 50, size=500)
        )
        strings.append(
            generate_colors_to_lz(tau, 0.1, 2, seed=derive_seed(14_000, seed)).materialize()
        )
    strings.append(generate_lz_tight(64, 16))
    return [(arr, verify_structural_lemmas(arr, 16)) for arr in strings]


# ---------------------------------------------------------------- criteria


def test_criterion_01_oracles_match_naive_reimplementations():
    mismatches = 0
    rng = make_rng(777)
    for i in range(1000):
        sigma = (2, 4, 26)[i % 3]
        n = int(rng.integers(2, 513))
        arr = random_symbols(n, sigma, seed=derive_seed(20_000, i))
        if exact_rle_cost(arr, sigma).total_cost != naive_rle_cost(arr.tolist(), sigma):
            mismatches += 1
        if exact_lz_cost(arr).total_cost != naive_lz_cost(arr):
            mismatches += 1
    check(1, "oracles agree with naive scan / quadratic match on 1000 strings",
          mismatches == 0, f"mismatches={mismatches}")


def test_criterion_02_diversity_lower_bound(lemma_corpus):
    violations = sum(not rep["diversity_lower_bound"].holds for _, rep in lemma_corpus)
    check(2, "d_ell <= C_lz * ell for ell in [16] on corpus + generator families",
          violations == 0, f"strings={len(lemma_corpus)} violations={violations}")


def test_criterion_03_diversity_upper_bound_and_segment_mass(lemma_corpus):
    violations = sum(
        not (rep["diversity_upper_bound"].holds and rep["short_segment_mass"].holds)
        for _, rep in lemma_corpus
    )
    check(3, "C_lz <= 4(m log l0 + n/l0) and short-segment mass bound, ell0=16",
          violations == 0, f"strings={len(lemma_corpus)} violations={violations}")


def test_criterion_04_phased_string_tightness():
    m, ell0 = 64, 16
    arr = generate_lz_tight(m, ell0)
    prof = distinct_profile(arr, ell0)
    diversity_ok = all(prof[ell - 1] <= 3 * ell * m for ell in range(1, ell0 + 1))
    c = exact_lz_cost(arr).total_cost
    floor = 0.5 * m * math.log(ell0)
    check(4, "phased instance: d_ell <= 3*ell*m and C_lz >= 0.5*m*ln(ell0)",
          diversity_ok and c >= floor, f"C_lz={c} floor={floor:.1f}")


def test_criterion_05_additive_estimator_contract():
    n, eps = 100_000, 0.05
    budget = additive_plan(n, 2, eps).bound
    hits = within_budget = 0
    for t in range(TRIALS):
        arr = random_symbols(n, 2, seed=derive_seed(30_000, t))
        rep = rle_additive_estimate(acc(arr, 2), eps, seed=derive_seed(30_500, t))
        exact = exact_rle_cost(arr, 2).total_cost
        hits += abs(rep.estimate - exact) <= eps * n
        within_budget += rep.queries_used <= budget
    check(5, "additive RLE: |est - C| <= eps*n in >= 90/100, queries under ceiling 100/100",
          hits >= 90 and within_budget == TRIALS, f"hits={hits} budget_ok={within_budget}")


def test_criterion_06_bucketed_estimator_contract():
    n, eps, delta = 100_000, 0.05, 1 / 3
    hits = {"random": 0, "run-mix": 0}
    for t in range(TRIALS // 2):
        for name in hits:
            if name == "random":
                arr = random_symbols(n, 2, seed=derive_seed(31_000, t))
            else:
                arr = build_builtin("run-mix", n, seed=derive_seed(31_500, t))
            rep = rle_bucketed_estimate(acc(arr, 2), eps, delta, seed=derive_seed(31_700, t))
            exact = exact_rle_cost(arr, 2).total_cost
            hits[name] += meets_contract(rep, exact, n)
    total = hits["random"] + hits["run-mix"]
    check(6, "bucketed RLE: (3, 0.05) contract in >= 90/100 over both corpora",
          total >= 90, f"random={hits['random']}/50 run-mix={hits['run-mix']}/50")


def test_criterion_07_multiplicative_search():
    n = 2**16
    alt, ones = alternating(n), all_ones(n)
    exact_alt = exact_rle_cost(alt, 2).total_cost
    exact_ones = exact_rle_cost(ones, 2).total_cost
    hits_alt = hits_ones = 0
    measured = []
    for t in range(TRIALS):
        rep = rle_multiplicative_search_detailed(acc(alt, 2), seed=derive_seed(32_000, t)).report
        hits_alt += exact_alt / 4 <= rep.estimate <= 4 * exact_alt
        measured.append(rep.queries_used)
        rep = rle_multiplicative_search_detailed(acc(ones, 2), seed=derive_seed(32_500, t)).report
        hits_ones += exact_ones / 4 <= rep.estimate <= 4 * exact_ones
    mean_q = float(np.mean(measured))
    ceiling = search_query_ceiling(n, exact_alt)
    check(7, "4x search: in [C/4, 4C] on alternating and all-ones, query ceiling on alternating",
          hits_alt >= 90 and hits_ones >= 90 and mean_q <= ceiling,
          f"alt={hits_alt} ones={hits_ones} mean_q={mean_q:.0f} ceiling={ceiling:.0f}")


def test_criterion_08_colors_estimator():
    n_prime, n_colors, lam = 10_000, 100, 5.0
    base = np.repeat(np.arange(n_colors), n_prime // n_colors)
    make_rng(8_000).shuffle(base)
    tau = acc(base)
    upper_ok = two_sided = 0
    for t in range(TRIALS):
        rep = colors_estimate(tau, lam, seed=derive_seed(33_000, t))
        upper_ok += rep.estimate <= lam * n_colors
        two_sided += meets_contract(rep, n_colors, n_prime)
    check(8, "colors: upper side 100/100 (hard), two-sided >= 60/100 at lambda=5",
          upper_ok == TRIALS and two_sided >= 60, f"upper={upper_ok} two_sided={two_sided}")


def test_criterion_09_lz_estimator_and_distinguisher():
    n, A, eps = 100_000, 8.0, 0.05
    hits = within = 0
    p = LzEstimateParams.derive(A, eps, n)
    ceiling = window_plan(n, p.ell0, p.B).bound
    for t in range(TRIALS):
        arr = random_symbols(n, 2, seed=derive_seed(34_000, t))
        rep = lz_estimate(acc(arr, 2), A, eps, seed=derive_seed(34_500, t))
        hits += meets_contract(rep, exact_lz_cost(arr).total_cost, n)
        within += rep.queries_used <= ceiling
    lo, hi = math.sqrt(n), n / 4
    ones_w = acc(all_ones(n), 2)
    low_ok = high_ok = 0
    for t in range(TRIALS):
        res = distinguish_compressible(ones_w, lo, hi, seed=derive_seed(35_000, t))
        low_ok += res.verdict == "LOW"
        arr = random_symbols(n, 256, seed=derive_seed(35_500, t))
        high_ok += (
            distinguish_compressible(acc(arr, 256), lo, hi, seed=derive_seed(35_700, t)).verdict
            == "HIGH"
        )
    check(9, "LZ: (8, 0.05) contract >= 90/100, distinguisher separates >= 90/100, reads under ceiling",
          hits >= 90 and within == TRIALS and low_ok >= 90 and high_ok >= 90,
          f"contract={hits} low={low_ok} high={high_ok}")


def test_criterion_10_reduction_instances():
    n_prime, alpha_p = 500, 0.1
    k = math.ceil(1 / alpha_p)
    n = n_prime * k
    low_ok = 0
    for t in range(TRIALS):
        tau = acc(make_rng(derive_seed(36_000, t)).integers(0, int(alpha_p * n_prime), size=n_prime))
        lz_instance = generate_colors_to_lz(tau, alpha_p, 2, seed=derive_seed(36_500, t))
        low_ok += exact_lz_cost(lz_instance.materialize()).total_cost <= 2 * alpha_p * n

    beta_p, sigma = 0.8, 256
    floor = 0.5 * beta_p * n * min(1.0, math.log2(sigma) / (4 * math.log2(n_prime)))
    high_ok = 0
    for t in range(TRIALS):
        rng = make_rng(derive_seed(37_000, t))
        colors = np.concatenate(
            [np.arange(int(beta_p * n_prime)), rng.integers(0, int(beta_p * n_prime), size=n_prime - int(beta_p * n_prime))]
        )
        rng.shuffle(colors)
        lz_instance = generate_colors_to_lz(acc(colors), alpha_p, sigma, seed=derive_seed(37_500, t))
        high_ok += exact_lz_cost(lz_instance.materialize()).total_cost >= floor

    lazy_ok = 0
    for t in range(TRIALS):
        tau = acc(make_rng(derive_seed(38_000, t)).integers(0, 50, size=n_prime))
        lz_instance = generate_colors_to_lz(tau, alpha_p, 2, seed=derive_seed(38_500, t))
        sess = lz_instance.session()
        positions = make_rng(derive_seed(38_700, t)).integers(1, lz_instance.length + 1, size=25)
        sess.read_many(positions)
        blocks_touched = len({int((p - 1) // k) for p in positions.tolist()})
        lazy_ok += lz_instance.provider.tau_reads <= blocks_touched

    check(10, "reduction: C_lz <= 2*a'*n 100/100, high-color floor >= 90/100, <=1 tau-read/block 100/100",
          low_ok == TRIALS and high_ok >= 90 and lazy_ok == TRIALS,
          f"low={low_ok} high={high_ok} lazy={lazy_ok}")


def test_criterion_11_coin_gap_and_per_string_identity():
    n, eps_gap = 30_000, 0.1
    flips = n // 3
    costs = {0.5: [], 0.6: []}
    for p in costs:
        for t in range(TRIALS):
            arr = generate_coin_runs(n, p, seed=derive_seed(39_000 + int(p * 10), t))
            b = n % 3
            lengths = naive_run_lengths(arr)
            body = lengths[1:] if b else lengths
            heads = int((body == 1).sum()) // 3
            # run-length bit component obeys the flip accounting exactly
            assert rle_length_bits(arr) == 2 * flips + heads + b
            costs[p].append(exact_rle_cost(arr, 2).total_cost)
    gap = float(np.mean(costs[0.6]) - np.mean(costs[0.5]))
    floor = 0.5 * (eps_gap * n / 12)
    check(11, "coin-runs: per-string cost identity holds, mean cost gap >= 0.5*eps*n/12",
          gap >= floor, f"gap={gap:.0f} floor={floor:.0f}")


def test_criterion_12_stochastic_subcommands_replay_byte_identical(tmp_path):
    import io
    from contextlib import redirect_stdout

    from compest import cli

    path = tmp_path / "w.bin"
    path.write_bytes(bytes(alternating(4096)))
    gen_out = str(tmp_path / "g.bin")
    invocations = [
        ["rle-est", "--mode", "additive", "--epsilon", "0.1", "--seed", "5", str(path)],
        ["rle-est", "--mode", "bucketed", "--epsilon", "0.2", "--delta", "0.2", "--seed", "5", str(path)],
        ["rle-est", "--mode", "search", "--seed", "5", str(path)],
        ["rle-est", "--mode", "refined", "--gamma", "0.5", "--seed", "5", str(path)],
        ["colors-est", "--lambda", "3", "--seed", "5", str(path)],
        ["colors-est", "--lambda", "3", "--delta", "0.1", "--seed", "5", str(path)],
        ["lz-est", "--A", "4", "--epsilon", "0.1", "--seed", "5", str(path)],
        ["lz-distinguish", "--lo", "64", "--hi", "1024", "--seed", "5", str(path)],
        ["gen", "--family", "wk", "--n", "1024", "--k", "16", "--seed", "5", "--out", gen_out, "--emit-meta"],
    ]
    identical = 0
    for argv in invocations:
        outputs = []
        for _ in range(2):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.main(argv)
            extra = Path(gen_out).read_bytes() if argv[0] == "gen" else b""
            outputs.append((code, buf.getvalue().encode(), extra))
        identical += outputs[0] == outputs[1]
    check(12, "replaying every stochastic subcommand is byte-identical",
          identical == len(invocations), f"{identical}/{len(invocations)} subcommands")
