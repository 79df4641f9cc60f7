import hashlib
import math

import numpy as np
import pytest

from compest import (
    GeneratorSpec,
    QueryCountedString,
    binarize,
    exact_lz_cost,
    exact_rle_cost,
    generate_coin_runs,
    generate_colors_to_lz,
    generate_lz_tight,
    generate_wk,
)
from compest._rng import derive_seed, make_rng
from compest.oracles import distinct_profile
from naive import naive_run_lengths, rle_length_bits


# -- planted-zero blocks ----------------------------------------------------


def test_wk_zero_count_and_isolation():
    for seed in range(20):
        arr = generate_wk(1024, 16, seed)
        zeros = np.flatnonzero(arr == 0)
        assert zeros.size == 8  # one per even block
        assert np.all(np.diff(zeros) > 1)  # every zero is isolated


def test_wk_run_count_near_k():
    for seed in range(20):
        arr = generate_wk(2048, 32, seed)
        lengths = naive_run_lengths(arr)
        assert lengths.size in (31, 32, 33)


def test_wk_remainder_goes_to_last_block():
    arr = generate_wk(1030, 16, seed=1)  # n % k = 6
    assert arr.size == 1030
    assert (arr == 0).sum() == 8


def test_wk_validates_domain():
    with pytest.raises(ValueError):
        generate_wk(10, 1, seed=0)
    with pytest.raises(ValueError):
        generate_wk(10, 6, seed=0)


def test_wk_cost_scales_as_k_log_n_over_k():
    n, k = 1024, 16
    target = k * math.log2(n / k)
    costs = [exact_rle_cost(generate_wk(n, k, seed), 2).total_cost for seed in range(100)]
    assert all(0.5 * target <= c <= 1.5 * target for c in costs)


def test_wk_cost_cross_checked_by_independent_scan():
    from naive import naive_rle_cost

    for seed in range(5):
        arr = generate_wk(1024, 16, seed)
        assert exact_rle_cost(arr, 2).total_cost == naive_rle_cost(arr.tolist(), 2)


def test_wk_deterministic():
    assert np.array_equal(generate_wk(512, 8, seed=5), generate_wk(512, 8, seed=5))


# -- coin runs ---------------------------------------------------------------


def test_coin_run_lengths_are_one_or_three():
    arr = generate_coin_runs(30_000, 0.5, seed=2)
    lengths = naive_run_lengths(arr)
    assert set(lengths.tolist()) <= {1, 3}
    assert arr.size == 30_000
    assert arr[0] == 0


def test_coin_prefix_run_when_not_divisible():
    for n in (30_001, 30_002):
        arr = generate_coin_runs(n, 0.5, seed=2)
        b = n % 3
        assert np.all(arr[:b] == 0) and arr[b] == 1  # prefix forms its own run
        lengths = naive_run_lengths(arr)
        assert lengths[0] == b
        assert set(lengths[1:].tolist()) <= {1, 3}


def test_coin_extreme_biases():
    tails = generate_coin_runs(300, 0.0, seed=1)
    lens = naive_run_lengths(tails)
    assert set(lens.tolist()) == {3}
    assert exact_rle_cost(tails, 2).total_cost == (300 // 3) * 3  # each run: 2 + 1 bits
    heads = generate_coin_runs(300, 1.0, seed=1)
    lens = naive_run_lengths(heads)
    assert set(lens.tolist()) == {1}


def test_coin_length_bits_identity():
    # runs of length 1 contribute 1 length-bit, runs of length 3 contribute 2:
    # the length-bit total is 2 * flips + heads (+ prefix bits)
    for n in (29_999, 30_000, 30_001):
        for seed in range(5):
            arr = generate_coin_runs(n, 0.6, seed=seed)
            lengths = naive_run_lengths(arr)
            b = n % 3
            body = lengths[1:] if b else lengths
            heads = int((body == 1).sum()) // 3
            flips = n // 3
            assert heads * 3 + (flips - heads) == body.size
            assert rle_length_bits(arr) == 2 * flips + heads + b


def test_coin_validates_p():
    with pytest.raises(ValueError):
        generate_coin_runs(100, 1.5, seed=0)


@pytest.mark.parametrize("n, digest", [
    (1, "b0f66adc83641586656866813fd9dd0b8ebb63796075661ba45d1aa8089e1d44"),
    (2, "15ec7bf0b50732b49f8228e07d24365338f9e3ab994b00af08e5a3bffe55fd8b"),
    (3, "27b530db9f4207ed7a4d0ea6d78888e05bf802a9eeb1b6ca3956cbfac2d489df"),
    (4, "af2cb2ff2a4bde75d29da28ed426d00016e1e9627054beaafec3536cf74eee8b"),
    (5, "3d88d26e26a28cfe8b773a01a1a7dff2fd5be62c547ef1cd5eac671813092323"),
    (3001, "0bc5f59a28f1893d986dfd4438df5ee699da7a19ed562757db27f7d238a7bd6a"),
    (10**6, "674f158aaa703889df874ca4e1c091f23645269d86d21a386da7ca6aa89c7834"),
])
def test_coin_bytes_are_pinned(n, digest):
    # sha256 over the outputs for p in (0, 0.5, 1) and seeds (0, 29), in that
    # order; the lengths cover every n mod 3 and both ends of the block walk
    d = hashlib.sha256()
    for p in (0.0, 0.5, 1.0):
        for seed in (0, 29):
            arr = generate_coin_runs(n, p, seed)
            assert arr.dtype == np.uint8 and arr.size == n
            d.update(arr.tobytes())
    assert d.hexdigest() == digest


# -- phased diversity strings --------------------------------------------------


def test_lz_tight_small_example():
    arr = generate_lz_tight(4, 2)
    assert arr.tolist() == [1, 2, 3, 4, 1, 1, 2, 2, 3, 3, 4, 4]


def test_lz_tight_phase_rule():
    arr = generate_lz_tight(6, 3)
    # phase 3 doubles symbols divisible by 2: 1 22 3 44 5 66
    assert arr.tolist()[18:] == [1, 2, 2, 3, 4, 4, 5, 6, 6]


def test_lz_tight_d1_is_m():
    arr = generate_lz_tight(64, 16)
    assert distinct_profile(arr, 1)[0] == 64


def test_lz_tight_diversity_and_cost():
    m, ell0 = 64, 16
    arr = generate_lz_tight(m, ell0)
    prof = distinct_profile(arr, ell0)
    assert all(prof[ell - 1] <= 3 * ell * m for ell in range(1, ell0 + 1))
    c = exact_lz_cost(arr).total_cost
    assert c >= m * sum(1.0 / ell for ell in range(1, ell0 + 1)) * 0.5


def test_lz_tight_validates_domain():
    with pytest.raises(ValueError):
        generate_lz_tight(4, 5)


def test_binarize_fixed_width():
    out = binarize(np.array([1, 2, 4]), 4)
    assert out.tolist() == [0, 0, 0, 1, 1, 1]
    with pytest.raises(ValueError):
        binarize(np.array([0]), 4)


# -- colors-to-LZ reduction ------------------------------------------------------


def test_col2lz_single_color_repeats_one_block():
    tau = QueryCountedString.from_tokens(np.array([7, 7, 7]))
    acc = generate_colors_to_lz(tau, 0.5, 4, seed=3)
    w = acc.materialize()
    k = acc.length // 3
    block = w[:k]
    assert np.array_equal(w, np.tile(block, 3))


def test_col2lz_equal_colors_identical_blocks():
    tau = QueryCountedString.from_tokens(np.array([1, 2, 1, 2, 1]))
    acc = generate_colors_to_lz(tau, 0.25, 2, seed=9)
    k = acc.length // 5
    w = acc.materialize()
    blocks = w.reshape(5, k)
    assert np.array_equal(blocks[0], blocks[2]) and np.array_equal(blocks[0], blocks[4])
    assert np.array_equal(blocks[1], blocks[3])
    assert not np.array_equal(blocks[0], blocks[1])  # distinct colors, independent blocks


def test_col2lz_one_tau_read_per_block():
    tau = QueryCountedString.from_tokens(np.arange(100) % 10)
    acc = generate_colors_to_lz(tau, 0.2, 2, seed=4)
    sess = acc.session()
    k = acc.length // 100
    positions = np.array([1, 2, 3, k + 1, 5 * k + 2, 99 * k + 1, 1, 2])
    sess.read_many(positions)
    touched_blocks = {int((p - 1) // k) for p in positions}
    assert acc.provider.blocks_materialized == len(touched_blocks)
    assert acc.provider.tau_reads == len(touched_blocks)
    assert acc.provider.tau_reads <= len(positions)


def test_col2lz_reads_new_block_colors_in_one_batch():
    n_prime = 10**6  # 10 000 tau reads stay on the sorted ledger (n' // 64)
    tau_tokens = np.random.default_rng(6).integers(0, 500, size=n_prime)
    acc = generate_colors_to_lz(QueryCountedString.from_tokens(tau_tokens), 0.25, 2, seed=2)
    tau_batches = []
    read_many = acc.provider.tau_session.read_many
    acc.provider.tau_session.read_many = lambda pos: tau_batches.append(len(pos)) or read_many(pos)
    positions = np.random.default_rng(7).integers(1, acc.length + 1, size=10_000)
    values = acc.session().read_many(positions)
    blocks = np.unique((positions - 1) // 4)
    assert tau_batches == [blocks.size]
    assert acc.provider.tau_reads == acc.provider.blocks_materialized == blocks.size
    assert acc.provider.tau_session._touched._bitmap is None

    again = generate_colors_to_lz(QueryCountedString.from_tokens(tau_tokens), 0.25, 2, seed=2)
    sess = again.session()
    chunks = np.array_split(positions, 40)[::-1]
    assert np.array_equal(np.concatenate([sess.read_many(c) for c in chunks][::-1]), values)


def test_col2lz_query_order_does_not_change_string():
    tau_tokens = np.arange(50) % 7
    a1 = generate_colors_to_lz(QueryCountedString.from_tokens(tau_tokens), 0.3, 4, seed=8)
    a2 = generate_colors_to_lz(QueryCountedString.from_tokens(tau_tokens), 0.3, 4, seed=8)
    s2 = a2.session()
    s2.read_many(np.arange(a2.length, 0, -1))  # touch everything backwards first
    assert np.array_equal(a1.materialize(), a2.materialize())


def test_col2lz_validates_alpha():
    tau = QueryCountedString.from_tokens(np.arange(10))
    with pytest.raises(ValueError):
        generate_colors_to_lz(tau, 0.05, 2, seed=0)  # below 1/n'
    with pytest.raises(ValueError):
        generate_colors_to_lz(tau, 1.0, 2, seed=0)


def test_col2lz_low_color_cost_bound():
    n_prime, alpha_p = 500, 0.1
    k = math.ceil(1 / alpha_p)
    n = n_prime * k
    for seed in range(10):
        rng = make_rng(derive_seed(123, seed))
        tau = QueryCountedString.from_tokens(rng.integers(0, 50, size=n_prime))
        acc = generate_colors_to_lz(tau, alpha_p, 2, seed=derive_seed(456, seed))
        assert exact_lz_cost(acc.materialize()).total_cost <= 2 * alpha_p * n


# -- declarative specs -------------------------------------------------------------


def test_generator_spec_dispatch_and_determinism():
    spec = GeneratorSpec("wk", {"n": 512, "k": 8}, seed=2)
    assert np.array_equal(spec.build(), generate_wk(512, 8, seed=2))
    spec = GeneratorSpec("coin", {"n": 300, "p": 0.4}, seed=2)
    assert np.array_equal(spec.build(), generate_coin_runs(300, 0.4, seed=2))
    spec = GeneratorSpec("lztight", {"m": 8, "ell0": 4})
    assert np.array_equal(spec.build(), generate_lz_tight(8, 4))
    spec = GeneratorSpec(
        "col2lz", {"n_prime": 50, "colors": 5, "alpha_prime": 0.2, "sigma": 2}, seed=3
    )
    w1 = spec.build().materialize()
    w2 = spec.build().materialize()
    assert np.array_equal(w1, w2)
    with pytest.raises(ValueError):
        GeneratorSpec("nope", {}, 0)
