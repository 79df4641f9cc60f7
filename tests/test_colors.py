import numpy as np
import pytest

from compest import (
    QueryCountedString,
    colors_estimate,
    colors_estimate_amplified,
    exact_color_count,
    meets_contract,
)
from compest._rng import make_rng
from compest.colors import amplification_runs, sample_count


def multiplicity_instance(n_colors, n_prime, seed):
    """n_prime symbols, each of n_colors colors appearing n_prime/n_colors times."""
    arr = np.repeat(np.arange(n_colors), n_prime // n_colors)
    make_rng(seed).shuffle(arr)
    return QueryCountedString.from_tokens(arr)


def test_rejects_bad_lambda():
    w = QueryCountedString.from_tokens(np.arange(10))
    for lam in (1.0, 0.5, -2.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            colors_estimate(w, lam, seed=0)


def test_single_color_outputs_lambda():
    w = QueryCountedString.from_tokens(np.zeros(5000, dtype=np.int64))
    for lam in (1.5, 5.0, 20.0):
        rep = colors_estimate(w, lam, seed=3)
        assert rep.estimate == lam
        assert meets_contract(rep, 1, w.length)


def test_upper_side_holds_on_every_run():
    w = multiplicity_instance(100, 10_000, seed=5)
    for seed in range(100):
        rep = colors_estimate(w, 5.0, seed=seed)
        assert rep.estimate <= 5.0 * 100  # deterministic side of the contract


def test_two_sided_contract_usually_holds():
    w = multiplicity_instance(100, 10_000, seed=5)
    hits = sum(
        meets_contract(colors_estimate(w, 5.0, seed=seed), 100, w.length) for seed in range(100)
    )
    assert hits >= 60


def test_all_distinct_instance():
    n = 10_000
    w = QueryCountedString.from_tokens(np.arange(n))
    hits = 0
    for seed in range(50):
        rep = colors_estimate(w, 10.0, seed=seed)
        assert rep.estimate <= 10.0 * n
        hits += rep.estimate >= n / 10.0
    assert hits >= 33  # declared success probability is only 2/3


def test_sample_budget():
    n = 10_000
    w = QueryCountedString.from_tokens(np.arange(n))
    lam = 10.0
    rep = colors_estimate(w, lam, seed=1)
    assert sample_count(n, lam) == 1000
    assert rep.queries_used <= sample_count(n, lam)  # cache-once dedup only shrinks it


def test_amplification_runs_is_smallest_power_of_three_covering_delta():
    assert [amplification_runs(3**-j) for j in range(1, 7)] == [1, 2, 3, 4, 5, 6]
    assert amplification_runs(0.5) == 1
    assert amplification_runs(0.05) == 3  # 3^-2 > 0.05 >= 3^-3
    assert amplification_runs(1 / 21) == 3  # 3^-2 > 1/21 >= 3^-3
    for delta in (0.0, 1.0, -0.1):
        with pytest.raises(ValueError):
            amplification_runs(delta)


def test_amplified_pools_basic_sample_sizes():
    w = multiplicity_instance(40, 4000, seed=2)
    rep = colors_estimate_amplified(w, 3.0, 0.05, seed=9)
    # one pool of 3 basic sample sizes, scaled by lambda: never above lambda * d
    assert rep.estimate / 3.0 == int(rep.estimate / 3.0)
    assert rep.estimate <= 3.0 * 40
    assert rep.confidence == pytest.approx(0.95)
    assert rep.queries_used <= 3 * sample_count(4000, 3.0)
    # at delta = 1/3 the pool is one basic sample, drawn as the basic estimator draws it
    for seed in range(5):
        pooled = colors_estimate_amplified(w, 3.0, 1 / 3, seed=seed)
        basic = colors_estimate(w, 3.0, seed=seed)
        assert (pooled.estimate, pooled.queries_used) == (basic.estimate, basic.queries_used)


def test_amplified_single_color_is_lambda():
    w = QueryCountedString.from_tokens(np.zeros(100, dtype=np.int64))
    rep = colors_estimate_amplified(w, 7.0, 0.1, seed=0)
    assert rep.estimate == 7.0


def test_amplified_high_confidence_on_multiplicity_instance():
    w = multiplicity_instance(100, 10_000, seed=8)
    exact = exact_color_count(w.materialize())
    hits = sum(
        meets_contract(colors_estimate_amplified(w, 5.0, 0.01, seed=s), exact, w.length)
        for s in range(100)
    )
    assert hits >= 95


def test_deterministic_replay():
    w = multiplicity_instance(30, 3000, seed=4)
    assert colors_estimate(w, 4.0, seed=5) == colors_estimate(w, 4.0, seed=5)
    assert colors_estimate_amplified(w, 4.0, 0.1, seed=5) == colors_estimate_amplified(
        w, 4.0, 0.1, seed=5
    )
