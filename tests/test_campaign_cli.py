import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from compest import QueryCountedString, cli, oracles
from compest._rng import make_rng
from compest.campaign import (
    ESTIMATORS,
    CampaignConfig,
    audit_queries,
    build_builtin,
    build_instance,
    run_campaign,
    write_result,
)
from compest.generators import GeneratorSpec, generate_lz_tight
from compest.oracles import (
    CostBreakdown,
    exact_color_count,
    exact_lz_cost,
    exact_rle_cost,
    rle_total_cost,
)
from naive import naive_run_lengths


def run_cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# -- campaign machinery -------------------------------------------------------


def make_config(tmp_path, **overrides):
    base = dict(
        estimator="rle-additive",
        params={"epsilon": 0.1},
        instance={"kind": "builtin", "name": "alternating", "n": 20_000},
        trials=5,
        base_seed=11,
        min_success_rate=0.9,
        output=str(tmp_path / "camp"),
    )
    base.update(overrides)
    return CampaignConfig(**base)


def test_campaign_on_alternating_is_all_passes(tmp_path):
    result = run_campaign(make_config(tmp_path))
    assert result.success_rate == 1.0
    assert result.passed
    assert len(result.rows) == 5
    assert all(row["contract_pass"] == 1 for row in result.rows)


def test_campaign_zero_trials_rejected(tmp_path):
    with pytest.raises(ValueError):
        make_config(tmp_path, trials=0)


def test_campaign_unknown_estimator_fails_before_any_work(tmp_path, monkeypatch):
    from compest import oracles

    def oracle_called(*args, **kwargs):
        raise AssertionError("the exact oracle ran for an unknown estimator")

    monkeypatch.setattr(oracles, "exact_lz_cost", oracle_called)
    with pytest.raises(ValueError, match="unknown estimator 'colorz'"):
        make_config(tmp_path, estimator="colorz", params={"lambda": 3})
    cfg_path = tmp_path / "colorz.json"
    cfg_path.write_text(json.dumps({
        "estimator": "colorz", "params": {}, "trials": 2, "base_seed": 1,
        "instance": {"kind": "builtin", "name": "ones", "n": 100},
    }))
    with pytest.raises(ValueError, match="unknown estimator 'colorz'"):
        CampaignConfig.from_json_file(cfg_path)


def test_campaign_config_file_rejects_unknown_keys_and_non_booleans(tmp_path):
    base = {
        "estimator": "rle-search", "trials": 2, "base_seed": 1,
        "instance": {"kind": "builtin", "name": "ones", "n": 100},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base))
    cfg = CampaignConfig.from_json_file(path)
    assert (cfg.params, cfg.per_trial_instances, cfg.min_success_rate, cfg.output) == (
        {}, False, 0.9, None
    )
    path.write_text(json.dumps(dict(base, min_sucess_rate=1.0, extra=0)))
    with pytest.raises(ValueError, match="unknown campaign config keys: extra, min_sucess_rate"):
        CampaignConfig.from_json_file(path)
    for value in ("false", 0, None):
        path.write_text(json.dumps(dict(base, per_trial_instances=value)))
        with pytest.raises(ValueError, match="per_trial_instances"):
            CampaignConfig.from_json_file(path)
    sample_path = Path(__file__).parents[1] / "configs" / "sample-campaign.json"
    sample = CampaignConfig.from_json_file(sample_path)
    assert sample.min_success_rate == 0.9 and sample.per_trial_instances is False


def test_campaign_replay_byte_identical(tmp_path):
    cfg = make_config(tmp_path)
    r1 = run_campaign(cfg)
    r2 = run_campaign(cfg)
    assert r1.to_csv_text() == r2.to_csv_text()
    assert json.dumps(r1.to_json_dict(), sort_keys=True) == json.dumps(
        r2.to_json_dict(), sort_keys=True
    )
    csv_path, json_path = write_result(r1, cfg.output)
    with open(json_path) as fh:
        blob = json.load(fh)
    assert "wall" not in json.dumps(blob)  # timing never lands in artifacts


def test_campaign_invalid_params_mark_rows(tmp_path):
    for epsilon in (5.0, "abc", None):
        cfg = make_config(tmp_path, params={"epsilon": epsilon})
        result = run_campaign(cfg)
        assert result.success_rate == 0.0
        assert all(row["valid"] == 0 and row["error"] for row in result.rows)
        assert not result.passed


def test_campaign_generator_instances_per_trial(tmp_path):
    cfg = make_config(
        tmp_path,
        estimator="rle-search",
        params={},
        instance={"kind": "generator", "family": "coin", "params": {"n": 3000, "p": 0.5}},
        per_trial_instances=True,
        trials=4,
        min_success_rate=0.75,
    )
    result = run_campaign(cfg)
    assert len({row["exact"] for row in result.rows}) > 1  # instances actually vary


def test_campaign_oracles_read_every_symbol_and_check_a_providers_alphabet():
    arr = np.random.default_rng(8).integers(0, 4, size=3000).astype(np.uint8)
    want = {
        "rle-additive": rle_total_cost(arr, 4),
        "colors": exact_color_count(arr),
        "lz": exact_lz_cost(arr).total_cost,
    }
    for acc in (
        QueryCountedString.from_tokens(arr, 4),
        QueryCountedString.from_provider(lambda idx0: arr[idx0], arr.size, 4),
    ):
        for name, exact in want.items():
            assert ESTIMATORS[name].exact(acc) == exact
    five = QueryCountedString.from_provider(lambda idx0: idx0 % 5, arr.size, 4)
    with pytest.raises(ValueError, match="exceed declared alphabet size 4"):
        ESTIMATORS["colors"].exact(five)


@pytest.mark.parametrize("name, params, estimator, oracle", [
    ("rle-additive", {"epsilon": 0.1}, "rle.rle_additive_estimate", "oracles.rle_total_cost"),
    ("rle-bucketed", {"epsilon": 0.2}, "rle.rle_bucketed_estimate", "oracles.rle_total_cost"),
    ("rle-search", {}, "rle.rle_multiplicative_search", "oracles.rle_total_cost"),
    ("rle-refined", {"gamma": 0.5}, "rle.rle_refined_search", "oracles.rle_total_cost"),
    ("colors", {"lambda": 3}, "colors.colors_estimate", "oracles.exact_color_count"),
    ("colors-amplified", {"lambda": 3}, "colors.colors_estimate_amplified", "oracles.exact_color_count"),
    ("lz", {"A": 4, "epsilon": 0.1}, "lz.lz_estimate", "oracles.exact_lz_cost"),
], ids=lambda v: v.rpartition(".")[2] if isinstance(v, str) else None)
def test_estimator_rows_resolve_module_globals_at_call_time(
    tmp_path, monkeypatch, name, params, estimator, oracle
):
    # Tracing and profiling swap these module attributes; a row that held
    # the function object itself would bypass the swap.
    import importlib

    assert (ESTIMATORS[name].estimator, ESTIMATORS[name].oracle) == (estimator, oracle)
    calls = []
    for ref in (estimator, oracle):
        module, attr = ref.split(".")
        module = importlib.import_module(f"compest.{module}")
        original = getattr(module, attr)

        def recorded(*args, _ref=ref, _original=original, **kwargs):
            calls.append(_ref)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, attr, recorded)
    run_campaign(make_config(tmp_path, estimator=name, params=params, trials=1))
    assert calls == [oracle, estimator]


def test_builtin_instances():
    arr = build_builtin("run-mix", 10_000, seed=3)
    assert arr.size == 10_000
    lens = naive_run_lengths(arr)
    assert set(lens[:-1].tolist()) <= {1, 8}  # last run is the tail filler
    assert build_builtin("ones", 10, 0).tolist() == [1] * 10
    with pytest.raises(ValueError):
        build_builtin("nope", 10, 0)


def test_build_instance_from_file(tmp_path):
    path = tmp_path / "input.bin"
    path.write_bytes(b"\x00\x01\x00\x01")
    acc = build_instance({"kind": "file", "path": str(path)})
    assert acc.length == 4 and acc.alphabet_size == 2


def test_build_instance_returns_a_provider_backed_col2lz():
    spec = {
        "kind": "generator",
        "family": "col2lz",
        "params": {"n_prime": 40, "colors": 6, "alpha_prime": 0.2, "sigma": 3},
    }
    acc = build_instance(spec, seed=5)
    assert acc.provider is not None and acc.length == 40 * 5 and acc.alphabet_size == 3
    expected = GeneratorSpec("col2lz", spec["params"], 5).build()
    assert acc.materialize().tolist() == expected.materialize().tolist()


def test_audit_scaling_additive_epsilon_halved():
    # halving eps multiplies the sample count by 4 and the probe cap by ~2;
    # measured reads should land within the 2x-32x band around the nominal 8x
    from compest import QueryCountedString, rle_additive_estimate
    from naive import random_symbols

    arr = random_symbols(100_000, 2, seed=60)
    q_coarse = rle_additive_estimate(
        QueryCountedString.from_tokens(arr, 2), 0.1, seed=1
    ).queries_used
    q_fine = rle_additive_estimate(
        QueryCountedString.from_tokens(arr, 2), 0.05, seed=1
    ).queries_used
    assert 2 * q_coarse <= q_fine <= 32 * q_coarse


def test_audit_scaling_lz_factor_doubled():
    # doubling A shrinks the window pool's read bound ~8x; distinct reads
    # saturate at n on inputs this small, so the audit checks the pre-dedup
    # bound, draws * ell0, that the plan states. (8, 0.05) scans, so the pair
    # is (16, 0.05) and (32, 0.05), both on the sampled lane.
    from compest.lz import LzEstimateParams, window_plan

    def raw_budget(a_factor, eps, n):
        p = LzEstimateParams.derive(a_factor, eps, n)
        plan = window_plan(n, p.ell0, p.B)
        assert not plan.scan and plan.bound == plan.draws * p.ell0
        return plan.bound

    n, eps = 100_000, 0.05
    ratio = raw_budget(16, eps, n) / raw_budget(32, eps, n)
    assert 2 <= ratio <= 32


@pytest.mark.parametrize("sigma", [2, 4])
def test_audit_ceilings_are_the_bounds_runs_assert(sigma):
    from compest import QueryCountedString
    from compest.campaign import ESTIMATORS
    from compest.colors import amplification_runs, colors_plan, pool_size
    from compest.lz import LzEstimateParams, window_plan
    from compest.rle import additive_plan, bucketed_plan
    from naive import random_symbols

    def lz_plan(n, A, eps):
        p = LzEstimateParams.derive(A, eps, n)
        return window_plan(n, p.ell0, p.B)

    # Each row's ceiling is the bound of the plan its run executes, and a real
    # run reads no more. The colors pool exceeds n at lambda 3 and is below n
    # at lambda 8. On the exact lanes (bucketed at n = 4096, additive at
    # n = 2000, LZ at (8, 0.05)) the ceiling is n, and the run reads all of n.
    cases = [
        (10**5, "rle-additive", {"epsilon": 0.1}, additive_plan(10**5, sigma, 0.1)),
        (2000, "rle-additive", {"epsilon": 0.1}, additive_plan(2000, sigma, 0.1)),
        (10**5, "rle-bucketed", {"epsilon": 0.2}, bucketed_plan(10**5, sigma, 0.2, 1 / 3)),
        (4096, "rle-bucketed", {"epsilon": 0.2}, bucketed_plan(4096, sigma, 0.2, 1 / 3)),
        (10**5, "lz", {"A": 8, "epsilon": 0.05}, lz_plan(10**5, 8, 0.05)),
        (2 * 10**5, "lz", {"A": 64, "epsilon": 0.005}, lz_plan(2 * 10**5, 64, 0.005)),
    ] + [
        (10**5, name, dict(params, **{"lambda": lam}), colors_plan(10**5, lam, runs))
        for lam in (3, 8)
        for name, params, runs in [
            ("colors", {}, 1),
            ("colors-amplified", {"delta": 0.1}, amplification_runs(0.1)),
        ]
    ]
    assert pool_size(10**5, 8, amplification_runs(0.1)) < 10**5
    scans = 0
    for n, name, params, plan in cases:
        w = QueryCountedString.from_tokens(random_symbols(n, sigma, seed=sigma), sigma)
        entry = dict(params, estimator=name, n=n, sigma=sigma)
        assert ESTIMATORS[name].ceiling(entry, n) == plan.bound, (name, n)
        used = ESTIMATORS[name].run(w, params, 5).queries_used
        assert used <= plan.bound, (name, n)
        if plan.scan:
            scans += 1
            assert plan.bound == n == used, (name, n)
    assert scans == 3


def test_audit_rows_flag_violations():
    entries = [
        {"estimator": "rle-additive", "n": 1000, "epsilon": 0.1, "sigma": 2, "queries_used": 50},
        {
            "estimator": "rle-additive",
            "n": 10**6,
            "epsilon": 0.1,
            "sigma": 2,
            "queries_used": 405_601,
        },
    ]
    rows = audit_queries(entries)
    assert rows[0].within and not rows[1].within and rows[1].ceiling == 405_600
    # q = 800 >= 1000 / 4 plans a scan: the ceiling is n, which proves nothing
    assert rows[0].ceiling == rows[0].n == 1000 and rows[0].vacuous

    from compest.colors import amplification_runs, sample_count
    from compest.lz import LzEstimateParams, window_plan
    from compest.rle import bucketed_plan, search_query_ceiling

    p = LzEstimateParams.derive(8, 0.05, 10**5)
    others = [
        ({"estimator": "rle-bucketed", "n": 1000, "epsilon": 0.2, "delta": 0.1, "sigma": 4},
         bucketed_plan(1000, 4, 0.2, 0.1).bound),
        ({"estimator": "rle-bucketed", "n": 1000, "epsilon": 0.2},
         bucketed_plan(1000, 2, 0.2, 1 / 3).bound),
        ({"estimator": "rle-bucketed", "n": 10**6, "epsilon": 0.2},
         bucketed_plan(10**6, 2, 0.2, 1 / 3).bound),
        ({"estimator": "rle-search", "n": 10**5, "exact": 4e4},
         search_query_ceiling(10**5, 4e4)),
        ({"estimator": "colors", "n": 5000, "lambda": 3}, float(sample_count(5000, 3))),
        ({"estimator": "colors-amplified", "n": 5000, "lambda": 3, "delta": 0.1},
         float(amplification_runs(0.1) * sample_count(5000, 3))),
        ({"estimator": "colors-amplified", "n": 5000, "lambda": 3},
         float(amplification_runs(1 / 3) * sample_count(5000, 3))),
        ({"estimator": "colors", "n": 5000, "lambda": 8}, float(sample_count(5000, 8))),
        ({"estimator": "lz", "n": 10**5, "A": 8, "epsilon": 0.05},
         window_plan(10**5, p.ell0, p.B).bound),
    ]
    vacuous = []
    for entry, ceiling in others:
        # no run reads past n, so a vacuous ceiling cannot be passed: reads
        # past n raise instead
        top = min(int(ceiling), entry["n"])
        (below,) = audit_queries([dict(entry, queries_used=top)])
        assert below.label == entry["estimator"] and below.ceiling == ceiling, entry
        assert below.within and below.vacuous == (ceiling >= entry["n"]), entry
        if below.vacuous:
            with pytest.raises(ValueError, match=rf"queries_used <= n and n >= 1, not {top + 1} and {entry['n']}$"):
                audit_queries([dict(entry, queries_used=top + 1)])
        else:
            (above,) = audit_queries([dict(entry, queries_used=top + 1)])
            assert above.ceiling == ceiling and not above.within and not above.vacuous, entry
        vacuous.append(below.vacuous)
    assert vacuous == [True, True, False, False, True, True, True, False, True]

    with pytest.raises(ValueError, match="rle-refined has no query ceiling"):
        audit_queries([{"estimator": "rle-refined", "n": 1000, "gamma": 0.5, "queries_used": 1}])
    with pytest.raises(ValueError, match="unknown estimator"):
        audit_queries([{"estimator": "colorz", "n": 1000, "queries_used": 1}])
    # a missing key names the entry, its estimator and the key
    ok = {"estimator": "rle-additive", "n": 100, "epsilon": 0.1, "queries_used": 5}
    with pytest.raises(ValueError, match=r"audit entry 1 \(rle-additive\) lacks key 'epsilon'"):
        audit_queries([ok, {"estimator": "rle-additive", "n": 100, "queries_used": 5}])
    with pytest.raises(ValueError, match=r"audit entry 0 \(rle-search\) lacks key 'exact'"):
        audit_queries([{"estimator": "rle-search", "n": 100, "queries_used": 5}])
    with pytest.raises(ValueError, match=r"audit entry 0 \(lz\) lacks key 'n'"):
        audit_queries([{"estimator": "lz", "A": 8, "epsilon": 0.05, "queries_used": 5}])
    with pytest.raises(ValueError, match=r"audit entry 0 \(None\) lacks key 'estimator'"):
        audit_queries([{"n": 100, "queries_used": 5}])
    # an entry no run can produce names the entry and its fault: a string of
    # no positions, reads outside [0, n], or parameters that the estimator's
    # plan rejects, as a run would
    reads = "need 0 <= queries_used <= n and n >= 1"
    for bad, message in [
        ({"n": 0, "queries_used": 0}, f"{reads}, not 0 and 0"),
        ({"n": -5, "queries_used": 0}, f"{reads}, not 0 and -5"),
        ({"queries_used": -1}, f"{reads}, not -1 and 100"),
        ({"queries_used": 101}, f"{reads}, not 101 and 100"),
        ({"epsilon": 2}, r"epsilon must be in \(0, 1\)"),
        ({"epsilon": 0}, r"epsilon must be in \(0, 1\)"),
        ({"estimator": "rle-bucketed", "epsilon": 2}, r"epsilon must be in \(0, 1\)"),
        ({"estimator": "rle-bucketed", "delta": 1.5}, r"delta must be in \(0, 1\)"),
        ({"estimator": "colors", "lambda": 0.5}, "lambda must be > 1"),
        ({"estimator": "colors-amplified", "lambda": 3, "delta": 0}, r"delta must be in \(0, 1\)"),
        ({"estimator": "lz", "A": 1}, "A must be > 1"),
        ({"estimator": "lz", "A": 8, "epsilon": 0.5}, r"need A \* epsilon < 2"),
        ({"epsilon": None}, "float.. argument must be a string or a real number, not 'NoneType'"),
        ({"n": [100]}, "int.. argument must be .*, not 'list'"),
    ]:
        entry = {**ok, "lambda": 3, "A": 8, "epsilon": 0.05, **bad}
        with pytest.raises(ValueError, match=rf"audit entry 1 \({entry['estimator']}\): {message}$"):
            audit_queries([ok, entry])
    # so does an entry that is not a dict; entries that are not a list name their type
    with pytest.raises(ValueError, match="audit entry 1 must be an object, not list"):
        audit_queries([ok, ["rle-additive", 100]])
    with pytest.raises(ValueError, match="audit entries must be a list, not dict"):
        audit_queries(ok)


# -- CLI ----------------------------------------------------------------------


@pytest.fixture
def sample_file(tmp_path):
    path = tmp_path / "w.bin"
    path.write_bytes(bytes((np.arange(4096) % 2).astype(np.uint8)))
    return str(path)


def test_cli_exact_schemes(sample_file):
    code, out = run_cli(["exact", "--scheme", "rle", sample_file])
    assert code == 0
    blob = json.loads(out)
    assert blob["scheme"] == "rle" and blob["total_cost"] == 2 * 4096
    code, out = run_cli(["exact", "--scheme", "lz", sample_file])
    assert json.loads(out)["total_cost" ] == 3
    code, out = run_cli(["exact", "--scheme", "distinct", "--ell", "2", sample_file])
    assert json.loads(out)["count"] == 2
    code, out = run_cli(["exact", "--scheme", "colors", sample_file])
    assert json.loads(out)["colors"] == 2


@pytest.mark.parametrize("chunk", [1, 2, 3, 1 << 16])
def test_exact_writer_matches_json_dumps(chunk, monkeypatch):
    """The column writer prints what json.dumps(sort_keys, indent=2) prints
    for the same parts as dicts, whatever the chunk boundaries."""
    breakdowns = [
        exact_rle_cost(np.array([0, 0, 1, 1, 1, 0, 2]), 3),
        exact_rle_cost(np.array([5]), 7),
        exact_lz_cost("to be or not to be"),
        CostBreakdown(0, *(np.empty(0, dtype=np.int64),) * 3, scheme='a "quoted" scheme'),
    ]
    for b in breakdowns:
        parts = [
            {"start": s, "length": ln, "cost": c}
            for s, ln, c in zip(b.starts.tolist(), b.lengths.tolist(), b.costs.tolist())
        ]
        obj = {"scheme": b.scheme, "total_cost": b.total_cost, "parts": parts}
        monkeypatch.setattr(cli, "_CHUNK", chunk)
        cols = (b.starts, b.lengths, b.costs)
        for cut in {0, b.starts.size // 2}:  # one column chunk, and two
            buf = io.StringIO()
            with redirect_stdout(buf):
                cli._emit_breakdown(b.scheme, [[c[:cut] for c in cols], [c[cut:] for c in cols]][cut == 0 :])
            assert buf.getvalue() == json.dumps(obj, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("run_chunk, chunk", [(1, 1), (2, 3), (7, 5), (1 << 18, 1 << 16)])
def test_exact_rle_streams_its_parts(run_chunk, chunk, tmp_path, monkeypatch):
    # the CLI takes the runs from the run pass ``_CHUNK`` symbols at a time,
    # exact_rle_cost ``RUN_CHUNK`` at a time; total_cost comes last
    arr = np.repeat(make_rng(3).integers(0, 3, 300), make_rng(4).integers(1, 6, 300)).astype(np.uint8)
    path = tmp_path / "runs.bin"
    path.write_bytes(arr.tobytes())
    b = exact_rle_cost(arr)
    parts = [{"start": s, "length": ln, "cost": c} for s, ln, c in zip(b.starts.tolist(), b.lengths.tolist(), b.costs.tolist())]
    want = json.dumps({"scheme": "rle", "total_cost": b.total_cost, "parts": parts}, sort_keys=True, indent=2) + "\n"
    monkeypatch.setattr(oracles, "RUN_CHUNK", run_chunk)
    monkeypatch.setattr(cli, "_CHUNK", chunk)
    small = exact_rle_cost(arr)
    assert all(map(np.array_equal, (small.starts, small.lengths, small.costs), (b.starts, b.lengths, b.costs)))
    assert run_cli(["exact", "--scheme", "rle", str(path)]) == (0, want)


def test_exact_rle_memory_does_not_grow_with_n(tmp_path, monkeypatch):
    # random bytes make a run of almost every symbol: columns of every run
    # (24 bytes a run, more while they are worked out) would show
    monkeypatch.setattr(cli, "_CHUNK", 1 << 10)
    peaks = []
    for n in (10_000, 100_000):
        path = tmp_path / f"bytes{n}.bin"
        path.write_bytes(make_rng(n).integers(0, 256, n).astype(np.uint8).tobytes())
        with open(os.devnull, "w") as sink, redirect_stdout(sink):
            tracemalloc.start()
            code = cli.main(["exact", "--scheme", "rle", str(path)])
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert code == 0
    assert peaks[1] < peaks[0] + (1 << 20), peaks


def test_cli_stochastic_subcommands_replay_byte_identical(sample_file, tmp_path):
    gen_out = str(tmp_path / "g.bin")
    invocations = [
        ["rle-est", "--mode", "additive", "--epsilon", "0.1", "--seed", "5", sample_file],
        ["rle-est", "--mode", "bucketed", "--epsilon", "0.2", "--delta", "0.2",
         "--seed", "5", sample_file],
        ["rle-est", "--mode", "search", "--seed", "5", sample_file],
        ["rle-est", "--mode", "refined", "--gamma", "0.5", "--seed", "5", sample_file],
        ["colors-est", "--lambda", "3", "--seed", "5", sample_file],
        ["colors-est", "--lambda", "3", "--delta", "0.1", "--seed", "5", sample_file],
        ["lz-est", "--A", "4", "--epsilon", "0.1", "--seed", "5", sample_file],
        ["lz-distinguish", "--lo", "64", "--hi", "1024", "--seed", "5", sample_file],
        ["gen", "--family", "coin", "--n", "1000", "--p", "0.5", "--seed", "5",
         "--out", gen_out, "--emit-meta"],
    ]
    for argv in invocations:
        code1, out1 = run_cli(argv)
        blob1 = Path(gen_out).read_bytes() if argv[0] == "gen" else b""
        code2, out2 = run_cli(argv)
        blob2 = Path(gen_out).read_bytes() if argv[0] == "gen" else b""
        assert code1 == code2 == 0
        assert out1.encode() == out2.encode(), argv
        assert blob1 == blob2


def test_cli_report_shape(sample_file):
    _, out = run_cli(["rle-est", "--mode", "additive", "--epsilon", "0.1", "--seed", "1", sample_file])
    blob = json.loads(out)
    assert set(blob) == {"confidence", "epsilon", "estimate", "lambda", "queries_used", "seed"}
    assert blob["lambda"] == 1.0 and blob["estimate"] == 2.0 * 4096


def test_cli_gen_meta_matches_oracles(tmp_path):
    out = str(tmp_path / "wk.bin")
    code, _ = run_cli(["gen", "--family", "wk", "--n", "1024", "--k", "16",
                       "--seed", "7", "--out", out, "--emit-meta"])
    assert code == 0
    meta = json.loads(Path(out + ".meta.json").read_text())
    raw = np.frombuffer(Path(out).read_bytes(), dtype=np.uint8)
    assert raw.size == meta["n"] == 1024
    from compest import exact_lz_cost, exact_rle_cost

    assert meta["exact_rle_cost"] == exact_rle_cost(raw, 2).total_cost
    assert meta["exact_lz_cost"] == exact_lz_cost(raw).total_cost


def test_cli_gen_col2lz(tmp_path):
    out = str(tmp_path / "c.bin")
    code, _ = run_cli([
        "gen", "--family", "col2lz", "--n-prime", "50", "--colors", "5",
        "--alpha-prime", "0.2", "--sigma", "2", "--seed", "3", "--out", out,
    ])
    assert code == 0
    raw = np.frombuffer(Path(out).read_bytes(), dtype=np.uint8)
    assert raw.size == 50 * 5  # n' * ceil(1/alpha')


def test_cli_gen_col2lz_from_source(tmp_path):
    source = tmp_path / "tau.bin"
    source.write_bytes(bytes([0, 1, 2, 1, 0, 3, 3, 2, 1, 0]))
    out = str(tmp_path / "c.bin")
    code, _ = run_cli(["gen", "--family", "col2lz", "--source", str(source),
                       "--alpha-prime", "0.25", "--seed", "3", "--out", out])
    assert code == 0
    raw = np.frombuffer(Path(out).read_bytes(), dtype=np.uint8)
    tau = np.frombuffer(source.read_bytes(), dtype=np.uint8)
    expected = GeneratorSpec("col2lz", {"tau": tau, "alpha_prime": 0.25}, 3).build()
    assert raw.size == 10 * 4  # n' * ceil(1/alpha')
    assert raw.tolist() == expected.materialize().tolist()


def test_cli_gen_meta_prices_col2lz_at_its_declared_sigma(tmp_path):
    # the sidecar prices a provider-backed instance at its own alphabet, as a
    # campaign does, not at the distinct count of its output
    out = str(tmp_path / "c.bin")
    code, _ = run_cli(["gen", "--family", "col2lz", "--sigma", "70000", "--seed", "7",
                       "--out", out, "--emit-meta"])
    assert code == 0
    meta = json.loads(Path(out + ".meta.json").read_text())
    spec = {"kind": "generator", "family": "col2lz", "seed": 7,
            "params": {"n_prime": 500, "colors": 50, "alpha_prime": 0.1, "sigma": 70000}}
    acc = build_instance(spec)
    assert meta["alphabet_size"] == acc.alphabet_size == 70000
    assert meta["exact_rle_cost"] == ESTIMATORS["rle-additive"].exact(acc)
    assert meta["n"] == acc.length


def test_cli_gen_writes_multibyte_tokens(tmp_path):
    # a symbol that needs 3 bytes is written in 4: numpy has no 3-byte integer
    for m, ell0, width in ((300, 2, 2), (70_000, 1, 4)):
        out = str(tmp_path / f"t{m}.bin")
        code, _ = run_cli(["gen", "--family", "lztight", "--m", str(m), "--ell0", str(ell0),
                           "--out", out, "--emit-meta"])
        assert code == 0
        expected = generate_lz_tight(m, ell0)
        assert int(expected.max()) >= 256 ** (width // 2)
        meta = json.loads(Path(out + ".meta.json").read_text())
        assert meta["token_width_bytes"] == width and meta["n"] == expected.size
        raw = np.frombuffer(Path(out).read_bytes(), dtype=f"<u{width}")
        assert raw.tolist() == expected.tolist()


def test_cli_gen_families_are_the_generators():
    from compest.generators import FAMILIES

    parser = cli.build_parser()
    for family in FAMILIES:
        assert parser.parse_args(["gen", "--family", family, "--out", "x"]).family == family
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["gen", "--family", "wkk", "--out", "x"])
    assert exc.value.code == 2


def test_cli_campaign_run_and_audit(tmp_path, sample_file):
    cfg = {
        "estimator": "rle-additive",
        "params": {"epsilon": 0.1},
        "instance": {"kind": "file", "path": sample_file},
        "trials": 3,
        "base_seed": 9,
        "min_success_rate": 1.0,
        "output": str(tmp_path / "camp"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, out = run_cli(["campaign", "run", str(cfg_path)])
    assert code == 0
    assert json.loads(out)["success_rate"] == 1.0
    assert (tmp_path / "camp.csv").exists() and (tmp_path / "camp.json").exists()

    entries = [
        {"estimator": "rle-additive", "n": 4096, "epsilon": 0.1, "sigma": 2, "queries_used": 100}
    ]
    reports = tmp_path / "reports.json"
    reports.write_text(json.dumps(entries))
    code, out = run_cli(["campaign", "audit", "--reports", str(reports)])
    assert code == 0 and json.loads(out)["all_within"]


@pytest.mark.parametrize("entries, message", [
    ([{"estimator": "colorz", "n": 10, "queries_used": 1}],
     "audit entry 0: unknown estimator 'colorz'"),
    ([{"estimator": "rle-additive", "n": 100, "queries_used": 5}],
     "audit entry 0 (rle-additive) lacks key 'epsilon'"),
    ([{"estimator": "rle-refined", "n": 1000, "gamma": 0.5, "queries_used": 1}],
     "audit entry 0: rle-refined has no query ceiling"),
    ({"estimator": "rle-additive", "n": 100, "epsilon": 0.1, "queries_used": 5},
     "audit entries must be a list, not dict"),
    ([{"estimator": "rle-additive", "n": 100, "epsilon": 0.1, "queries_used": 5}, 7],
     "audit entry 1 must be an object, not int"),
    ([{"estimator": "colors", "n": 100, "lambda": "inf", "queries_used": 1}],
     "audit entry 0 (colors): lambda must be finite"),
    ([{"estimator": "colors-amplified", "n": 100, "lambda": "nan", "queries_used": 1}],
     "audit entry 0 (colors-amplified): lambda must be > 1"),
])
def test_cli_campaign_audit_input_errors_exit_2(tmp_path, capsys, entries, message):
    reports = tmp_path / "reports.json"
    reports.write_text(json.dumps(entries))
    code, out = run_cli(["campaign", "audit", "--reports", str(reports)])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == f"compest: error: {message}\n"


@pytest.mark.parametrize("text, message", [
    ("{", "Expecting property name"),
    ("[1, 2]", "campaign config must be an object, not list"),
    (json.dumps({"estimator": "rle-additive", "trials": 2, "base_seed": 1}),
     "campaign config lacks keys: instance"),
    (json.dumps({"estimator": "rle-nope", "instance": {}, "trials": 2, "base_seed": 1}),
     "unknown estimator 'rle-nope'"),
    (json.dumps({"estimator": "rle-additive", "instance": {}, "trials": 0, "base_seed": 1}),
     "trials must be >= 1"),
    (json.dumps({"estimator": "rle-additive", "instance": {}, "trials": 2.7, "base_seed": 1}),
     "trials must be an integer, not 2.7"),
    (json.dumps({"estimator": "rle-additive", "instance": {}, "trials": True, "base_seed": 1}),
     "trials must be an integer, not True"),
    (json.dumps({"estimator": "rle-additive", "instance": {}, "trials": 2, "base_seed": 2.7}),
     "base_seed must be an integer, not 2.7"),
    (json.dumps({"estimator": "rle-additive", "instance": {}, "trials": 2, "base_seed": True}),
     "base_seed must be an integer, not True"),
    (json.dumps({"estimator": "rle-additive", "instance": {}, "trials": 2, "base_seed": 1,
                 "min_success_rate": 1.5}),
     "min_success_rate must be in [0, 1], not 1.5"),
    (json.dumps({"estimator": "rle-additive", "instance": {}, "trials": 2, "base_seed": 1,
                 "min_success_rate": -1}),
     "min_success_rate must be in [0, 1], not -1"),
    (json.dumps({"estimator": "rle-additive", "instance": {}, "trials": 2, "base_seed": 1,
                 "min_success_rate": None}),
     "min_success_rate must be in [0, 1], not None"),
    (json.dumps({"estimator": "rle-additive", "instance": {}, "trials": 2, "base_seed": 1,
                 "min_success_rate": True}),
     "min_success_rate must be in [0, 1], not True"),
    (json.dumps({"estimator": "rle-additive", "params": [0.1], "instance": {}, "trials": 2,
                 "base_seed": 1}),
     "params must be an object, not list"),
    (json.dumps({"estimator": "rle-additive", "instance": ["builtin"], "trials": 2, "base_seed": 1}),
     "instance must be an object, not list"),
    (json.dumps({"estimator": ["x"], "instance": {}, "trials": 2, "base_seed": 1}),
     "unknown estimator ['x']"),
    (json.dumps({"estimator": "rle-additive", "instance": {}, "trials": 2, "base_seed": 1, "output": 5}),
     "output must be a string, not 5"),
], ids=["malformed-json", "not-an-object", "no-instance", "unknown-estimator", "zero-trials",
        "fractional-trials", "boolean-trials", "fractional-seed", "boolean-seed", "rate-above-1",
        "rate-below-0", "null-rate", "boolean-rate", "list-params", "list-instance",
        "list-estimator", "numeric-output"])
def test_cli_campaign_run_config_errors_exit_2(tmp_path, capsys, text, message):
    cfg_path = tmp_path / "broken.json"
    cfg_path.write_text(text)
    code, out = run_cli(["campaign", "run", str(cfg_path)])
    assert (code, out) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("compest: error: ") and err.count("\n") == 1 and message in err


def _config_text(**overrides):
    cfg = {
        "estimator": "rle-additive",
        "params": {"epsilon": 0.1},
        "instance": {"kind": "builtin", "name": "alternating", "n": 100},
        "trials": 2,
        "base_seed": 1,
    }
    return json.dumps(dict(cfg, **overrides))


@pytest.mark.parametrize("argv, files, message", [
    (["campaign", "run", "{tmp}/c.json"],
     {"c.json": _config_text(instance={"kind": "builtin", "name": "nope", "n": 100})},
     "unknown builtin instance 'nope'"),
    (["campaign", "run", "{tmp}/c.json"], {"c.json": _config_text(params={})},
     "missing key 'epsilon'"),
    (["campaign", "run", "{tmp}/c.json"],
     {"c.json": _config_text(instance={"name": "alternating", "n": 100})},
     "missing key 'kind'"),
    (["campaign", "run", "{tmp}/nope.json"], {}, "No such file or directory"),
    (["campaign", "audit", "--reports", "{tmp}/nope.json"], {}, "No such file or directory"),
    (["rle-est", "{tmp}/nope.bin"], {}, "No such file or directory"),
    (["rle-est", "{tmp}/empty.bin"], {"empty.bin": ""}, "empty string"),
    (["rle-est", "--epsilon", "5", "{sample}"], {}, "epsilon must be in (0, 1)"),
    (["rle-est", "--alphabet-size", "1", "{sample}"], {},
     "2 distinct symbols exceed declared alphabet size 1"),
    (["exact", "--scheme", "distinct", "{sample}"], {}, "--ell is required"),
    (["gen", "--family", "wk", "--n", "10", "--k", "1", "--out", "{tmp}/wk.bin"], {},
     "need 2 <= k <= n/2"),
    (["lz-distinguish", "--lo", "3", "--hi", "2", "{sample}"], {},
     "need 1 <= threshold_lo < threshold_hi"),
    (["campaign", "run", "{tmp}/c.json"],
     {"c.json": _config_text(instance={"kind": "builtin", "name": "alternating", "n": None})},
     "instance: int() argument must be"),
    (["campaign", "run", "{tmp}/c.json"],
     {"c.json": _config_text(instance={"kind": "generator", "family": "wk",
                                       "params": {"n": 100, "k": None}})},
     "instance: int() argument must be"),
    (["campaign", "run", "{tmp}/c.json"],
     {"c.json": _config_text(instance={"kind": "file", "path": 0})},
     "instance: path must be a string, not 0"),
    (["colors-est", "--lambda", "inf", "{sample}"], {}, "lambda must be finite"),
    (["colors-est", "--lambda", "nan", "{sample}"], {}, "lambda must be > 1"),
    (["rle-est", "--mode", "refined", "--gamma", "inf", "{sample}"], {},
     "gamma must be > 0 and below 2^62, not inf"),
    (["rle-est", "--mode", "refined", "--gamma", "nan", "{sample}"], {},
     "gamma must be > 0 and below 2^62, not nan"),
    (["rle-est", "--mode", "refined", "--gamma", "1e300", "{sample}"], {},
     "gamma must be > 0 and below 2^62, not 1e+300"),
    (["rle-est", "--mode", "refined", "--gamma", "1e-16", "{sample}"], {},
     "gamma must be above 2^-52, not 1e-16"),
    (["lz-est", "--A", "nan", "--epsilon", "0.1", "{sample}"], {}, "A must be > 1"),
    (["lz-est", "--A", "inf", "--epsilon", "0.1", "{sample}"], {}, "A must be finite"),
], ids=["unknown-builtin", "no-epsilon", "no-kind", "missing-config", "missing-reports",
        "missing-input", "empty-input", "epsilon-5", "alphabet-below-distinct",
        "distinct-without-ell", "wk-k-1", "lo-above-hi", "null-builtin-n", "null-generator-param",
        "numeric-path", "lambda-inf", "lambda-nan", "gamma-inf", "gamma-nan", "gamma-1e300",
        "gamma-tiny", "A-nan", "A-inf"])
def test_cli_input_faults_exit_2(tmp_path, capsys, sample_file, argv, files, message):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code, out = run_cli([a.format(tmp=tmp_path, sample=sample_file) for a in argv])
    assert (code, out) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("compest: error: ") and err.count("\n") == 1 and message in err


@pytest.mark.parametrize("lam", ["1e200", "1.7e308"])
def test_cli_huge_lambda_prints_json_within_contract(sample_file, lam):
    code, out = run_cli(["colors-est", "--lambda", lam, "--delta", "1e-9", sample_file])
    assert code == 0
    report = json.loads(out, parse_constant=pytest.fail)  # no NaN or Infinity
    assert report["queries_used"] >= 1 and report["lambda"] == float(lam)
    exact = exact_color_count(np.fromfile(sample_file, dtype=np.uint8))
    assert exact / report["lambda"] <= report["estimate"] <= report["lambda"] * exact


@pytest.mark.parametrize("argv", [
    ["campaign", "run"],
    ["campaign", "audit"],
    ["campaign", "run", "cfg.json", "--reports", "r.json"],
    ["campaign", "audit", "cfg.json", "--reports", "r.json"],
], ids=["run-without-config", "audit-without-reports", "run-with-reports", "audit-with-config"])
def test_cli_campaign_usage_errors_exit_2_through_argparse(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "usage: compest" in capsys.readouterr().err


def test_cli_campaign_failing_threshold_exits_nonzero(tmp_path, sample_file):
    cfg = {
        "estimator": "rle-additive",
        "params": {"epsilon": 5.0},  # invalid per trial -> zero successes
        "instance": {"kind": "file", "path": sample_file},
        "trials": 2,
        "base_seed": 9,
        "min_success_rate": 0.5,
    }
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    code, out = run_cli(["campaign", "run", str(cfg_path)])
    assert code == 1
    assert json.loads(out)["success_rate"] == 0.0


def test_cli_env_var_seed(sample_file, monkeypatch):
    monkeypatch.setenv("COMPEST_SEED", "123")
    parser = cli.build_parser()
    args = parser.parse_args(["rle-est", sample_file])
    assert args.seed == 123
    # a malformed value fails only the subcommands that take a seed
    monkeypatch.setenv("COMPEST_SEED", "abc")
    code, out = run_cli(["exact", "--scheme", "rle", sample_file])
    assert code == 0 and json.loads(out)["total_cost"] == 2 * 4096
    with pytest.raises(SystemExit) as exc:
        run_cli(["rle-est", sample_file])
    assert exc.value.code == 2


def test_every_public_name_resolves():
    import compest

    for name in compest.__all__:
        getattr(compest, name)


def test_cli_entry_point_subprocess(sample_file):
    # the installed console script must work end to end
    proc = subprocess.run(
        [sys.executable, "-m", "compest.cli", "exact", "--scheme", "lz", sample_file],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["total_cost"] == 3
