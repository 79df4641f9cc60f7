"""Tests of the benchmark itself: its ground truth, its tracer and a smoke
run of every workload.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import compest  # noqa: E402
import reference  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from compest import exact_color_count, exact_lz_cost, exact_rle_cost  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def brute_lz(seq) -> int:
    """Greedy LZ77 by direct search: a phrase at i of length l needs
    seq[i:i+l] to start somewhere in [0, i)."""
    s = bytes(seq)
    i = count = 0
    while i < len(s):
        ell = 0
        while i + ell < len(s) and s.find(s[i : i + ell + 1], 0, i + ell) != -1:
            ell += 1
        count += 1
        i += max(ell, 1)
    return count


def test_reference_matches_program_and_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(1, 80))
        sigma = int(rng.integers(2, 5))
        arr = rng.integers(0, sigma, n).astype(np.uint8)
        assert reference.rle_cost(arr, sigma) == exact_rle_cost(arr, sigma).total_cost
        assert reference.color_count(arr) == exact_color_count(arr)
        assert reference.lz_phrase_count(arr) == brute_lz(arr.tolist()) == exact_lz_cost(arr).total_cost


def test_rle_reference_across_chunk_boundaries(monkeypatch):
    monkeypatch.setattr(reference, "CHUNK", 7)
    arr = np.repeat(np.array([0, 1, 0, 1, 1, 0], dtype=np.uint8), [1, 7, 14, 3, 9, 2])
    assert reference.rle_cost(arr, 2) == exact_rle_cost(arr, 2).total_cost
    assert reference.rle_cost(arr[:1], 2) == exact_rle_cost(arr[:1], 2).total_cost


def test_golden_costs_are_found_by_digest():
    oracle = reference.LzOracle()
    assert oracle.golden, "golden_lz.json is empty"
    arr = np.zeros(10, dtype=np.uint8)
    oracle.golden[reference.digest(arr)] = 12345
    assert oracle.cost(arr) == 12345
    assert oracle.cost(arr.astype(np.int64)) == 12345  # dtype does not change the key
    assert oracle.cost(np.ones(10, dtype=np.uint8)) == 2  # missing: computed live


def test_tracer_attributes_self_time_and_restores_originals():
    from compest import QueryCountedString

    originals = {name: getattr(compest.lz, name) for name in ("distinct_profile", "lz_estimate")}
    before = compest.accessor.QuerySession.__dict__["read_many"]
    tracer = tracing.Tracer()
    arr = np.random.default_rng(1).integers(0, 2, 2000).astype(np.uint8)
    with tracer.installed():
        assert compest.lz.distinct_profile is not originals["distinct_profile"]
        compest.lz.lz_estimate(QueryCountedString.from_tokens(arr, 2), 8.0, 0.05, 1)
    assert not tracer.missing
    for name, fn in originals.items():
        assert getattr(compest.lz, name) is fn
    assert compest.accessor.QuerySession.__dict__["read_many"] is before
    # The exact lane goes lz_estimate -> distinct_profile -> suffixes.
    for metric in ("lz.estimate_self_s", "oracles.distinct_profile_self_s",
                   "suffixes.suffix_array_s", "suffixes.lcp_array_s", "accessor.load_s"):
        assert tracer.self_s[metric] > 0, metric
    assert tracer.counts["accessor.positions_requested"] == arr.size
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.root_s)


def test_hd_quantile_is_a_weighted_mean_of_order_statistics():
    rng = np.random.default_rng(2)
    x = rng.normal(size=2001)
    assert speed.hd_quantile(x, 0.5) == pytest.approx(np.median(x), abs=0.02)
    assert speed.hd_quantile(x, 0.75) == pytest.approx(np.quantile(x, 0.75), abs=0.02)
    assert speed.hd_quantile([3.0] * 9, 0.75) == pytest.approx(3.0)
    # Between two clusters the estimate moves little when one edge sample does.
    gap = [1.0] * 10 + [2.0] * 10
    moved = [1.0] * 9 + [1.3] + [2.0] * 10
    assert abs(speed.hd_quantile(moved, 0.5) - speed.hd_quantile(gap, 0.5)) < 0.3 / 4


def test_speed_factor_is_reference_over_median_tick():
    s = speed.Speed()
    s.tick(3)
    assert len(s.ticks) == 3 and all(t > 0 for t in s.ticks)
    s.ticks = [0.006, 0.002, 0.0015, 0.0015]
    assert s.factor(0, 2) == pytest.approx(speed.REFERENCE_TICK_S / 0.004)
    assert s.factor(1, 4) == pytest.approx(speed.REFERENCE_TICK_S / 0.0015)


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values()), result["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced_run_adds_up(workload):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    self_times = sum(metrics[m] for m in tracing.SPANS)
    assert self_times + metrics["bench.unattributed_s"] == pytest.approx(metrics["bench.traced_wall_s"])
    assert metrics["accessor.read_many_calls"] > 0


def test_deterministic_metrics_repeat_exactly():
    runs = [
        json.loads(run_bench("--workload", "lz-sampled", "--seed", "4", "--seconds", "0.1", "--smoke")
                   .stdout.strip().splitlines()[-1])["metrics"]
        for _ in range(2)
    ]
    for name in ("queries_per_n", "contract_pass_rate"):
        assert runs[0][name] == runs[1][name]


def test_fails_without_program_sources(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
