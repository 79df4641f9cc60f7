"""What a ``compest`` process imports, and that lazily imported entry points
stay reachable by name: the package exports, the estimator table's rows and
the bench tracer's swaps."""

import importlib.util
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import compest

ROOT = Path(__file__).resolve().parents[1]

_LOADED_CHILD = """
import io, json, sys
from contextlib import redirect_stdout
from compest.cli import main

with redirect_stdout(io.StringIO()):
    assert main(sys.argv[1:]) == 0
print(json.dumps(sorted(sys.modules)))
"""


def _loaded_by(argv: list) -> set:
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_CHILD, *argv],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.fixture
def binary_file(tmp_path):
    path = tmp_path / "w.bin"
    np.random.default_rng(2).integers(0, 2, size=50_000, dtype=np.uint8).tofile(path)
    return str(path)


def test_a_cli_run_imports_only_what_its_subcommand_runs(binary_file):
    rle = _loaded_by(["rle-est", "--mode", "bucketed", "--epsilon", "0.2", binary_file])
    assert {"compest.rle", "compest.oracles", "compest.accessor"} <= rle
    assert not rle & {"compest.lz", "compest.colors", "compest.suffixes", "compest.campaign", "csv"}
    colors = _loaded_by(["colors-est", "--lambda", "5", binary_file])
    assert "compest.colors" in colors
    assert not colors & {"compest.rle", "compest.lz", "compest.suffixes", "compest.campaign", "csv"}


def test_every_export_and_submodule_resolves():
    for name in compest.__all__:
        value = getattr(compest, name)
        assert getattr(importlib.import_module(value.__module__), name) is value, name
    assert set(compest.__all__) <= set(dir(compest))
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        compest.nope
    # a bare ``import compest`` in a fresh process reaches its submodules by attribute
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, compest; assert 'compest.accessor' not in sys.modules; "
         "print(compest.accessor.QueryCountedString.__name__, compest.suffixes.__name__)"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["QueryCountedString", "compest.suffixes"]


def _bench_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_bench_tracer_swaps_lazily_imported_entry_points(binary_file):
    # The CLI, the estimator table and the oracles import these by name at
    # call time; each must still reach the tracer's wrapper.
    from compest import campaign

    tracer = _bench_tracing().Tracer()
    with tracer.installed():
        with redirect_stdout(io.StringIO()):
            assert compest.cli.main(["colors-est", "--lambda", "5", binary_file]) == 0
            assert compest.cli.main(["rle-est", "--mode", "additive", binary_file]) == 0
        campaign.run_campaign(campaign.CampaignConfig(
            "lz", params={"A": 8, "epsilon": 0.05},
            instance={"kind": "builtin", "name": "random-binary", "n": 2000, "seed": 1},
            trials=1, base_seed=1,
        ))
    assert not tracer.missing
    for metric in ("colors.estimate_self_s", "rle.estimate_self_s", "lz.estimate_self_s",
                   "oracles.exact_lz_self_s", "suffixes.lz_factorize_self_s",
                   "suffixes.suffix_array_s", "campaign.run_self_s"):
        assert tracer.self_s[metric] > 0, metric
