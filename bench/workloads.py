"""The four benchmark workloads: inputs, operations and output checks.

Each workload's ``setup`` builds its inputs from the workload seed, computes
their ground truth with ``reference`` and returns the operations of one
cycle. Every cycle runs the same operations with the same seeds, so a later
cycle is a replay-identity check, and the deterministic metrics
(``queries_per_n``, ``contract_pass_rate``) come from the first cycle alone.

An operation has a ``call`` (the timed part, which goes into the program)
and a ``verify`` (untimed), which turns the output into an ``Outcome``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# Ops call the program through its modules' attributes, so that the tracer's
# patches on those attributes see the calls.
import compest.cli
from compest import campaign, lz, rle
from compest import (
    EstimateReport,
    QueryCountedString,
    generate_coin_runs,
    generate_lz_tight,
    generate_wk,
    meets_contract,
)
from compest._rng import derive_seed
from compest.campaign import CampaignConfig, build_builtin, build_instance

import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_out"

# LZ inputs take seconds to check with the pure-Python reference, so the
# workloads that have them draw their input seeds from this many classes,
# whose exact costs are pinned in golden_lz.json.
GOLDEN_SEED_CLASSES = 16


def sub_seed(seed: int, *labels) -> int:
    msg = ":".join(str(x) for x in ("bench", seed, *labels)).encode()
    return int.from_bytes(hashlib.sha256(msg).digest()[:4], "big")


@dataclass(frozen=True)
class Estimate:
    """One estimator report inside an operation's output."""

    queries_used: int
    n: int
    contract: bool
    lz: bool = False


@dataclass
class Outcome:
    ok: bool
    detail: str = ""
    estimates: list = field(default_factory=list)
    key: object = None  # must equal the first cycle's key for the same op
    rss_kb: int = 0  # child peak RSS, for subprocess operations
    trials: int = 0  # campaign trials run


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    verify: Callable[[object], Outcome]
    # In-process equivalent of ``call``, traced in place of a subprocess.
    inproc: Callable[[], object] | None = None


def report_outcome(report: EstimateReport, exact: float, n: int, lz: bool = False) -> Outcome:
    est = Estimate(report.queries_used, n, meets_contract(report, exact, n), lz)
    if not 0 < report.queries_used <= n:
        return Outcome(False, f"queries_used {report.queries_used} outside [1, {n}]", [est])
    return Outcome(True, "", [est], key=json.dumps(report.to_json_dict(), sort_keys=True))


class Workload:
    name = ""  # why each workload exists is stated in BENCHMARK.json
    # A cycle runs the ops of every input set once; more sets per cycle
    # average the per-input spread of op latency within one run.
    input_sets = 1
    replay_cycles = 1  # cycles a run needs at least; two replay every op
    # The tail percentile, fixed per workload so that it means the same thing
    # however many cycles fit in a run; each run holds enough cycles to put
    # at least 10 samples beyond it.
    tail_pct = 50.0

    def setup(self, seed: int, smoke: bool) -> list[Op]:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the workload holds: files, helper processes."""


# ---------------------------------------------------------------- cli-bigfile


@dataclass
class CliRun:
    returncode: int
    stdout: bytes
    stderr: str = ""
    rss_kb: int = 0


class Launcher:
    """The helper process (``launcher.py``) that starts every CLI op."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )

    def run(self, argv: list) -> CliRun:
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        answer = json.loads(self.proc.stdout.readline())
        return CliRun(answer["returncode"], answer["stdout"].encode(), answer["stderr"], answer["rss_kb"])

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


def cli_inprocess(argv: list) -> CliRun:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = compest.cli.main(argv)
    return CliRun(code, buf.getvalue().encode())


class CliBigfile(Workload):
    name = "cli-bigfile"
    tail_pct = 50.0
    replay_cycles = 2

    def __init__(self):
        self.tmp: Path | None = None
        # Started before set-up allocates anything: see launcher.py.
        self.launcher = Launcher()

    def setup(self, seed, smoke):
        n = 200_000 if smoke else 100_000_000
        self.remove_input()
        SCRATCH.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=SCRATCH))
        path = self.tmp / "input.bin"
        data = np.random.Generator(np.random.PCG64(sub_seed(seed, "cli-input"))).integers(
            0, 2, size=n, dtype=np.uint8
        )
        with open(path, "wb") as fh:
            fh.write(data.data)
        exact = {"rle-est": reference.rle_cost(data, 2), "colors-est": reference.color_count(data)}
        del data

        modes = [
            ("rle-est", ["--mode", "additive"]),
            ("rle-est", ["--mode", "bucketed"]),
            ("rle-est", ["--mode", "search"]),
            ("colors-est", ["--lambda", "50"]),
        ]
        ops = []
        for i, (cmd, args) in enumerate(modes):
            for flag in ([], ["--alphabet-size", "2"]):
                argv = [cmd, str(path), *args, "--seed", str(sub_seed(seed, "cli-op", i)), *flag]
                label = " ".join([cmd, *args, *flag])
                ops.append(
                    Op(
                        label,
                        call=lambda argv=argv: self.launcher.run(argv),
                        verify=lambda run, ex=exact[cmd]: self.verify(run, ex, n),
                        inproc=lambda argv=argv: cli_inprocess(argv),
                    )
                )
        return ops

    @staticmethod
    def verify(run: CliRun, exact: float, n: int) -> Outcome:
        if run.returncode != 0:
            return Outcome(False, f"exit {run.returncode}: {run.stderr}", rss_kb=run.rss_kb)
        try:
            fields = json.loads(run.stdout)
            report = EstimateReport(
                float(fields["estimate"]), float(fields["lambda"]), float(fields["epsilon"]),
                int(fields["queries_used"]), int(fields["seed"]), float(fields["confidence"]),
            )
        except (ValueError, KeyError, TypeError) as exc:
            return Outcome(False, f"unparsable output: {exc}", rss_kb=run.rss_kb)
        out = report_outcome(report, exact, n)
        out.key = run.stdout  # byte-identical on replay, subprocess or in-process
        out.rss_kb = run.rss_kb
        return out

    def remove_input(self):
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
            self.tmp = None

    def close(self):
        self.remove_input()
        self.launcher.close()


# ------------------------------------------------------------------ rle-probe


class RleProbe(Workload):
    name = "rle-probe"
    tail_pct = 75.0
    input_sets = 4

    def setup(self, seed, smoke):
        n = 20_000 if smoke else 1_000_000
        ops = []
        for k in range(self.input_sets):
            set_seed = sub_seed(seed, "rle-set", k)
            inputs = {
                "random-binary": build_builtin("random-binary", n, sub_seed(set_seed, "bin")),
                "coin": generate_coin_runs(n, 0.5, sub_seed(set_seed, "coin")),
                "run-mix": build_builtin("run-mix", n, sub_seed(set_seed, "mix")),
                "wk": generate_wk(n, n // 100, sub_seed(set_seed, "wk")),
            }
            for name, arr in inputs.items():
                acc = QueryCountedString.from_tokens(arr, 2)
                exact = reference.rle_cost(arr, 2)
                s = sub_seed(set_seed, "op", name)
                calls = {"search": lambda acc=acc, s=s: rle.rle_multiplicative_search(acc, s)}
                if name != "wk":
                    calls["bucketed eps=0.01"] = lambda acc=acc, s=s: rle.rle_bucketed_estimate(
                        acc, 0.01, 1 / 3, s
                    )
                    calls["refined gamma=0.5"] = lambda acc=acc, s=s: rle.rle_refined_search(acc, 0.5, s)
                for label, call in calls.items():
                    ops.append(Op(f"{label} on {name}", call, lambda r, ex=exact: report_outcome(r, ex, n)))
        return ops


# ----------------------------------------------------------------- lz-sampled

LZ_SETTINGS = ((32.0, 0.01), (64.0, 0.005), (128.0, 0.001))


def distinguish_outcome(result, exact: float, n: int) -> Outcome:
    out = report_outcome(result.report, exact, n, lz=True)
    # A report that meets its contract forces the verdict whenever the exact
    # cost lies outside (lo, hi); inside the gap either verdict is allowed.
    expect = "LOW" if exact <= result.threshold_lo else "HIGH" if exact >= result.threshold_hi else None
    if out.ok and expect and out.estimates[0].contract and result.verdict != expect:
        return Outcome(False, f"verdict {result.verdict}, exact {exact} needs {expect}", out.estimates)
    out.key = json.dumps(result.to_json_dict(), sort_keys=True)
    return out


class LzSampled(Workload):
    name = "lz-sampled"
    tail_pct = 75.0
    input_sets = 4

    def __init__(self):
        self.oracle = reference.LzOracle()

    @classmethod
    def inputs(cls, seed: int, smoke: bool) -> list[dict]:
        """The input sets; their seeds come from the golden seed class."""
        n = 3_000 if smoke else 50_000
        tight = generate_lz_tight(64, 16)
        sets = []
        for k in range(cls.input_sets):
            set_seed = sub_seed(seed % GOLDEN_SEED_CLASSES, "lz-set", k)
            sets.append({
                "random-binary": build_builtin("random-binary", n, sub_seed(set_seed, "bin")),
                "random-bytes": build_builtin("random-bytes", n, sub_seed(set_seed, "bytes")),
                "lztight": np.tile(tight, -(-n // tight.size))[:n],
            })
        return sets

    def setup(self, seed, smoke):
        ops = []
        for k, inputs in enumerate(self.inputs(seed, smoke)):
            for name, arr in inputs.items():
                n = arr.size
                lo, hi = math.sqrt(n), n / 4
                acc = QueryCountedString.from_tokens(arr)
                exact = self.oracle.cost(arr)
                s = sub_seed(seed, "lz-op", k, name)
                for A, eps in LZ_SETTINGS:
                    ops.append(
                        Op(
                            f"lz A={A:g} eps={eps:g} on {name}",
                            lambda acc=acc, A=A, eps=eps, s=s: lz.lz_estimate(acc, A, eps, s),
                            lambda r, ex=exact, n=n: report_outcome(r, ex, n, lz=True),
                        )
                    )
                ops.append(
                    Op(
                        f"distinguish on {name}",
                        lambda acc=acc, s=s, lo=lo, hi=hi: lz.distinguish_compressible(acc, lo, hi, s),
                        lambda r, ex=exact, n=n: distinguish_outcome(r, ex, n),
                    )
                )
        return ops


# ------------------------------------------------------------ oracle-campaign


class OracleCampaign(Workload):
    name = "oracle-campaign"
    tail_pct = 50.0
    input_sets = 4

    def __init__(self):
        self.oracle = reference.LzOracle()

    @classmethod
    def configs(cls, seed: int, smoke: bool) -> list[CampaignConfig]:
        """The campaigns; their base seeds come from the golden seed class."""
        scale = 50 if smoke else 1
        specs = [
            ("lz", {"A": 8.0, "epsilon": 0.05},
             {"kind": "builtin", "name": "random-binary", "n": 100_000 // scale}),
            ("lz", {"A": 8.0, "epsilon": 0.05},
             {"kind": "builtin", "name": "random-binary", "n": 400_000 // scale}),
            ("rle-additive", {"epsilon": 0.05},
             {"kind": "generator", "family": "coin", "params": {"n": 1_000_000 // scale, "p": 0.5}}),
            ("colors-amplified", {"lambda": 5.0, "delta": 0.1},
             {"kind": "generator", "family": "col2lz",
              "params": {"n_prime": 2000 // scale, "colors": 200 // scale, "alpha_prime": 0.1}}),
        ]
        return [
            CampaignConfig(
                estimator=estimator, params=params, instance=instance, trials=1,
                base_seed=sub_seed(seed % GOLDEN_SEED_CLASSES, "campaign", k, i),
                per_trial_instances=True, min_success_rate=0.0,
            )
            for k in range(cls.input_sets)
            for i, (estimator, params, instance) in enumerate(specs)
        ]

    def setup(self, seed, smoke):
        ops = []
        for config in self.configs(seed, smoke):
            exact = [self.exact(config, t) for t in range(config.trials)]
            inst = config.instance
            if "name" in inst:
                about = f"{inst['name']} n={inst['n']}"
            else:
                about = f"{inst['family']} {inst['params']}"
            ops.append(
                Op(
                    f"campaign {config.estimator} on {about}",
                    lambda config=config: campaign.run_campaign(config),
                    lambda result, exact=exact: self.verify(result, exact),
                )
            )
        return ops

    @staticmethod
    def instance(config: CampaignConfig, trial: int) -> QueryCountedString:
        """One trial's instance, rebuilt with the campaign's documented
        per-trial instance seed."""
        return build_instance(config.instance, seed=derive_seed(config.base_seed, trial, "inst"))

    def exact(self, config: CampaignConfig, trial: int) -> tuple[float, int]:
        """Ground truth and length of one trial's instance."""
        acc = self.instance(config, trial)
        arr = acc.materialize()
        if config.estimator == "lz":
            return float(self.oracle.cost(arr)), acc.length
        if config.estimator.startswith("rle"):
            return float(reference.rle_cost(arr, acc.alphabet_size)), acc.length
        return float(reference.color_count(arr)), acc.length

    @staticmethod
    def verify(result, exact: list) -> Outcome:
        estimates = []
        lz = result.config.estimator == "lz"
        for row, (ex, n) in zip(result.rows, exact):
            trial = f"trial {row['trial']}"
            if not row["valid"] or row["error"]:
                return Outcome(False, f"{trial}: {row['error']}", estimates)
            if row["exact"] != ex:
                return Outcome(False, f"{trial}: exact {row['exact']} != reference {ex}", estimates)
            if not 0 < row["queries"] <= n:
                return Outcome(False, f"{trial}: queries {row['queries']} outside [1, {n}]", estimates)
            estimates.append(Estimate(int(row["queries"]), n, bool(row["contract_pass"]), lz))
        if len(result.rows) != len(exact):
            return Outcome(False, f"{len(result.rows)} rows for {len(exact)} trials", estimates)
        return Outcome(True, "", estimates, key=json.dumps(result.to_json_dict(), sort_keys=True),
                       trials=len(result.rows))


WORKLOADS = {w.name: w for w in (CliBigfile, RleProbe, LzSampled, OracleCampaign)}
