"""Batch experiment runner: estimators vs. exact oracles over seeded trials.

A campaign is described by one declarative JSON config (schema below), runs
a fixed number of trials with per-trial seeds derived from a base seed, and
writes a CSV table plus a JSON mirror. Replaying the same config produces
byte-identical outputs; wall time is reported on stderr only, never in the
artifacts.

Config schema (JSON object):

    {
      "estimator": a key of ESTIMATORS ("rle-additive", "colors", "lz", ...),
      "params":    {estimator keyword args, e.g. "epsilon": 0.05},
      "instance":  {"kind": "file", "path": "..."}
                 | {"kind": "generator", "family": "wk|coin|lztight|col2lz",
                    "params": {...}, "seed": 1}
                 | {"kind": "builtin", "name": "ones|alternating|"
                    "random-binary|random-bytes|run-mix", "n": 100000,
                    "seed": 1},
      "trials":    100,
      "base_seed": 7,
      "per_trial_instances": false,   # derive a fresh instance seed per trial
      "min_success_rate": 0.9,
      "output": "out/campaign"        # writes out/campaign.csv / .json
    }
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import time
from collections.abc import Callable
from dataclasses import MISSING, dataclass, field, fields
from typing import NamedTuple

import numpy as np

from ._rng import derive_seed
from .accessor import EstimateReport, QueryCountedString, ReadPlan, meets_contract
from .colors import amplification_runs, colors_estimate, colors_estimate_amplified, colors_plan
from .generators import GeneratorSpec
from .lz import LzEstimateParams, lz_estimate, window_plan
from .oracles import exact_color_count, exact_lz_cost, rle_total_cost
from .rle import (
    additive_plan,
    bucketed_plan,
    rle_additive_estimate,
    rle_bucketed_estimate,
    rle_multiplicative_search,
    rle_refined_search,
    search_query_ceiling,
)

CSV_FIELDS = ["trial", "seed", "estimate", "exact", "queries", "contract_pass", "valid", "error"]


def _exact_rle(acc: QueryCountedString) -> float:
    return float(rle_total_cost(acc.session().read_all(), acc.alphabet_size))


def _exact_colors(acc: QueryCountedString) -> float:
    return float(exact_color_count(acc.session().read_all()))


def _exact_lz(acc: QueryCountedString) -> float:
    return float(exact_lz_cost(acc.session().read_all()).total_cost)


def _lz_plan(e: dict, n: int) -> ReadPlan:
    p = LzEstimateParams.derive(float(e["A"]), float(e["epsilon"]), n)
    return window_plan(n, p.ell0, p.B)


class Estimator(NamedTuple):
    """How to call an estimator from a params dict and a seed, the exact cost
    it is judged against, and its audit ceiling from a report entry and n: its
    plan's read bound (None: it claims none). The calls name estimators and
    oracles as module globals, so they resolve at call time and a patched
    attribute applies."""

    run: Callable[[QueryCountedString, dict, int], EstimateReport]
    exact: Callable[[QueryCountedString], float]
    ceiling: Callable[[dict, int], float] | None


ESTIMATORS = {
    "rle-additive": Estimator(
        lambda acc, p, seed: rle_additive_estimate(acc, float(p["epsilon"]), seed),
        _exact_rle,
        lambda e, n: additive_plan(n, int(e.get("sigma", 2)), float(e["epsilon"])).bound,
    ),
    "rle-bucketed": Estimator(
        lambda acc, p, seed: rle_bucketed_estimate(
            acc, float(p["epsilon"]), float(p.get("delta", 1 / 3)), seed
        ),
        _exact_rle,
        lambda e, n: bucketed_plan(
            n, int(e.get("sigma", 2)), float(e["epsilon"]), float(e.get("delta", 1 / 3))
        ).bound,
    ),
    "rle-search": Estimator(
        lambda acc, p, seed: rle_multiplicative_search(acc, seed),
        _exact_rle,
        lambda e, n: search_query_ceiling(n, float(e["exact"])),
    ),
    # No ceiling below n has been derived for the refined search's reads, so
    # its row claims none.
    "rle-refined": Estimator(
        lambda acc, p, seed: rle_refined_search(acc, float(p["gamma"]), seed),
        _exact_rle,
        None,
    ),
    "colors": Estimator(
        lambda acc, p, seed: colors_estimate(acc, float(p["lambda"]), seed),
        _exact_colors,
        lambda e, n: colors_plan(n, float(e["lambda"]), 1).bound,
    ),
    "colors-amplified": Estimator(
        lambda acc, p, seed: colors_estimate_amplified(
            acc, float(p["lambda"]), float(p.get("delta", 1 / 3)), seed
        ),
        _exact_colors,
        lambda e, n: colors_plan(
            n, float(e["lambda"]), amplification_runs(float(e.get("delta", 1 / 3)))
        ).bound,
    ),
    "lz": Estimator(
        lambda acc, p, seed: lz_estimate(acc, float(p["A"]), float(p["epsilon"]), seed),
        _exact_lz,
        lambda e, n: _lz_plan(e, n).bound,
    ),
}


def build_builtin(name: str, n: int, seed: int) -> np.ndarray:
    """Reference inputs used by campaigns and the test corpora."""
    from ._rng import make_rng

    if name == "ones":
        return np.ones(n, dtype=np.uint8)
    if name == "alternating":
        return (np.arange(n) % 2).astype(np.uint8)
    if name == "random-binary":
        return make_rng(seed).integers(0, 2, size=n).astype(np.uint8)
    if name == "random-bytes":
        return make_rng(seed).integers(0, 256, size=n).astype(np.uint8)
    if name == "run-mix":
        # Half the runs unit length, half length 8, randomly interleaved.
        rng = make_rng(seed)
        n_runs = math.ceil(n / 4.5)
        lengths = np.where(rng.random(n_runs) < 0.5, 1, 8)
        lengths = lengths[np.cumsum(lengths) <= n]
        total = int(lengths.sum())
        if total < n:
            lengths = np.concatenate([lengths, [n - total]])
        bits = (np.arange(lengths.size) % 2).astype(np.uint8)
        return np.repeat(bits, lengths)
    raise ValueError(f"unknown builtin instance {name!r}")


def build_instance(spec: dict, seed: int | None = None) -> QueryCountedString:
    """Materialize the instance description from a campaign config."""
    kind = spec["kind"]
    if kind == "file":
        return QueryCountedString.from_file(spec["path"], spec.get("alphabet_size"))
    if kind == "builtin":
        use_seed = spec.get("seed", 0) if seed is None else seed
        data = build_builtin(spec["name"], int(spec["n"]), int(use_seed))
        return QueryCountedString.from_tokens(data, spec.get("alphabet_size"))
    if kind == "generator":
        use_seed = spec.get("seed", 0) if seed is None else seed
        built = GeneratorSpec(spec["family"], spec.get("params", {}), int(use_seed)).build()
        if isinstance(built, QueryCountedString):
            return built
        return QueryCountedString.from_tokens(built, spec.get("alphabet_size"))
    raise ValueError(f"unknown instance kind {kind!r}")


@dataclass(frozen=True)
class CampaignConfig:
    estimator: str
    params: dict = field(default_factory=dict, kw_only=True)
    instance: dict
    trials: int
    base_seed: int
    per_trial_instances: bool = False
    min_success_rate: float = 0.9
    output: str | None = None

    def __post_init__(self):
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"unknown estimator {self.estimator!r}")
        for key, value in (("params", self.params), ("instance", self.instance)):
            if not isinstance(value, dict):
                raise ValueError(f"{key} must be an object, not {type(value).__name__}")
        for key, value in (("trials", self.trials), ("base_seed", self.base_seed)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{key} must be an integer, not {value!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        rate = self.min_success_rate
        if isinstance(rate, bool) or not isinstance(rate, (int, float)) or not 0 <= rate <= 1:
            raise ValueError(f"min_success_rate must be in [0, 1], not {rate!r}")
        if not isinstance(self.per_trial_instances, bool):
            raise ValueError("per_trial_instances must be true or false")

    @staticmethod
    def from_json_file(path) -> "CampaignConfig":
        """The config in a JSON file. Malformed JSON, a document that is not an
        object, a key that names no field, a missing required key and a value
        that ``__post_init__`` rejects each raise a ``ValueError``."""
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(f"campaign config must be an object, not {type(raw).__name__}")
        fs = fields(CampaignConfig)
        unknown = sorted(set(raw) - {f.name for f in fs})
        if unknown:
            raise ValueError(f"unknown campaign config keys: {', '.join(unknown)}")
        missing = [f.name for f in fs if f.name not in raw and f.default is MISSING is f.default_factory]
        if missing:
            raise ValueError(f"campaign config lacks keys: {', '.join(missing)}")
        return CampaignConfig(**raw)


@dataclass
class CampaignResult:
    config: CampaignConfig
    rows: list = field(default_factory=list)  # dicts with CSV_FIELDS keys
    success_rate: float = 0.0
    mean_queries: float = 0.0
    wall_time_s: float = 0.0  # stderr-only; excluded from artifacts for replayability

    @property
    def passed(self) -> bool:
        return self.success_rate >= self.config.min_success_rate

    def to_json_dict(self) -> dict:
        return {
            "estimator": self.config.estimator,
            "params": self.config.params,
            "instance": self.config.instance,
            "trials": self.config.trials,
            "base_seed": self.config.base_seed,
            "min_success_rate": float(self.config.min_success_rate),
            "success_rate": self.success_rate,
            "mean_queries": self.mean_queries,
            "rows": self.rows,
        }

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS, lineterminator="\n")
        writer.writeheader()
        for row in self.rows:
            writer.writerow(row)
        return buf.getvalue()


def run_campaign(config: CampaignConfig) -> CampaignResult:
    """Execute all trials; exact costs are computed once per distinct instance."""
    t0 = time.perf_counter()
    estimator = ESTIMATORS[config.estimator]
    rows = []
    passes = 0
    shared_instance = None
    shared_exact = None
    if not config.per_trial_instances:
        shared_instance = build_instance(config.instance)
        shared_exact = estimator.exact(shared_instance)
    for trial in range(config.trials):
        seed = derive_seed(config.base_seed, trial)
        if config.per_trial_instances:
            acc = build_instance(config.instance, seed=derive_seed(config.base_seed, trial, "inst"))
            exact = estimator.exact(acc)
        else:
            acc, exact = shared_instance, shared_exact
        row = {
            "trial": trial,
            "seed": seed,
            "estimate": None,
            "exact": exact,
            "queries": None,
            "contract_pass": None,
            "valid": 1,
            "error": "",
        }
        try:
            report = estimator.run(acc, config.params, seed)
        except (ValueError, IndexError) as exc:
            row["valid"] = 0
            row["error"] = str(exc)
            rows.append(row)
            continue
        ok = meets_contract(report, exact, acc.length)
        passes += ok
        row.update(estimate=report.estimate, queries=report.queries_used, contract_pass=int(ok))
        rows.append(row)
    result = CampaignResult(config, rows)
    valid_rows = [r for r in rows if r["valid"]]
    result.success_rate = passes / config.trials
    result.mean_queries = (
        float(np.mean([r["queries"] for r in valid_rows])) if valid_rows else 0.0
    )
    result.wall_time_s = time.perf_counter() - t0
    return result


def write_result(result: CampaignResult, output_prefix: str) -> tuple[str, str]:
    csv_path = output_prefix + ".csv"
    json_path = output_prefix + ".json"
    parent = os.path.dirname(output_prefix)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(result.to_csv_text())
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(result.to_json_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
    return csv_path, json_path


@dataclass(frozen=True)
class AuditRow:
    label: str
    n: int
    queries_used: int
    ceiling: float

    @property
    def within(self) -> bool:
        return self.queries_used <= self.ceiling

    @property
    def vacuous(self) -> bool:
        """A ceiling of n or more, which no run reads past: it proves nothing."""
        return self.ceiling >= self.n


def audit_queries(entries: list) -> list[AuditRow]:
    """Check measured reads against each estimator's ceiling.

    Each entry is a dict with keys ``estimator``, ``n`` and ``queries_used``,
    plus the parameters its estimator's ceiling takes: ``epsilon`` for
    ``rle-additive``; ``epsilon`` and ``delta`` (default 1/3) for
    ``rle-bucketed``; ``exact``, the exact cost, for ``rle-search``;
    ``lambda`` for ``colors``; ``lambda`` and ``delta`` (default 1/3) for
    ``colors-amplified``; ``A`` and ``epsilon`` for ``lz``. The RLE rows also
    take ``sigma``, the alphabet size (default 2). ``entries`` that are not a
    list, and an entry that is not a dict, lacks a key, names an estimator
    with no ceiling, or that no run can produce (n < 1, ``queries_used``
    outside [0, n], parameters its plan rejects) raise a ``ValueError``
    naming the entry. Rows exceeding their ceiling are flagged, and so are
    ceilings of n or more; the caller decides whether that is fatal.
    """
    if not isinstance(entries, list):
        raise ValueError(f"audit entries must be a list, not {type(entries).__name__}")
    rows = []
    for i, e in enumerate(entries):
        if not isinstance(e, dict):
            raise ValueError(f"audit entry {i} must be an object, not {type(e).__name__}")
        try:
            name = e["estimator"]
            if name not in ESTIMATORS:
                raise ValueError(f"audit entry {i}: unknown estimator {name!r}")
            ceiling = ESTIMATORS[name].ceiling
            if ceiling is None:
                raise ValueError(f"audit entry {i}: {name} has no query ceiling")
            try:
                n, used = int(e["n"]), int(e["queries_used"])
                if not 0 <= used <= n or n < 1:
                    raise ValueError(f"need 0 <= queries_used <= n and n >= 1, not {used} and {n}")
                rows.append(AuditRow(label=name, n=n, queries_used=used, ceiling=float(ceiling(e, n))))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"audit entry {i} ({name}): {exc}") from None
        except KeyError as exc:
            key = exc.args[0]
            if key in e:
                raise
            raise ValueError(f"audit entry {i} ({e.get('estimator')}) lacks key {key!r}") from None
    return rows
