"""The estimator table: each estimator the command line and campaigns run,
by name, with the oracle that judges it and the plan that bounds its reads.

Every entry point is named "module.attribute" of this package and read at
each call, so a patched attribute applies (the bench tracer's swaps do), and
importing the table imports none of the modules it names.
"""

from __future__ import annotations

import importlib
from collections.abc import Callable
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .accessor import EstimateReport, QueryCountedString


def _attr(ref: str):
    """The attribute that ``ref``, "module.attribute", names in this
    package, imported and read now."""
    module, attr = ref.split(".")
    return getattr(importlib.import_module(f"{__package__}.{module}"), attr)


def _sigma(acc: QueryCountedString) -> tuple:
    return (acc.alphabet_size,)


def _no_args(acc: QueryCountedString) -> tuple:
    return ()


def _pool(e: dict, n: int) -> tuple:
    from .colors import amplification_runs

    return n, float(e["lambda"]), amplification_runs(float(e.get("delta", 1 / 3)))


def _windows(e: dict, n: int) -> tuple:
    from .lz import LzEstimateParams

    p = LzEstimateParams.derive(float(e["A"]), float(e["epsilon"]), n)
    return n, p.ell0, p.B


class Estimator(NamedTuple):
    """An ESTIMATORS row: an estimator, the oracle whose exact cost judges
    it, and the plan whose read bound is its audit ceiling, each named
    "module.attribute".

    ``args`` maps a params dict to the estimator's arguments between the
    string and the seed. The oracle takes every symbol of the string, then
    ``oracle_args`` of the string (an RLE oracle: its alphabet size); a
    cost breakdown counts as its ``total_cost``. ``plan_args`` maps an audit
    entry and n to the plan's arguments; the plan gives a ``ReadPlan``,
    whose ``bound`` is the ceiling, or the ceiling itself. A row with no
    plan claims no ceiling."""

    estimator: str
    args: Callable[[dict], tuple]
    oracle: str
    oracle_args: Callable[[QueryCountedString], tuple]
    plan: str | None
    plan_args: Callable[[dict, int], tuple] | None = None

    def run(self, acc: QueryCountedString, params: dict, seed: int) -> EstimateReport:
        return _attr(self.estimator)(acc, *self.args(params), seed)

    def exact(self, acc: QueryCountedString) -> float:
        cost = _attr(self.oracle)(acc.session().read_all(), *self.oracle_args(acc))
        return float(getattr(cost, "total_cost", cost))

    def ceiling(self, entry: dict, n: int) -> float:
        bound = _attr(self.plan)(*self.plan_args(entry, n))
        return float(getattr(bound, "bound", bound))


ESTIMATORS = {
    "rle-additive": Estimator(
        "rle.rle_additive_estimate", lambda p: (float(p["epsilon"]),),
        "oracles.rle_total_cost", _sigma,
        "rle.additive_plan", lambda e, n: (n, int(e.get("sigma", 2)), float(e["epsilon"])),
    ),
    "rle-bucketed": Estimator(
        "rle.rle_bucketed_estimate", lambda p: (float(p["epsilon"]), float(p.get("delta", 1 / 3))),
        "oracles.rle_total_cost", _sigma,
        "rle.bucketed_plan",
        lambda e, n: (n, int(e.get("sigma", 2)), float(e["epsilon"]), float(e.get("delta", 1 / 3))),
    ),
    "rle-search": Estimator(
        "rle.rle_multiplicative_search", lambda p: (),
        "oracles.rle_total_cost", _sigma,
        "rle.search_query_ceiling", lambda e, n: (n, float(e["exact"])),
    ),
    # No ceiling below n has been derived for the refined search's reads, so
    # its row claims none.
    "rle-refined": Estimator(
        "rle.rle_refined_search", lambda p: (float(p["gamma"]),),
        "oracles.rle_total_cost", _sigma,
        None,
    ),
    "colors": Estimator(
        "colors.colors_estimate", lambda p: (float(p["lambda"]),),
        "oracles.exact_color_count", _no_args,
        "colors.colors_plan", lambda e, n: (n, float(e["lambda"]), 1),
    ),
    "colors-amplified": Estimator(
        "colors.colors_estimate_amplified", lambda p: (float(p["lambda"]), float(p.get("delta", 1 / 3))),
        "oracles.exact_color_count", _no_args,
        "colors.colors_plan", _pool,
    ),
    "lz": Estimator(
        "lz.lz_estimate", lambda p: (float(p["A"]), float(p["epsilon"])),
        "oracles.exact_lz_cost", _no_args,
        "lz.window_plan", _windows,
    ),
}
