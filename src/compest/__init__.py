"""Sublinear-time compressibility estimation for RLE and LZ77.

Exact oracles (ground truth), query-counted estimators with explicit
(multiplicative, additive) accuracy contracts, a distinct-symbol sampler,
and the adversarial instance families that make those contracts tight.
"""

import importlib

# Each export and the module that holds it. Nothing is imported until a name
# is first read, so ``import compest.cli`` loads only what its subcommand runs.
_EXPORTS = {
    "accessor": ["EstimateReport", "QueryCountedString", "meets_contract"],
    "colors": ["colors_estimate", "colors_estimate_amplified"],
    "generators": [
        "GeneratorSpec",
        "binarize",
        "generate_coin_runs",
        "generate_colors_to_lz",
        "generate_lz_tight",
        "generate_wk",
    ],
    "lz": [
        "DistinguishResult",
        "LzEstimateParams",
        "SharedWindowSamples",
        "distinguish_compressible",
        "estimate_distinct",
        "lz_estimate",
    ],
    "oracles": [
        "CostBreakdown",
        "StructuralReport",
        "distinct_profile",
        "exact_color_count",
        "exact_distinct_substrings",
        "exact_lz_cost",
        "exact_rle_cost",
        "verify_structural_lemmas",
    ],
    "rle": [
        "rle_additive_estimate",
        "rle_bucketed_estimate",
        "rle_multiplicative_search",
        "rle_refined_search",
    ],
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_MODULES = {
    "accessor", "campaign", "cli", "colors", "estimators", "generators", "lz", "oracles", "rle", "suffixes",
}

__version__ = "0.1.0"

__all__ = list(_HOME)


def __getattr__(name: str):
    """An export, read from its module, or a submodule, imported on first use."""
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | _MODULES)
