"""Sublinear-time compressibility estimation for RLE and LZ77.

Exact oracles (ground truth), query-counted estimators with explicit
(multiplicative, additive) accuracy contracts, a distinct-symbol sampler,
and the adversarial instance families that make those contracts tight.
"""

from .accessor import EstimateReport, QueryCountedString, meets_contract
from .colors import colors_estimate, colors_estimate_amplified
from .generators import (
    GeneratorSpec,
    binarize,
    generate_coin_runs,
    generate_colors_to_lz,
    generate_lz_tight,
    generate_wk,
)
from .lz import (
    DistinguishResult,
    LzEstimateParams,
    SharedWindowSamples,
    distinguish_compressible,
    estimate_distinct,
    lz_estimate,
)
from .oracles import (
    CostBreakdown,
    StructuralReport,
    distinct_profile,
    exact_color_count,
    exact_distinct_substrings,
    exact_lz_cost,
    exact_rle_cost,
    verify_structural_lemmas,
)
from .rle import (
    rle_additive_estimate,
    rle_bucketed_estimate,
    rle_multiplicative_search,
    rle_refined_search,
)

__version__ = "0.1.0"

__all__ = [
    "EstimateReport",
    "QueryCountedString",
    "meets_contract",
    "colors_estimate",
    "colors_estimate_amplified",
    "GeneratorSpec",
    "binarize",
    "generate_coin_runs",
    "generate_colors_to_lz",
    "generate_lz_tight",
    "generate_wk",
    "DistinguishResult",
    "LzEstimateParams",
    "SharedWindowSamples",
    "distinguish_compressible",
    "estimate_distinct",
    "lz_estimate",
    "CostBreakdown",
    "StructuralReport",
    "distinct_profile",
    "exact_color_count",
    "exact_distinct_substrings",
    "exact_lz_cost",
    "exact_rle_cost",
    "verify_structural_lemmas",
    "rle_additive_estimate",
    "rle_bucketed_estimate",
    "rle_multiplicative_search",
    "rle_refined_search",
]
