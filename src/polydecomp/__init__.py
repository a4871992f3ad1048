"""Decomposition of univariate polynomials and the geometry around it.

The package computes compositions f = g(h) and their inverses (one power-series
root of the reversed input for h; for g, a generalized Taylor expansion over
the rationals and a residual polished by linearized least squares over
floats), constructs polynomials that decompose at two divisors at once, and measures
coordinate-direction epsilon-tubes around the decomposable variety: exact
closed-form density brackets plus reproducible Monte Carlo estimators.
"""

from .collisions import (
    CollisionParameterError,
    CollisionParams,
    alpha_exp,
    alpha_trig,
    dickson,
    original_shift,
    verify_bidecomposable,
)
from .decompose import (
    Decomposition,
    DivisorError,
    DivisorPlan,
    NtSet,
    degree_bound,
    dimension,
    divisor_plan,
    is_composite,
    is_decomposable,
    least_prime_factor,
    nt_coordinates,
    nt_set,
    proper_divisors,
    right_component,
    section,
    section_components,
    try_decompose,
)
from .density import (
    DensityBounds,
    EstimateResult,
    TubeSpec,
    cheng_bound,
    density_bounds,
    density_report,
    disk_overlap_area,
    estimate_density,
    estimate_subspace_density,
    tube_membership,
)
from .polynomial import (
    Polynomial,
    SeriesNormalizationError,
    compose,
    format_polynomial,
    format_scalar,
    is_monic_original,
    parse_polynomial,
    parse_scalar,
    require_monic_original,
    series_dth_root,
    taylor_coefficients,
    x_power,
)

__all__ = [
    "CollisionParameterError",
    "CollisionParams",
    "Decomposition",
    "DensityBounds",
    "DivisorError",
    "DivisorPlan",
    "EstimateResult",
    "NtSet",
    "Polynomial",
    "SeriesNormalizationError",
    "TubeSpec",
    "alpha_exp",
    "alpha_trig",
    "cheng_bound",
    "compose",
    "degree_bound",
    "density_bounds",
    "density_report",
    "dickson",
    "dimension",
    "disk_overlap_area",
    "divisor_plan",
    "estimate_density",
    "estimate_subspace_density",
    "format_polynomial",
    "format_scalar",
    "is_composite",
    "is_decomposable",
    "is_monic_original",
    "least_prime_factor",
    "nt_coordinates",
    "nt_set",
    "original_shift",
    "parse_polynomial",
    "parse_scalar",
    "proper_divisors",
    "require_monic_original",
    "right_component",
    "section",
    "section_components",
    "series_dth_root",
    "taylor_coefficients",
    "try_decompose",
    "tube_membership",
    "verify_bidecomposable",
    "x_power",
]

__version__ = "0.1.0"
