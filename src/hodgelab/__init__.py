"""Weighted clique complexes, discrete Hodge operators and completeness
diagnostics."""

__version__ = "0.1.0"

from .complexes import (
    WeightedComplex,
    build_clique_complex,
    canonical_sign,
    complex_from_json,
    complex_to_json,
    drop_simplices,
    induced_subcomplex,
    weighted_degree,
)
from .operators import (
    Cochain,
    adjointness_check,
    assemble_block,
    coboundary_apply,
    codifferential_apply,
    gauss_bonnet_apply,
    inner_product,
    norm,
)

__all__ = [
    "__version__",
    "WeightedComplex",
    "build_clique_complex",
    "canonical_sign",
    "complex_from_json",
    "complex_to_json",
    "drop_simplices",
    "induced_subcomplex",
    "weighted_degree",
    "Cochain",
    "adjointness_check",
    "assemble_block",
    "coboundary_apply",
    "codifferential_apply",
    "gauss_bonnet_apply",
    "inner_product",
    "norm",
]
