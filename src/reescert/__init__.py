"""Certify Koszul, normal, Cohen-Macaulay Rees algebras of leveled
monomial families through an explicit marked quadratic basis."""

import importlib

from .errors import (
    FamilyError,
    InternalInvariantError,
    MonomialParseError,
    NotClosedError,
    ReescertError,
    ResourceCapError,
)
from .monomials import (
    Monomial,
    borel_closure,
    borel_member,
    ord_pair,
    parse_monomial,
    revlex_cmp,
    revlex_key,
    sort_pair,
)
from .family import (
    GenRef,
    LeveledFamily,
    build_family,
    characterize,
    comparable,
    family_from_file,
    is_closed_under_comparability,
    rewrite_images,
)
from .presentation import (
    MarkedBinomial,
    TMonomial,
    basis_from_json,
    basis_shape,
    basis_to_json,
    build_basis,
)
from .certify import build_certificate, certificate_text

# Reduction, the brute-force suites and the (c, e) measure are not on the
# certify path; they load on first access, as names or as submodules
# (PEP 562).
_LAZY = dict.fromkeys(
    ("reduction", "PsiImage", "TPolynomial", "confluence_check",
     "is_completely_reduced", "normal_form", "parse_tpolynomial", "psi_eval",
     "reduce_step", "s_polynomial"),
    "reduction")
_LAZY.update(dict.fromkeys(
    ("measure", "LevelMatrix", "ReductionMeasure", "comparability_number",
     "inversion_minimal", "level_matrix", "reduction_level",
     "traced_normal_form"),
    "measure"))
_LAZY.update(dict.fromkeys(
    ("oracle", "enumerate_fibers", "verify_kernel_generation",
     "verify_measure_decrease", "verify_unique_normal_forms"), "oracle"))


def __getattr__(name):
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{home}")
    value = module if home == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__version__ = "0.1.0"

__all__ = [
    "FamilyError",
    "InternalInvariantError",
    "MonomialParseError",
    "NotClosedError",
    "ReescertError",
    "ResourceCapError",
    "Monomial",
    "borel_closure",
    "borel_member",
    "ord_pair",
    "parse_monomial",
    "revlex_cmp",
    "revlex_key",
    "sort_pair",
    "GenRef",
    "LeveledFamily",
    "build_family",
    "characterize",
    "comparable",
    "family_from_file",
    "is_closed_under_comparability",
    "rewrite_images",
    "MarkedBinomial",
    "PsiImage",
    "TMonomial",
    "TPolynomial",
    "basis_from_json",
    "basis_shape",
    "basis_to_json",
    "build_basis",
    "confluence_check",
    "is_completely_reduced",
    "normal_form",
    "parse_tpolynomial",
    "psi_eval",
    "reduce_step",
    "s_polynomial",
    "LevelMatrix",
    "ReductionMeasure",
    "comparability_number",
    "inversion_minimal",
    "level_matrix",
    "reduction_level",
    "traced_normal_form",
    "enumerate_fibers",
    "verify_kernel_generation",
    "verify_measure_decrease",
    "verify_unique_normal_forms",
    "build_certificate",
    "certificate_text",
]
