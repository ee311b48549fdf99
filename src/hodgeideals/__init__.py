"""Hodge ideals of effective Q-divisors on affine space.

Exact-rational computation of the ideals I_k(D) in the regimes with
closed forms (smooth support, simple normal crossings, ordinary
singularities) and through the derivation-closure recursion, plus
inequality certificates from log-resolution data and executable
property suites for the structural theorems.
"""

from .poly import GREVLEX, GRLEX, LEX, MonomialOrder, Polynomial
from .ideal import Ideal, graded_basis, groebner_basis, normal_form
from .parser import ParseError, parse_divisor, parse_polynomial, parse_rational, \
    parse_resolution_data
from .divisor import (
    HodgeIdealResult,
    QDivisor,
    periodic_reduce,
    twist_polynomial,
    validate,
)
from .closed_forms import (
    Regime,
    classify,
    generation_level,
    ordinary_ideal,
    smooth_support_ideal,
    snc_hodge_ideal,
)
from .recursion import (
    ChainResult,
    GenerationCertificate,
    MethodUnavailableError,
    certificate_for,
    derivation_step,
    hodge_chain,
    i0_seed,
)
from .certificates import (
    Decision,
    ExceptionalDivisor,
    MultiplicityData,
    alpha_multiple_membership,
    nontriviality_symbolic_power,
    singular_multiplicity_bound,
    triviality_certificate,
)
from .compute import compute_chain

__all__ = [
    "GREVLEX", "GRLEX", "LEX", "MonomialOrder", "Polynomial",
    "Ideal", "graded_basis", "groebner_basis", "normal_form",
    "ParseError", "parse_divisor", "parse_polynomial", "parse_rational",
    "parse_resolution_data",
    "HodgeIdealResult", "QDivisor", "periodic_reduce", "twist_polynomial",
    "validate",
    "Regime", "classify", "generation_level",
    "ordinary_ideal", "smooth_support_ideal", "snc_hodge_ideal",
    "ChainResult", "GenerationCertificate", "MethodUnavailableError", "certificate_for",
    "derivation_step", "hodge_chain", "i0_seed",
    "Decision", "ExceptionalDivisor", "MultiplicityData",
    "alpha_multiple_membership", "nontriviality_symbolic_power",
    "singular_multiplicity_bound", "triviality_certificate",
    "compute_chain",
]
