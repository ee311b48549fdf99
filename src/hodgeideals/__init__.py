"""Hodge ideals of effective Q-divisors on affine space.

Exact-rational computation of the ideals I_k(D) in the regimes with
closed forms (smooth support, simple normal crossings, ordinary
singularities) and through the derivation-closure recursion, plus
inequality certificates from log-resolution data and executable
property suites for the structural theorems.
"""

from .poly import GREVLEX, GRLEX, LEX, InputError, MonomialOrder, Polynomial
from .ideal import Ideal, graded_basis, groebner_basis, normal_form
from .parser import ParseError, parse_divisor, parse_polynomial, parse_rational, \
    parse_resolution_data
from .divisor import (
    HodgeIdealResult,
    Provenance,
    QDivisor,
    periodic_reduce,
    twist_polynomial,
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
from .compute import compute_chain

# Only certify and verify use the certificate layer, so it is imported on
# first access to one of these names (PEP 562), not with the package.
_CERTIFICATE_NAMES = frozenset((
    "Decision", "ExceptionalDivisor", "MultiplicityData", "alpha_multiple_membership",
    "nontriviality_symbolic_power", "singular_multiplicity_bound", "triviality_certificate",
))


def __getattr__(name: str):
    if name in _CERTIFICATE_NAMES:
        from . import certificates
        return getattr(certificates, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "GREVLEX", "GRLEX", "LEX", "InputError", "MonomialOrder", "Polynomial",
    "Ideal", "graded_basis", "groebner_basis", "normal_form",
    "ParseError", "parse_divisor", "parse_polynomial", "parse_rational",
    "parse_resolution_data",
    "HodgeIdealResult", "Provenance", "QDivisor", "periodic_reduce", "twist_polynomial",
    "Regime", "classify", "generation_level",
    "ordinary_ideal", "smooth_support_ideal", "snc_hodge_ideal",
    "ChainResult", "GenerationCertificate", "MethodUnavailableError", "certificate_for",
    "derivation_step", "hodge_chain", "i0_seed",
    "Decision", "ExceptionalDivisor", "MultiplicityData",
    "alpha_multiple_membership", "nontriviality_symbolic_power",
    "singular_multiplicity_bound", "triviality_certificate",
    "compute_chain",
]
