"""Shorthands the tests share, built on the package's public API."""

from hodgeideals import Ideal, parse_polynomial


def spanned_by(variables, texts) -> Ideal:
    """The ideal over ``variables`` spanned by the parsed ``texts``."""
    return Ideal(variables, tuple(parse_polynomial(t, variables) for t in texts))


def is_unit(ideal: Ideal) -> bool:
    """True iff ``ideal`` is (1): its reduced basis is one constant."""
    basis = ideal.groebner().basis
    return len(basis) == 1 and basis[0].is_constant()
