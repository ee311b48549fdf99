"""Shorthands the tests share, built on the package's public API."""

from itertools import combinations_with_replacement

from hodgeideals import Ideal, Polynomial, parse_polynomial
from hodgeideals.poly import integer_terms


def spanned_by(variables, texts) -> Ideal:
    """The ideal over ``variables`` spanned by the parsed ``texts``."""
    return Ideal(variables, tuple(parse_polynomial(t, variables) for t in texts))


def monomial(variables, exponents) -> Polynomial:
    """The monomial with the given exponent vector over ``variables``."""
    return Polynomial(variables, {tuple(exponents): 1})


def m_power(variables, e) -> Ideal:
    """m^e for the maximal ideal m at the origin, (1) for e <= 0: one
    generator per multiset of e variables, so every monomial of degree e."""
    n = len(variables)
    return Ideal(variables, [monomial(variables, [combo.count(i) for i in range(n)])
                             for combo in combinations_with_replacement(range(n), max(e, 0))])


def rows(polys) -> list[dict]:
    """Each polynomial scaled to an integer row, the input ``graded_basis``
    takes."""
    return integer_terms(polys)[1]


def is_unit(ideal: Ideal) -> bool:
    """True iff ``ideal`` is (1): its reduced basis is one constant."""
    basis = ideal.groebner().basis
    return len(basis) == 1 and basis[0].is_constant()
