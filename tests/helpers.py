"""Shorthands the tests share, built on the package's public API."""

from fractions import Fraction
from itertools import combinations_with_replacement

from hodgeideals import Ideal, MonomialOrder, Polynomial, parse_divisor, parse_polynomial
from hodgeideals.poly import integer_terms

#: Reverse lex, lex with the variables read last to first: a monomial order
#: the package has no packed layout for.
RLEX = MonomialOrder("rlex", lambda m: m[::-1], lambda m: tuple(-e for e in m[::-1]))


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


def cone(n, m, alpha):
    """alpha * div(x_1^m + ... + x_n^m) over the first n of x, y, z, w: an
    ordinary singularity of multiplicity m when m >= 2."""
    variables = ["x", "y", "z", "w"][:n]
    return parse_divisor({"vars": variables, "components": [
        {"f": " + ".join(f"{v}^{m}" for v in variables), "alpha": str(alpha)}]})


def rows(polys) -> list[dict]:
    """Each polynomial scaled to an integer row, the input ``graded_basis``
    takes."""
    return integer_terms(polys)[1]


def term_dicts(rows) -> tuple[dict, ...]:
    """Integer rows as term dicts {exponent tuple: int}: packed rows (a
    graded basis's ``packed``, or a derivation step's rows) unpacked
    through their codec, others as given."""
    codec = getattr(rows, "codec", None)
    if codec is None:
        return tuple(rows)
    return tuple({codec.decode(t): c for t, c in row.items()} for row in rows)


def positive_multiple(p: Polynomial, q: Polynomial) -> bool:
    """True iff p = r*q for some rational r > 0."""
    if not q:
        return not p
    m = next(iter(q.terms))
    r = p.terms.get(m, 0) / q.terms[m]
    return r > 0 and p == r * q


def integer_polynomial(variables, row) -> Polynomial:
    """The polynomial of an integer row {exponent tuple: int}."""
    return Polynomial(variables, {m: Fraction(c) for m, c in row.items()})


def is_unit(ideal: Ideal) -> bool:
    """True iff ``ideal`` is (1): its reduced basis is one constant."""
    basis = ideal.groebner()
    return len(basis) == 1 and basis[0].is_constant()
