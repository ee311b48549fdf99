"""Cross-validation of the Groebner engine against an independent
implementation (sympy's), on seeded random ideals.

The reduced Groebner basis of an ideal is unique for a fixed monomial
order, so the two engines must agree monomial for monomial.
"""

import random
from fractions import Fraction as F

import sympy

import pytest

from hodgeideals import GREVLEX, GRLEX, LEX, Polynomial, groebner_basis

from helpers import spanned_by
from test_ideal import random_membership_instance

SYMPY_ORDER = {"grevlex": "grevlex", "lex": "lex", "grlex": "grlex"}


def to_sympy(poly, symbols):
    expr = sympy.Integer(0)
    for mono, coeff in poly.terms.items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for sym, e in zip(symbols, mono):
            term *= sym ** e
        expr += term
    return expr


def from_sympy(expr, variables, symbols):
    poly = sympy.Poly(expr, *symbols)
    terms = {}
    for mono, coeff in poly.terms():
        c = sympy.Rational(coeff)
        terms[tuple(int(e) for e in mono)] = F(int(c.p), int(c.q))
    return Polynomial(variables, terms)


def reference_basis(gens, order):
    symbols = sympy.symbols(" ".join(gens[0].vars), seq=True)
    exprs = [to_sympy(g, symbols) for g in gens]
    gb = sympy.groebner(exprs, *symbols, order=SYMPY_ORDER[order.name], domain="QQ")
    return {from_sympy(e, gens[0].vars, symbols) for e in gb.exprs}


def test_reduced_bases_agree_with_sympy_grevlex():
    rng = random.Random(2718)
    checked = 0
    for _ in range(40):
        _, gens = random_membership_instance(rng)
        if len(gens[0].vars) < 2:
            continue
        ours = set(groebner_basis(gens, GREVLEX))
        theirs = reference_basis(gens, GREVLEX)
        assert ours == theirs, (sorted(map(str, ours)), sorted(map(str, theirs)))
        checked += 1
    assert checked >= 20


def test_reduced_bases_agree_with_sympy_lex():
    rng = random.Random(3141)
    checked = 0
    for _ in range(25):
        _, gens = random_membership_instance(rng)
        if len(gens[0].vars) < 2:
            continue
        ours = set(groebner_basis(gens, LEX))
        theirs = reference_basis(gens, LEX)
        assert ours == theirs
        checked += 1
    assert checked >= 12


def test_golden_cusp_ideal_against_sympy():
    gens = spanned_by(("x", "y"), [
        "x^3", "x^2 y^2", "x y^3", "y^4 - 14/5 x^2 y"]).generators
    ours = set(groebner_basis(gens, GREVLEX))
    assert ours == reference_basis(list(gens), GREVLEX)


MONOMIAL_IDEALS = [
    ["x^2 y", "x y^3", "x^3", "x^2 y^2", "y^4", "x y^3"],   # not minimal, repeated
    ["x y z", "x^2", "y^2 z", "z^3", "x z^2", "x^2 y z"],
    ["3 x^5", "-y^2 z", "1/2 x y", "z^4 x"],
    ["x^2", "x y", "7"],                                     # the unit ideal
    ["z"],
    # Mixed degrees, a low-degree divisor listed after its multiples, and
    # equal-degree monomials repeated with different coefficients.
    ["x^3 y", "x y^2 z", "y^3", "2 x y^2 z", "-x^3 y", "x y", "z^5", "x z^4"],
    ["y z^3", "x^2 z^2", "-3 y z^3", "x^4", "y^2 z^3", "z^2", "1/2 x^4", "x^2 y^2"],
    ["x y^6", "x^2", "y^7", "-x y^6", "x^2 z", "5 y^7", "x y^3 z^3", "x y^3"],
]


@pytest.mark.parametrize("order", [GREVLEX, LEX, GRLEX], ids=lambda o: o.name)
@pytest.mark.parametrize("texts", MONOMIAL_IDEALS)
def test_monomial_ideals_agree_with_sympy(texts, order):
    gens = spanned_by(("x", "y", "z"), texts).generators
    ours = groebner_basis(gens, order)
    assert set(ours) == reference_basis(list(gens), order)
    keys = [order.key(g.leading_monomial(order)) for g in ours]
    assert keys == sorted(keys, reverse=True)
