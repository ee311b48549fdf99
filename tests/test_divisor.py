"""Q-divisor model: support, periodic reduction, twists."""

from fractions import Fraction as F

import pytest

from hodgeideals import (
    HodgeIdealResult,
    Ideal,
    Polynomial,
    QDivisor,
    classify,
    parse_divisor,
    parse_polynomial,
    periodic_reduce,
    snc_hodge_ideal,
    support,
    twist_polynomial,
    validate,
)
from hodgeideals.divisor import apply_twist

from helpers import spanned_by

XY = ("x", "y")


def div(components, variables=XY):
    return parse_divisor({"vars": list(variables), "components": components})


CUSP = div([{"f": "x^2+y^3", "alpha": "9/10"}])
SNC = div([{"f": "x", "alpha": "3/2"}, {"f": "y", "alpha": "1/2"}])


def test_support_equation():
    assert support(CUSP) == parse_polynomial("x^2+y^3", XY)
    assert support(SNC) == parse_polynomial("x y", XY)
    assert support(div([{"f": "x", "alpha": "2"}])) == parse_polynomial("x", XY)


def test_periodic_reduce():
    b, twist = periodic_reduce(div([{"f": "x", "alpha": "3/2"}]))
    assert b.alphas == (F(1, 2),)
    assert twist == parse_polynomial("x", XY)

    b, twist = periodic_reduce(div([{"f": "x^2+y^3", "alpha": "1"}]))
    assert b.alphas == (F(1),)
    assert twist == Polynomial.one(XY)

    b, twist = periodic_reduce(div([{"f": "x", "alpha": "7/3"}, {"f": "y", "alpha": "2"}]))
    assert b.alphas == (F(1, 3), F(1))
    assert twist == parse_polynomial("x^2 y", XY)


def test_periodic_reduce_is_idempotent():
    for d in (CUSP, SNC, div([{"f": "x", "alpha": "22/7"}])):
        b, _ = periodic_reduce(d)
        b2, twist2 = periodic_reduce(b)
        assert b2 == b
        assert twist2 == Polynomial.one(XY)


def test_snc_periodicity_contract():
    # closed-form I_k(D) equals twist * closed-form I_k(B) on SNC divisors
    for alphas in ((F(3, 2), F(1, 2)), (F(7, 3), F(2)), (F(1), F(5, 2))):
        d = QDivisor(XY, ((parse_polynomial("x", XY), alphas[0]),
                          (parse_polynomial("y", XY), alphas[1])))
        b, twist = periodic_reduce(d)
        for k in range(4):
            lhs = snc_hodge_ideal(classify(d), k).ideal
            rhs = twist * snc_hodge_ideal(classify(b), k).ideal
            assert lhs.equals(rhs)


def test_apply_twist_multiplies_and_notes_only_a_nontrivial_twist():
    res = HodgeIdealResult(k=1, ideal=spanned_by(XY, ["x", "y"]), notes="seed")
    b, twist = periodic_reduce(div([{"f": "x", "alpha": "1/2"}]))
    assert apply_twist(twist, res) is res
    b, twist = periodic_reduce(div([{"f": "x", "alpha": "5/2"}]))
    twisted = apply_twist(twist, res)
    assert twisted.ideal.equals(spanned_by(XY, ["x^3", "x^2 y"]))
    assert twisted.notes == "seed; integral twist x^2 applied"


def test_apply_twist_multiplies_the_reduced_basis_without_new_generators(groebner_inputs):
    res = HodgeIdealResult(k=1, ideal=spanned_by(XY, ["x^2 + y", "x y - 1"]).canonical())
    twist = parse_polynomial("x y + y^2", XY)
    known = tuple(twist * g for g in res.ideal.generators)
    groebner_inputs.clear()
    twisted = apply_twist(twist, res)
    # The twisted ideal keeps its reduced basis: asking again computes nothing.
    assert twisted.ideal.groebner().basis == twisted.ideal.generators
    assert groebner_inputs == [((), known)]
    assert twisted.ideal.equals(Ideal(XY, known))


def test_twist_contains_every_unprimed_result():
    for d, k in ((SNC, 0), (SNC, 2), (div([{"f": "x", "alpha": "5/2"}]), 1)):
        from hodgeideals import compute_chain
        res = compute_chain(d, k)[k]
        twist_ideal = Ideal.principal(twist_polynomial(d))
        assert twist_ideal.contains_ideal(res.ideal)


def test_validate_clean_snc():
    assert validate(div([{"f": "x", "alpha": "1"}, {"f": "y", "alpha": "1"}])) == []


def test_validate_flags_proportional_components():
    warnings = validate(div([{"f": "x", "alpha": "1"}, {"f": "2x", "alpha": "1"}]))
    assert any("proportional" in w for w in warnings)


def test_validate_flags_monomial_powers():
    warnings = validate(div([{"f": "x", "alpha": "1"}, {"f": "x^2", "alpha": "1/2"}]))
    assert any("perfect power" in w or "non-reduced" in w for w in warnings)


def test_validate_records_unverified_squarefreeness():
    warnings = validate(CUSP)
    assert any("squarefree" in w.lower() for w in warnings)


def test_divisor_rejects_bad_components():
    one = parse_polynomial("1", XY)
    x = parse_polynomial("x", XY)
    with pytest.raises(ValueError):
        QDivisor(XY, ((one, F(1)),))
    with pytest.raises(ValueError):
        QDivisor(XY, ((x, F(0)),))
    with pytest.raises(ValueError):
        QDivisor(XY, ())
