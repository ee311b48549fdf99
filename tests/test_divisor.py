"""Q-divisor model: support, periodic reduction, twists."""

from fractions import Fraction as F

import pytest

from hodgeideals import (
    Ideal,
    QDivisor,
    parse_divisor,
    parse_polynomial,
    periodic_reduce,
    snc_hodge_ideal,
    support,
    twist_polynomial,
    validate,
)

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
    assert twist.is_constant() and twist.constant_coeff() == 1

    b, twist = periodic_reduce(div([{"f": "x", "alpha": "7/3"}, {"f": "y", "alpha": "2"}]))
    assert b.alphas == (F(1, 3), F(1))
    assert twist == parse_polynomial("x^2 y", XY)


def test_periodic_reduce_is_idempotent():
    for d in (CUSP, SNC, div([{"f": "x", "alpha": "22/7"}])):
        b, _ = periodic_reduce(d)
        b2, twist2 = periodic_reduce(b)
        assert b2 == b
        assert twist2.is_constant() and twist2.constant_coeff() == 1


def test_snc_periodicity_contract():
    # closed-form I_k(D) equals twist * closed-form I_k(B) on SNC divisors
    for alphas in ((F(3, 2), F(1, 2)), (F(7, 3), F(2)), (F(1), F(5, 2))):
        d = QDivisor(XY, ((parse_polynomial("x", XY), alphas[0]),
                          (parse_polynomial("y", XY), alphas[1])))
        b, twist = periodic_reduce(d)
        for k in range(4):
            lhs = snc_hodge_ideal(d, k).ideal
            rhs = twist * snc_hodge_ideal(b, k).ideal
            assert lhs.equals(rhs)


def test_twist_contains_every_unprimed_result():
    for d, k in ((SNC, 0), (SNC, 2), (div([{"f": "x", "alpha": "5/2"}]), 1)):
        from hodgeideals import compute_ideal
        res = compute_ideal(d, k)
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
