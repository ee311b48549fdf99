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
    twist_polynomial,
    validate,
)
from hodgeideals.divisor import apply_twist

from helpers import spanned_by
from oracles import log_terms

XY = ("x", "y")


def div(components, variables=XY):
    return parse_divisor({"vars": list(variables), "components": components})


CUSP = div([{"f": "x^2+y^3", "alpha": "9/10"}])
SNC = div([{"f": "x", "alpha": "3/2"}, {"f": "y", "alpha": "1/2"}])


def test_support_equation():
    assert CUSP.support_equation == parse_polynomial("x^2+y^3", XY)
    assert SNC.support_equation == parse_polynomial("x y", XY)
    assert div([{"f": "x", "alpha": "2"}]).support_equation == parse_polynomial("x", XY)


# -- the step data each divisor keeps --------------------------------------------------

def cached_log_terms(divisor, k):
    """The h_l of step k from the divisor's kept integer rows: H_l(k) over
    its scale."""
    data = divisor.step_data
    return [Polynomial(divisor.vars, {m: F(c, data.h_scale) for m, c in row.items()})
            for row in data.log_rows(k)]


def cached_support(divisor):
    data = divisor.step_data
    return Polynomial(divisor.vars, {m: F(c, data.g_scale) for m, c in data.g_terms.items()})


@pytest.mark.parametrize("d", [
    CUSP,
    div([{"f": "1/2*x^2 + 3/7*y^3", "alpha": "5/6"}]),
    div([{"f": "x", "alpha": "1/3"}, {"f": "y^2+x^3", "alpha": "2/5"}]),
], ids=["cusp", "scaled-cusp", "line-and-cusp"])
def test_kept_integer_rows_give_the_textbook_h(d):
    g = parse_polynomial("1", XY)
    for f in d.factors:
        g = g * f
    assert cached_support(d) == g
    for k in range(5):
        assert cached_log_terms(d, k) == log_terms(d, k)


def test_derived_divisors_build_their_own_step_data():
    d = div([{"f": "x", "alpha": "7/4"}, {"f": "y^2+x^3", "alpha": "1/2"}])
    assert cached_log_terms(d, 1) == log_terms(d, 1)
    for other in (d.with_alpha(F(2, 3)), periodic_reduce(d)[0]):
        assert other.step_data is not d.step_data
        for k in range(3):
            assert cached_log_terms(other, k) == log_terms(other, k)
            assert cached_log_terms(other, k) != cached_log_terms(d, k)


def test_kept_data_leaves_equality_and_hashing_alone():
    spec = [{"f": "x^2+y^3", "alpha": "9/10"}]
    used, fresh = div(spec), div(spec)
    used.step_data, used.isolated_weights, used.support_equation
    assert used == fresh and hash(used) == hash(fresh)
    assert {used: 1}[fresh] == 1
    assert used != used.with_alpha(F(1, 2))


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
