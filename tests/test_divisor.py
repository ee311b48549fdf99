"""Q-divisor model: support, periodic reduction, twists."""

from fractions import Fraction as F

import pytest

from hodgeideals import (
    HodgeIdealResult,
    Ideal,
    Polynomial,
    Provenance,
    QDivisor,
    classify,
    parse_divisor,
    parse_polynomial,
    periodic_reduce,
    snc_hodge_ideal,
    twist_polynomial,
)
from hodgeideals.divisor import apply_twist
from hodgeideals.poly import infer_weights

from helpers import integer_polynomial, positive_multiple, spanned_by
from oracles import log_terms

XY = ("x", "y")
XYZ = ("x", "y", "z")


def div(components, variables=XY):
    return parse_divisor({"vars": list(variables), "components": components})


CUSP = div([{"f": "x^2+y^3", "alpha": "9/10"}])
SNC = div([{"f": "x", "alpha": "3/2"}, {"f": "y", "alpha": "1/2"}])


def test_support_equation():
    assert CUSP.support_equation == parse_polynomial("x^2+y^3", XY)
    assert SNC.support_equation == parse_polynomial("x y", XY)
    assert div([{"f": "x", "alpha": "2"}]).support_equation == parse_polynomial("x", XY)


def test_support_equation_of_one_component_is_that_component():
    for d in (CUSP, div([{"f": "3*x", "alpha": "2"}])):
        assert d.support_equation is d.factors[0]
    assert SNC.support_equation is not SNC.factors[0]


def test_grading_is_the_isolated_weights_in_coprime_integers():
    assert CUSP.grading == (3, 2)
    e8 = div([{"f": "x^2+y^3+z^5", "alpha": "1"}], ("x", "y", "z"))
    assert e8.grading == (15, 10, 6)
    assert e8.grading is e8.grading
    # x*y*(x+y): weights (1/3, 1/3), a grading of (1, 1).
    assert div([{"f": "x*y*(x+y)", "alpha": "1/2"}]).grading == (1, 1)
    assert SNC.grading is None  # x*y: the weights are not unique


@pytest.mark.parametrize("f,variables,grading", [
    ("x^2+y^3", XY, (3, 2)),
    ("x^2+y^3+z^5", XYZ, (15, 10, 6)),
    ("x*y*(x+y)", XY, (1, 1)),
    ("x^2*y+y^4", XY, (3, 2)),  # D5
    ("x^3+x*y^3", XY, (3, 2)),  # E7
    ("x^2+y^2+z^3", XYZ, (3, 3, 2)),
    # Weights (1/3, 1/3, 1/3), but the Jacobian ideal
    # (3x^2 + yz, 3y^2 + xz, xy) vanishes on the z-axis.
    ("x^3+y^3+x*y*z", XYZ, None),
], ids=["cusp", "e8", "three-lines", "d5", "e7", "a2-surface", "z-axis-singular"])
def test_grading_decides_the_jacobian_as_its_groebner_basis_does(f, variables, grading):
    d = div([{"f": f, "alpha": "1/2"}], variables)
    g = d.support_equation
    assert infer_weights(g) is not None
    jacobian = Ideal(variables, [g.diff(i) for i in range(len(variables))])
    assert d.grading == grading
    assert (d.grading is not None) == jacobian.is_zero_dimensional()


# -- the step data each divisor keeps --------------------------------------------------

def step_scale(divisor):
    """The lambda > 0 of the divisor's kept integer rows, checked against
    the support equation g: ``gh`` = lambda*g, and ``g_terms`` is a
    positive multiple of g."""
    data, g = divisor.step_data, divisor.support_equation
    m = next(iter(g.terms))
    lam = data.gh[m] / g.terms[m]
    assert lam > 0 and integer_polynomial(divisor.vars, data.gh) == lam * g
    assert positive_multiple(integer_polynomial(divisor.vars, data.g_terms), g)
    return lam


def cached_log_terms(divisor, k):
    """The h_l of step k from the divisor's kept integer rows:
    ``log_rows(k, rows)[l]`` = -lambda*h_l, one lambda for every l and k."""
    lam = step_scale(divisor)
    return [integer_polynomial(divisor.vars, row) * (-1 / lam)
            for row in divisor.step_data.log_rows(k, divisor.step_data.rows)]


@pytest.mark.parametrize("d", [
    CUSP,
    div([{"f": "1/2*x^2 + 3/7*y^3", "alpha": "5/6"}]),
    div([{"f": "x", "alpha": "1/3"}, {"f": "y^2+x^3", "alpha": "2/5"}]),
    div([{"f": "1/2*x", "alpha": "1/3"}, {"f": "y^2 + 3/7*x^3", "alpha": "2/5"}]),
], ids=["cusp", "scaled-cusp", "line-and-cusp", "scaled-line-and-cusp"])
def test_kept_integer_rows_give_the_textbook_h(d):
    g = parse_polynomial("1", XY)
    for f in d.factors:
        g = g * f
    assert d.support_equation == g
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


def test_derived_divisors_share_the_support_derivatives_not_the_step_data():
    d = div([{"f": "x", "alpha": "7/4"}, {"f": "y^2+x^3", "alpha": "1/2"}])
    for other in (d.with_alpha(F(2, 3)), periodic_reduce(d)[0]):
        assert other._derivatives is d._derivatives
        assert other.step_data is not d.step_data
        assert other.step_data.rows is d.step_data.rows
        assert other.step_data.g_terms is d.step_data.g_terms
    # Over other variables the support's facts start again.
    assert d._over(("x", "y", "z"))._derivatives is not d._derivatives


def test_kept_data_leaves_equality_and_hashing_alone():
    spec = [{"f": "x^2+y^3", "alpha": "9/10"}]
    used, fresh = div(spec), div(spec)
    used.step_data, used.grading, used.support_equation
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


def test_a_reduced_divisor_is_its_own_periodic_reduction():
    # With every alpha <= 1, B is D itself and shares what D keeps.
    for d in (CUSP, div([{"f": "x", "alpha": "1"}, {"f": "y^2+x^3", "alpha": "2/5"}])):
        b, twist = periodic_reduce(d)
        assert b is d and twist == Polynomial.one(XY)
        assert classify(d).reduced is d
    b, twist = periodic_reduce(SNC)
    assert b is not SNC and b.alphas == (F(1, 2), F(1, 2))
    assert classify(SNC).reduced is not SNC


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
    res = HodgeIdealResult(k=1, ideal=spanned_by(XY, ["x", "y"]),
                           provenance=Provenance(statement="seed"))
    b, twist = periodic_reduce(div([{"f": "x", "alpha": "1/2"}]))
    assert apply_twist(twist, res) is res
    b, twist = periodic_reduce(div([{"f": "x", "alpha": "5/2"}]))
    twisted = apply_twist(twist, res)
    assert twisted.ideal.equals(spanned_by(XY, ["x^3", "x^2 y"]))
    assert twisted.provenance == Provenance(statement="seed", twist=twist)
    assert twisted.notes == "seed; integral twist x^2 applied"


def test_notes_word_each_fact_of_the_provenance_in_one_order():
    one = Ideal.unit(XY)
    twist = parse_polynomial("x^2", XY)
    closed = Provenance(statement="a formula", twist=twist, caller=("I_0", "certificate"),
                        used_vars=("x",))
    assert HodgeIdealResult(k=2, ideal=one, method="snc", provenance=closed).notes == (
        "a formula; integral twist x^2 applied; "
        "I_0 supplied by caller not used: the snc closed form is exact at every level; "
        "certificate supplied by caller not used: the snc closed form is exact at every level; "
        "computed over the variables x actually used and extended back (smooth pullback)")
    chain = Provenance(source="user-asserted", level=1, k0=0, caller=("I_0",))
    assert HodgeIdealResult(k=0, ideal=one, provenance=chain).notes == (
        "derivation-closure chain from k0=0; certificate user-asserted level 1; "
        "I_0 supplied by caller (trusted)")
    assert HodgeIdealResult(k=1, ideal=one, provenance=chain).notes == (
        "lower bound only: the first step, at index 0, is below certificate level 1 "
        "(user-asserted); the true ideal contains this one; I_0 supplied by caller (trusted)")
    # A result with no chain facts is exact and has no notes.
    plain = HodgeIdealResult(k=1, ideal=one)
    assert plain.exact and plain.notes == ""


def test_apply_twist_multiplies_the_reduced_basis_without_new_generators(groebner_inputs):
    spanned = spanned_by(XY, ["x^2 + y", "x y - 1"])
    res = HodgeIdealResult(k=1, ideal=Ideal.from_basis(XY, spanned.groebner()))
    twist = parse_polynomial("x y + y^2", XY)
    known = tuple(twist * g for g in res.ideal.generators)
    groebner_inputs.clear()
    twisted = apply_twist(twist, res)
    # The twisted ideal keeps its reduced basis: asking again computes nothing.
    assert twisted.ideal.groebner() == twisted.ideal.generators
    assert groebner_inputs == [((), known)]
    assert twisted.ideal.equals(Ideal(XY, known))


def test_twist_contains_every_unprimed_result():
    for d, k in ((SNC, 0), (SNC, 2), (div([{"f": "x", "alpha": "5/2"}]), 1)):
        from hodgeideals import compute_chain
        res = compute_chain(d, k)[k]
        twist_ideal = Ideal.principal(twist_polynomial(d))
        assert twist_ideal.contains_ideal(res.ideal)


def test_validate_clean_snc():
    assert div([{"f": "x", "alpha": "1"}, {"f": "y", "alpha": "1"}]).assumptions == ()


def test_divisor_refuses_proportional_components():
    with pytest.raises(ValueError, match="the support is not reduced"):
        div([{"f": "x", "alpha": "1"}, {"f": "2x", "alpha": "1"}])
    with pytest.raises(ValueError, match=r"components 0 and 1 are proportional \(x \+ y ~ "):
        div([{"f": "x+y", "alpha": "1"}, {"f": "-3x-3y", "alpha": "1/2"}])


def test_divisor_refuses_monomial_powers():
    with pytest.raises(ValueError, match="multiply to x\\^3, which is not squarefree"):
        div([{"f": "x", "alpha": "1"}, {"f": "x^2", "alpha": "1/2"}])


def test_validate_assumes_only_what_is_not_decided():
    mixed = div([{"f": "x", "alpha": "1"}, {"f": "y", "alpha": "1/2"},
                 {"f": "x+y+x*y", "alpha": "1/3"}])
    assert mixed.assumptions == (
        "pairwise coprimality of components 0 and 2 is assumed (unverified)",
        "pairwise coprimality of components 1 and 2 is assumed (unverified)",
        "squarefreeness of component 2 (x*y + x + y) is assumed (unverified)",
    )


def test_validate_decides_linear_components():
    # A linear form is irreducible, and QDivisor refuses two proportional
    # ones, so linear components are squarefree and pairwise coprime.
    assert div([{"f": "2*x+y", "alpha": "3/2"}]).assumptions == ()
    assert div([{"f": "x-y", "alpha": "1/2"}, {"f": "x+y", "alpha": "1/2"},
                {"f": "x", "alpha": "1/3"}]).assumptions == ()
    assert div([{"f": "x+y", "alpha": "1/2"},
                {"f": "x^2+y^3+x*y^2", "alpha": "1/2"}]).assumptions == (
        "pairwise coprimality of components 0 and 1 is assumed (unverified)",
        "squarefreeness of component 1 (x*y^2 + y^3 + x^2) is assumed (unverified)",
    )


def test_validate_records_unverified_squarefreeness():
    # x^2 + y^3 + x*y^2 has no grading, and its Hessian is degenerate at
    # the origin, so nothing decides that it is squarefree.
    warnings = div([{"f": "x^2+y^3+x*y^2", "alpha": "1/2"}]).assumptions
    assert any("squarefree" in w.lower() for w in warnings)


def test_a_grading_decides_squarefreeness_and_coprimality():
    # A zero-dimensional Jacobian ideal in n >= 2 variables leaves no room
    # for a repeated factor h, whose V(h) would lie in V(dg).
    assert CUSP.assumptions == ()
    d = div([{"f": "x", "alpha": "1/2"}, {"f": "x^2+y^3", "alpha": "1/3"}])
    assert d.grading is not None and d.assumptions == ()
    # A free variable makes the Jacobian ideal positive-dimensional.
    cylinder = div([{"f": "x^2+y^3", "alpha": "1/2"}], ("x", "y", "z"))
    assert cylinder.grading is None
    assert cylinder.assumptions == (
        "squarefreeness of component 0 (y^3 + x^2) is assumed (unverified)",)


def test_a_nodal_curve_decides_squarefreeness_and_coprimality():
    # A repeated factor h would put the curve V(h) in V(g, dg) with a
    # degenerate Hessian, which the node test refutes.
    line_and_circle = div([{"f": "x*(x^2+y^2-1)", "alpha": "1/2"}])
    assert line_and_circle.grading is None and line_and_circle.nodal
    assert line_and_circle.assumptions == ()
    assert div([{"f": "x+y", "alpha": "1/2"}, {"f": "x*y+1", "alpha": "1/3"}]).assumptions == ()
    assert not div([{"f": "x^2+y^3+x*y^2", "alpha": "1/2"}]).nodal
    assert not div([{"f": "x*y*z+1", "alpha": "1/2"}], ("x", "y", "z")).nodal


def test_a_cylinder_over_its_used_variables_keeps_no_fact_of_the_support():
    cylinder = div([{"f": "x^2+y^3", "alpha": "9/10"}, {"f": "x", "alpha": "1/2"}],
                   ("x", "y", "z"))
    small = cylinder._over(XY)
    built = QDivisor(XY, tuple((f.extend(XY), alpha) for f, alpha in cylinder.components))
    assert small.vars == built.vars and small.components == built.components
    assert small._support is not cylinder._support
    # z is free in the ambient, so the support has a grading only over x, y.
    assert cylinder.grading is None and "grading" not in small._support
    assert small.grading == (3, 2) and cylinder.grading is None


def test_divisor_rejects_bad_components():
    one = parse_polynomial("1", XY)
    x = parse_polynomial("x", XY)
    with pytest.raises(ValueError):
        QDivisor(XY, ((one, F(1)),))
    with pytest.raises(ValueError):
        QDivisor(XY, ((x, F(0)),))
    with pytest.raises(ValueError):
        QDivisor(XY, ())
