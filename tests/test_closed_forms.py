"""Closed-form regimes: smooth, SNC, ordinary, nodal, quasi-homogeneous."""

import json
from fractions import Fraction as F
from itertools import product as iproduct
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hodgeideals import (
    Ideal,
    OrdinarySingularityModel,
    Polynomial,
    classify,
    compute_chain,
    generation_level,
    ordinary_ideal,
    parse_divisor,
    parse_polynomial,
    periodic_reduce,
    smooth_support_ideal,
    snc_hodge_ideal,
)
from hodgeideals.closed_forms import (
    diagonal_exponents,
    diagonal_multiplier_i0,
    ordinary_triviality,
)
from hodgeideals.poly import infer_weights

from helpers import is_unit, m_power, monomial, spanned_by
from oracles import newton_multiplier_monomials

XY = ("x", "y")
XYZ = ("x", "y", "z")


def div(components, variables=XY):
    return parse_divisor({"vars": list(variables), "components": components})


def snc_reduced_ideal(r, k, variables):
    """I_k of the reduced SNC divisor x_1 * ... * x_r inside Q[variables]."""
    d = div([{"f": name, "alpha": "1"} for name in variables[:r]], variables)
    return snc_hodge_ideal(classify(d), k).ideal


# -- smooth supports -----------------------------------------------------------

def test_smooth_reduced_fraction_is_trivial():
    res = smooth_support_ideal(classify(div([{"f": "x", "alpha": "1/2"}])), 3)
    assert res.exact and is_unit(res.ideal)


def test_smooth_twist():
    res = smooth_support_ideal(classify(div([{"f": "x", "alpha": "3/2"}])), 0)
    assert res.ideal.equals(spanned_by(XY, ["x"]))


def test_smooth_integral_reduced():
    res = smooth_support_ideal(classify(div([{"f": "x", "alpha": "1"}])), 5)
    assert is_unit(res.ideal)


def test_linear_form_smoothness_validated_without_note():
    res = smooth_support_ideal(classify(div([{"f": "x + y", "alpha": "1/2"}])), 1)
    assert res.notes == "smooth support"


def test_smooth_wants_a_linear_form():
    assert smooth_support_ideal(classify(div([{"f": "1 + x^2 + y^2", "alpha": "1/2"}])), 1) \
        is None


# -- SNC monomial generators ------------------------------------------------------

def test_snc_reduced_examples():
    assert snc_reduced_ideal(2, 1, XY).equals(spanned_by(XY, ["x", "y"]))
    assert snc_reduced_ideal(2, 2, XY).equals(spanned_by(XY, ["x^2", "x y", "y^2"]))
    assert snc_reduced_ideal(3, 1, XYZ).equals(spanned_by(XYZ, ["x y", "x z", "y z"]))
    for k in range(4):
        assert is_unit(snc_reduced_ideal(1, k, XY))


def test_snc_reduced_matches_maximal_powers_on_surfaces():
    for k in range(7):
        assert snc_reduced_ideal(2, k, XY).equals(m_power(XY, k))


def test_snc_reduced_contains_full_product_power():
    for r, variables in ((2, XY), (3, XYZ)):
        prod = Polynomial.one(variables)
        for name in variables[:r]:
            prod = prod * Polynomial.variable(variables, name)
        for k in range(5):
            assert snc_reduced_ideal(r, k, variables).groebner().contains(prod ** k)


def test_snc_chain_inclusion():
    for r, variables in ((2, XY), (3, XYZ)):
        prod = Polynomial.one(variables)
        for name in variables[:r]:
            prod = prod * Polynomial.variable(variables, name)
        for k in range(1, 5):
            smaller = prod * snc_reduced_ideal(r, k - 1, variables)
            assert snc_reduced_ideal(r, k, variables).contains_ideal(smaller)


def test_snc_hodge_examples():
    r = classify(div([{"f": "x", "alpha": "3/2"}, {"f": "y", "alpha": "1/2"}]))
    assert snc_hodge_ideal(r, 0).ideal.equals(spanned_by(XY, ["x"]))
    r = classify(div([{"f": "x", "alpha": "1/2"}, {"f": "y", "alpha": "1/2"}]))
    assert snc_hodge_ideal(r, 1).ideal.equals(spanned_by(XY, ["x", "y"]))
    r = classify(div([{"f": "x", "alpha": "1"}, {"f": "y", "alpha": "1"}]))
    assert snc_hodge_ideal(r, 2).ideal.equals(m_power(XY, 2))


def test_snc_hodge_wants_coordinates():
    assert snc_hodge_ideal(classify(div([{"f": "x + y", "alpha": "1/2"}])), 1) is None


# -- ordinary singularities ----------------------------------------------------------

def test_ordinary_examples():
    res = ordinary_ideal(OrdinarySingularityModel(3, 2, F(3, 4)), 1, XYZ)
    assert res.exact and res.ideal.equals(m_power(XYZ, 1))
    res = ordinary_ideal(OrdinarySingularityModel(3, 2, F(1, 2)), 1, XYZ)
    assert res.exact and is_unit(res.ideal)
    res = ordinary_ideal(OrdinarySingularityModel(2, 2, F(1)), 1, XY)
    assert res.exact and res.ideal.equals(m_power(XY, 1))


def test_ordinary_no_closed_form_marker():
    assert ordinary_ideal(OrdinarySingularityModel(2, 3, F(1)), 1, XY) is None


def test_ordinary_k0_matches_multiplier_ideal_rule():
    for n, m in ((2, 3), (3, 2), (3, 3), (4, 3)):
        variables = ("x", "y", "z", "w")[:n]
        for alpha in (F(1, 4), F(1, 2), F(3, 4), F(9, 10), F(1)):
            res = ordinary_ideal(OrdinarySingularityModel(n, m, alpha), 0, variables)
            assert res.exact
            e = -(-(alpha * m).numerator // (alpha * m).denominator) - n  # ceil - n
            assert res.ideal.equals(m_power(variables, e))


def test_ordinary_triviality_boundary_is_sharp():
    grid = [F(1, 4), F(1, 2), F(3, 4), F(1), F(5, 6), F(2, 3), F(9, 10)]
    for n, m, k in iproduct((2, 3, 4), (2, 3), (0, 1, 2)):
        variables = ("x", "y", "z", "w")[:n]
        for alpha in grid:
            model = OrdinarySingularityModel(n, m, alpha)
            res = ordinary_ideal(model, k, variables)
            expected_trivial = m * (k + alpha) <= n
            assert ordinary_triviality(model, k) == expected_trivial
            if res is not None:
                assert is_unit(res.ideal) == expected_trivial
            else:
                assert not expected_trivial


def test_ordinary_rejects_smooth_multiplicity():
    with pytest.raises(ValueError):
        OrdinarySingularityModel(3, 1, F(1, 2))


# -- nodes ------------------------------------------------------------------------------

def node(k, alpha):
    return ordinary_ideal(OrdinarySingularityModel(2, 2, alpha), k, XY)


def test_node_examples():
    assert is_unit(node(0, F(1, 2)).ideal)
    assert node(2, F(1)).ideal.equals(spanned_by(XY, ["x^2", "x y", "y^2"]))
    assert node(4, F(3, 4)).ideal.equals(m_power(XY, 4))
    assert "level 0" in node(1, F(1)).notes


# -- quasi-homogeneous data ----------------------------------------------------------------

def alpha_tilde(text, variables):
    """Minimal exponent of a quasi-homogeneous isolated singularity: the
    sum of the inferred weights."""
    return sum(infer_weights(parse_polynomial(text, variables)), F(0))


def test_alpha_tilde_triple_lines():
    assert alpha_tilde("x y (x + y)", XY) == F(2, 3)


def test_alpha_tilde_cusp():
    assert alpha_tilde("x^2 + y^3", XY) == F(5, 6)


def test_alpha_tilde_cone_matches_n_over_m():
    assert alpha_tilde("x^2 + y^2 + z^2", XYZ) == F(3, 2) == F(3) / 2


def test_generation_level_examples():
    assert generation_level(2, F(2, 3), F(1, 4)) == 1
    assert generation_level(2, F(5, 6), F(9, 10)) == 0
    assert generation_level(3, F(3, 2), F(3, 4)) == 0


def test_generation_level_clamps():
    assert generation_level(3, F(1, 10), F(1, 10)) == 2  # floor = 2.8 -> 2 = n-1
    assert generation_level(2, F(3, 2), F(1)) == 0  # floor negative -> 0


def test_generation_level_zero_when_alpha_sum_large():
    for n in (2, 3):
        for tilde, alpha in ((F(n) - F(1, 2), F(3, 4)), (F(n), F(1))):
            if tilde + alpha > n - 1:
                assert generation_level(n, tilde, alpha) == 0


@given(st.integers(2, 5),
       st.builds(F, st.integers(1, 40), st.integers(1, 12)),
       st.builds(F, st.integers(1, 12), st.integers(1, 12)))
def test_generation_level_clamp_property(n, tilde, alpha):
    level = generation_level(n, tilde, alpha)
    assert 0 <= level <= n - 1
    if tilde + alpha > n - 1:
        assert level == 0


def test_infer_weights():
    assert infer_weights(parse_polynomial("x^2 + y^3", XY)) == (F(1, 2), F(1, 3))
    assert infer_weights(parse_polynomial("x y (x+y)", XY)) == (F(1, 3), F(1, 3))
    assert infer_weights(parse_polynomial("x y", XY)) is None  # underdetermined
    assert infer_weights(parse_polynomial("x y z", XYZ)) is None
    assert infer_weights(parse_polynomial("x^2 + x", XY)) is None  # inconsistent


# -- diagonal multiplier ideals vs the Newton oracle ------------------------------------------

def test_diagonal_exponent_detection():
    assert diagonal_exponents(parse_polynomial("x^2 + y^3", XY)) == (2, 3)
    assert diagonal_exponents(parse_polynomial("x^2 + y^2 + z^2", XYZ)) == (2, 2, 2)
    assert diagonal_exponents(parse_polynomial("x y", XY)) is None
    assert diagonal_exponents(parse_polynomial("x^2 + x y + y^2", XY)) is None


def _catalog_diagonal_alphas():
    """{(exponents, variables): alphas} of every diagonal support among
    the recursion chains of the benchmark catalog."""
    catalog = json.loads((Path(__file__).parents[1] / "perfbench" / "catalog.json").read_text())
    alphas = {}
    for entry in catalog["recursion"].values():
        variables = ("x", "y", "z")[:entry["f"].count("+") + 1]
        exponents = diagonal_exponents(parse_polynomial(entry["f"], variables))
        if exponents is not None:
            alphas.setdefault((exponents, variables), set()).add(F(entry["alpha"]))
    return alphas


# Beyond the five fixed alphas: the catalog's, and for a 4-variable
# diagonal (sum 1/d_i = 19/20) values on both sides of its threshold.
EXTRA_ALPHAS = _catalog_diagonal_alphas()
EXTRA_ALPHAS[((3, 4, 5, 6), ("x", "y", "z", "w"))] = {F(19, 20), F(29, 30)}


@pytest.mark.parametrize("exponents,variables", [
    ((2, 3), XY), ((2, 2), XY), ((2, 2, 2), XYZ), ((3, 3, 3), XYZ),
] + sorted(EXTRA_ALPHAS))
def test_diagonal_i0_matches_newton_oracle(exponents, variables):
    eps = F(1, 1000)
    alphas = {F(1, 2), F(3, 4), F(5, 6), F(9, 10), F(1)}
    for alpha in sorted(alphas | EXTRA_ALPHAS.get((exponents, variables), set())):
        computed = diagonal_multiplier_i0(exponents, alpha, variables)
        expected_monos = newton_multiplier_monomials(exponents, (1 - eps) * alpha)
        expected = Ideal(variables, [monomial(variables, w)
                                     for w in sorted(expected_monos)])
        assert computed.equals(expected)


def test_diagonal_i0_cusp_values():
    assert is_unit(diagonal_multiplier_i0((2, 3), F(4, 5), XY))
    assert is_unit(diagonal_multiplier_i0((2, 3), F(5, 6), XY))
    assert diagonal_multiplier_i0((2, 3), F(9, 10), XY).equals(
        spanned_by(XY, ["x", "y"]))


def test_diagonal_i0_cone_matches_power_rule():
    for m, n, variables in ((2, 3, XYZ), (3, 3, XYZ), (3, 2, XY)):
        for alpha in (F(1, 2), F(3, 4), F(9, 10), F(1)):
            computed = diagonal_multiplier_i0((m,) * n, alpha, variables)
            e = -(-(alpha * m).numerator // (alpha * m).denominator) - n
            assert computed.equals(m_power(variables, e))


# -- regime classification ---------------------------------------------------------------------

def _components(*pairs):
    return [{"f": f, "alpha": a} for f, a in pairs]


# (components, variables, expected fields; unlisted facts are False/None)
CLASSIFY_TABLE = [
    ("linear form", _components(("x + 2*y", "1/2")), XY,
     dict(linear=True, diagonal=(1, 1), alpha=F(1, 2))),
    ("coordinate SNC", _components(("x", "3/2"), ("y", "1/2")), XY,
     dict(positions=(0, 1), monomial=True, alpha=F(1, 2), twist="x")),
    ("monomial x*y", _components(("x*y", "1")), XY,
     dict(monomial=True, alpha=F(1))),
    ("cusp", _components(("x^2+y^3", "9/10")), XY,
     dict(diagonal=(2, 3), alpha=F(9, 10))),
    ("cone", _components(("x^2+y^2+z^2", "3/4")), XYZ,
     dict(diagonal=(2, 2, 2), alpha=F(3, 4),
          ordinary=OrdinarySingularityModel(3, 2, F(3, 4)))),
    ("node", _components(("x^2+x*y+y^2", "1/2")), XY, dict(alpha=F(1, 2))),
    ("two alphas", _components(("x", "1/2"), ("y", "1/3")), XY,
     dict(positions=(0, 1), monomial=True)),
    ("certify-parse exit 3", _components(("x^2*y+5*y^3", "1/2")), XY, dict(alpha=F(1, 2))),
]


@pytest.mark.parametrize("name,components,variables,expected", CLASSIFY_TABLE,
                         ids=[row[0] for row in CLASSIFY_TABLE])
def test_classify_table(name, components, variables, expected):
    d = div(components, variables)
    r = classify(d)
    facts = dict(linear=False, positions=None, monomial=False, diagonal=None, alpha=None,
                 ordinary=None, twist="1")
    facts.update(expected)
    twist = facts.pop("twist")
    assert {key: getattr(r, key) for key in facts} == facts
    assert r.twist == parse_polynomial(twist, variables)
    assert r.divisor == d
    assert (r.reduced, r.twist) == periodic_reduce(d)


def test_chain_computes_the_twist_once(twist_calls):
    xyzw = ("x", "y", "z", "w")
    compute_chain(div(_components(*((v, "3/2") for v in xyzw)), xyzw), 4)
    assert len(twist_calls) == 1
    twist_calls.clear()
    compute_chain(div(_components(("x + y", "5/2"))), 3)
    assert len(twist_calls) == 1


def test_classify_without_seed_regime_runs_no_groebner_basis(groebner_calls):
    from hodgeideals import MethodUnavailableError
    for text in ("x^2*y+5*y^3", "x^2+x*y+y^2"):
        with pytest.raises(MethodUnavailableError, match="no computable I_0"):
            compute_chain(div(_components((text, "1/2"))), 2)
    assert groebner_calls == []
