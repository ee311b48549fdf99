"""Derivation-closure step, chains, seeds, and exactness accounting."""

from fractions import Fraction as F
from itertools import product as iproduct

import pytest

from hodgeideals import (
    GenerationCertificate,
    Ideal,
    OrdinarySingularityModel,
    certificate_for,
    classify,
    derivation_step,
    hodge_chain,
    i0_seed,
    ordinary_ideal,
    parse_divisor,
    parse_polynomial,
    periodic_reduce,
    snc_hodge_ideal,
    support,
)
from hodgeideals.recursion import SeedUnavailableError, _dlog_numerators

XY = ("x", "y")
XYZ = ("x", "y", "z")
ALPHAS = (F(1, 4), F(1, 2), F(3, 4), F(1))


def div(components, variables=XY):
    return parse_divisor({"vars": list(variables), "components": components})


def ideal(*texts, variables=XY):
    return Ideal.spanned_by(variables, texts)


def cusp(alpha, variables=XY):
    return div([{"f": "x^2+y^3", "alpha": str(alpha)}], variables)


# -- the step on golden instances ------------------------------------------------

def test_step_cusp_level_zero():
    out = derivation_step(ideal("x", "y"), cusp("9/10"), 0)
    assert out.equals(ideal("x^2", "x y", "y^3"))


def test_step_cusp_level_one_parametric_generator():
    out = derivation_step(ideal("x^2", "x y", "y^3"), cusp("3/4"), 1)
    assert out.equals(ideal("x^3", "x^2 y^2", "x y^3", "y^4 - 5/2 x^2 y"))


def test_step_snc_product_matches_closed_form():
    d = div([{"f": "x y", "alpha": "3/4"}])
    out = derivation_step(Ideal.unit(XY), d, 0)
    assert out.equals(ideal("x", "y"))
    snc = div([{"f": "x", "alpha": "3/4"}, {"f": "y", "alpha": "3/4"}])
    assert out.equals(snc_hodge_ideal(snc, 1).ideal)


def test_step_cone_matches_ordinary():
    d = div([{"f": "x^2+y^2+z^2", "alpha": "3/4"}], XYZ)
    out = derivation_step(Ideal.unit(XYZ), d, 0)
    assert out.equals(Ideal.spanned_by(XYZ, ["x", "y", "z"]))
    assert out.equals(ordinary_ideal(OrdinarySingularityModel(3, 2, F(3, 4)), 1).ideal)


def test_step_requires_reduced_regime():
    with pytest.raises(ValueError):
        derivation_step(Ideal.unit(XY), div([{"f": "x", "alpha": "3/2"}]), 0)


def test_step_monotone_over_g_times_input():
    cases = [
        (ideal("x", "y"), cusp("9/10"), 0),
        (ideal("x^2", "x y", "y^3"), cusp("1"), 1),
        (Ideal.unit(XY), div([{"f": "x y", "alpha": "1/2"}]), 0),
        (Ideal.spanned_by(XYZ, ["x", "y", "z"]),
         div([{"f": "x^2+y^2+z^2", "alpha": "1/4"}], XYZ), 1),
    ]
    for i, d, k in cases:
        g = support(d)
        assert derivation_step(i, d, k).contains_ideal(g * i)


def test_reduced_single_factor_specialization():
    # for one reduced component the log-derivative term collapses so the
    # step generators are exactly g*dw - (k + alpha)*w*dg
    alpha = F(9, 10)
    d = cusp(alpha)
    g = support(d)
    dlog = _dlog_numerators(d)
    for ell in range(2):
        assert dlog[ell] == alpha * g.diff(ell)
    w = parse_polynomial("x y", XY)
    k = 1
    raw = g * w.diff(0) - F(k) * w * g.diff(0) - w * dlog[0]
    collapsed = g * w.diff(0) - (F(k) + alpha) * w * g.diff(0)
    assert raw == collapsed


# -- seeds -------------------------------------------------------------------------

def test_seed_snc_twist():
    d = div([{"f": "x", "alpha": "3/2"}, {"f": "y", "alpha": "1/2"}])
    # the seed is I_0(B) of B = x^(1/2) y^(1/2); hodge_chain applies the twist x
    res = i0_seed(classify(d))
    assert res.exact and res.ideal.is_unit()


def test_seed_cusp_above_threshold():
    res = i0_seed(classify(cusp("9/10")))
    assert res.ideal.equals(ideal("x", "y"))


def test_seed_cusp_log_canonical():
    res = i0_seed(classify(cusp("4/5")))
    assert res.ideal.is_unit()


def test_seed_monomial_node():
    res = i0_seed(classify(div([{"f": "x y", "alpha": "1"}])))
    assert res.ideal.is_unit()


def test_seed_unavailable():
    with pytest.raises(SeedUnavailableError):
        i0_seed(classify(div([{"f": "x^2 + x y + y^2", "alpha": "1/2"}])))


def test_seed_user_supplied():
    custom = ideal("x", "y^2")
    res = i0_seed(classify(div([{"f": "x^2 + x y + y^2", "alpha": "1/2"}])), user_ideal=custom)
    assert res.ideal.equals(custom)
    assert "trusted" in res.notes


# -- certificates -------------------------------------------------------------------

def test_certificate_sources():
    assert certificate_for(classify(cusp("9/10"))) == \
        GenerationCertificate(0, "quasihomogeneous-formula")
    assert certificate_for(classify(div([{"f": "x y", "alpha": "1/2"}]))) == \
        GenerationCertificate(0, "node-example")
    assert certificate_for(classify(div([{"f": "x y z", "alpha": "1/2"}], XYZ))) == \
        GenerationCertificate(2, "universal-bound")


def test_certificate_triple_lines_level_one():
    d = div([{"f": "x y (x + y)", "alpha": "1/4"}])
    assert certificate_for(classify(d)) == GenerationCertificate(1, "quasihomogeneous-formula")


def test_certificate_cone_small_alpha():
    d = div([{"f": "x^2+y^2+z^2", "alpha": "1/4"}], XYZ)
    assert certificate_for(classify(d)) == GenerationCertificate(1, "quasihomogeneous-formula")


def test_certificate_triple_lines_level_boundary():
    # three lines through the origin: level 1 exactly for alpha <= 1/3,
    # the surface case where level 0 fails
    for alpha, level in ((F(1, 4), 1), (F(1, 3), 1), (F(1, 3) + F(1, 100), 0), (F(1), 0)):
        d = div([{"f": "x y (x + y)", "alpha": str(alpha)}])
        assert certificate_for(classify(d)).level == level


def test_triple_lines_chain_below_level_is_lower_bound():
    # the optimal-generation-level caveat: on a surface the filtration
    # need not be generated at level 0, and the chain must say so
    from hodgeideals.divisor import HodgeIdealResult
    d = div([{"f": "x y (x + y)", "alpha": "1/4"}])
    seed = HodgeIdealResult(k=0, ideal=Ideal.unit(XY), exact=True, method="recursion")
    r = classify(d)
    chain = hodge_chain(r, 1, seed, certificate_for(r))
    assert chain.exact_boundary == 1
    assert not chain.result(1).exact
    g = support(d)
    assert chain.ideal(1).contains_ideal(Ideal.principal(g))


# -- chains --------------------------------------------------------------------------

def _cusp_parametric_i2(alpha):
    coeff = 2 * alpha + 1
    return Ideal(XY, (parse_polynomial("x^3", XY),
                      parse_polynomial("x^2 y^2", XY),
                      parse_polynomial("x y^3", XY),
                      parse_polynomial("y^4", XY) - coeff * parse_polynomial("x^2 y", XY)))


def _seed_xy():
    from hodgeideals.divisor import HodgeIdealResult
    return HodgeIdealResult(k=0, ideal=ideal("x", "y"), exact=True, method="recursion")


def test_chain_cusp_golden_from_stated_seed():
    # seeded from (x, y) with a level-0 certificate, the chain reproduces
    # the parametric ideals at each alpha sample
    for alpha in (F(81, 100), F(9, 10), F(1)):
        d = cusp(alpha)
        chain = hodge_chain(classify(d), 2, _seed_xy(), GenerationCertificate(0, "user-asserted"))
        assert chain.exact_boundary is None
        assert chain.ideal(0).equals(ideal("x", "y"))
        assert chain.ideal(1).equals(ideal("x^2", "x y", "y^3"))
        assert chain.ideal(2).equals(_cusp_parametric_i2(alpha))


def test_chain_cusp_true_seed_above_threshold():
    # above the log-canonical threshold 5/6 the recognized I_0 is (x, y)
    # and the full auto chain lands on the same golden ideals
    for alpha in (F(9, 10), F(1)):
        r = classify(cusp(alpha))
        chain = hodge_chain(r, 2, i0_seed(r), certificate_for(r))
        assert chain.exact_boundary is None
        assert chain.ideal(0).equals(ideal("x", "y"))
        assert chain.ideal(2).equals(_cusp_parametric_i2(alpha))


def test_chain_cusp_below_threshold_has_trivial_i0():
    # 81/100 < 5/6: the pair is log canonical, so the true seed is (1)
    r = classify(cusp(F(81, 100)))
    seed = i0_seed(r)
    assert seed.ideal.is_unit()
    chain = hodge_chain(r, 1, seed, certificate_for(r))
    assert chain.exact_boundary is None
    assert chain.ideal(1).equals(ideal("x", "y^2"))


def test_chain_node_maximal_powers():
    for alpha in (F(1, 2), F(1)):
        r = classify(div([{"f": "x y", "alpha": str(alpha)}]))
        chain = hodge_chain(r, 4, i0_seed(r), certificate_for(r))
        assert chain.exact_boundary is None
        assert chain.ideal(0).is_unit()
        for k in range(1, 5):
            assert chain.ideal(k).equals(Ideal.maximal_at_origin(XY) ** k)


def test_chain_cone_lower_bound_not_promoted():
    r = classify(div([{"f": "x^2+y^2+z^2", "alpha": "1/4"}], XYZ))
    cert = certificate_for(r)
    assert cert.level == 1
    chain = hodge_chain(r, 2, i0_seed(r), cert)
    assert chain.result(0).exact
    assert not chain.result(1).exact
    assert not chain.result(2).exact  # index 1 >= level, but the input was already a bound
    assert chain.exact_boundary == 1
    # the k=1 step undershoots the true trivial ideal but stays inside it
    truth = ordinary_ideal(OrdinarySingularityModel(3, 2, F(1, 4)), 1).ideal
    assert truth.is_unit()
    assert chain.ideal(1).equals(Ideal.maximal_at_origin(XYZ))
    assert truth.contains_ideal(chain.ideal(1))


def test_chain_applies_integral_twist():
    d = div([{"f": "x y", "alpha": "3/2"}])
    b, twist = periodic_reduce(d)
    r, rb = classify(d), classify(b)
    chain = hodge_chain(r, 2, i0_seed(r), certificate_for(r))
    inner = hodge_chain(rb, 2, i0_seed(rb), certificate_for(rb))
    for k in range(3):
        assert chain.ideal(k).equals(twist * inner.ideal(k))


def test_chain_rejects_inexact_seed():
    from hodgeideals.divisor import HodgeIdealResult
    bad = HodgeIdealResult(k=0, ideal=Ideal.unit(XY), exact=False)
    r = classify(cusp("9/10"))
    with pytest.raises(ValueError):
        hodge_chain(r, 1, bad, certificate_for(r))


# -- SNC lower-bound soundness grid ---------------------------------------------------

def _snc_divisor(variables, alphas):
    comps = [{"f": name, "alpha": str(a)} for name, a in zip(variables, alphas)]
    return div(comps, variables)


@pytest.mark.parametrize("r,variables", [(1, ("x",)), (2, XY), (3, XYZ)])
def test_snc_step_is_sound_and_exact_when_certified(r, variables):
    n = len(variables)
    for alphas in iproduct(ALPHAS, repeat=r):
        d = _snc_divisor(variables, alphas)
        for k in range(0, 3):
            current = snc_hodge_ideal(d, k).ideal
            step = derivation_step(current, d, k)
            target = snc_hodge_ideal(d, k + 1).ideal
            assert target.contains_ideal(step)
            same_alpha = len(set(alphas)) == 1
            certified = k >= n - 1 or (same_alpha and certificate_for(classify(d)).level <= k)
            if certified:
                assert step.equals(target)


# -- multiplicity growth on exact chains ----------------------------------------------

def test_multiplicity_growth_cusp_and_node():
    for d, m in ((cusp("9/10"), 2), (div([{"f": "x y", "alpha": "1"}]), 2)):
        r = classify(d)
        chain = hodge_chain(r, 3, i0_seed(r), certificate_for(r))
        for k in range(1, 4):
            prev, cur = chain.ideal(k - 1), chain.ideal(k)
            if prev.is_unit() and cur.is_unit():
                continue
            assert cur.order_at_origin() >= prev.order_at_origin() + (m - 1)


# -- parameter-sampling stability -------------------------------------------------------

def test_alpha_sampling_stability_for_cusp():
    samples = (F(4, 5) + F(1, 100), F(9, 10), F(1))
    for alpha in samples:
        d = cusp(alpha)
        chain = hodge_chain(classify(d), 2, _seed_xy(), GenerationCertificate(0, "user-asserted"))
        assert chain.ideal(2).equals(_cusp_parametric_i2(alpha))
