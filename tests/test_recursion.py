"""Derivation-closure step, chains, seeds, and exactness accounting."""

import json
import math
from fractions import Fraction as F
from itertools import product as iproduct

import pytest

from hodgeideals import (
    GRLEX,
    LEX,
    GenerationCertificate,
    Ideal,
    OrdinarySingularityModel,
    Polynomial,
    certificate_for,
    classify,
    compute_chain,
    derivation_step,
    graded_basis,
    groebner_basis,
    hodge_chain,
    i0_seed,
    ordinary_ideal,
    parse_divisor,
    parse_polynomial,
    periodic_reduce,
    snc_hodge_ideal,
)
from hodgeideals.compute import MethodUnavailableError
from hodgeideals.recursion import _grading

from helpers import is_unit, m_power, rows, spanned_by
from oracles import log_terms

XY = ("x", "y")
XYZ = ("x", "y", "z")
ALPHAS = (F(1, 4), F(1, 2), F(3, 4), F(1))


def div(components, variables=XY):
    return parse_divisor({"vars": list(variables), "components": components})


def ideal(*texts, variables=XY):
    return spanned_by(variables, texts)


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
    assert out.equals(snc_hodge_ideal(classify(snc), 1).ideal)


def test_step_cone_matches_ordinary():
    d = div([{"f": "x^2+y^2+z^2", "alpha": "3/4"}], XYZ)
    out = derivation_step(Ideal.unit(XYZ), d, 0)
    assert out.equals(spanned_by(XYZ, ["x", "y", "z"]))
    assert out.equals(ordinary_ideal(OrdinarySingularityModel(3, 2, F(3, 4)), 1, XYZ).ideal)


def test_step_pairs_only_the_derivative_generators(groebner_inputs):
    d = cusp("3/4")
    # A presentation that is not the reduced basis: the step reads the
    # reduced basis instead.  The input is not zero-dimensional, so the
    # step stays with the pair engine.
    given = ideal("x^2 + x y", "x y")
    basis = given.groebner().basis
    assert not given.is_zero_dimensional()
    d.isolated_weights  # decided once per divisor, before the step is recorded
    groebner_inputs.clear()
    out = derivation_step(given, d, 1)
    assert len(groebner_inputs) == 1
    generators, known = groebner_inputs[0]
    assert known == tuple(d.support_equation * w for w in basis)
    assert len(generators) == 2 * len(basis)
    assert out.equals(ideal("x^3", "x^2 y^2", "x y^3", "y^4 - 5/2 x^2 y"))


def test_step_requires_reduced_regime():
    with pytest.raises(ValueError):
        derivation_step(Ideal.unit(XY), div([{"f": "x", "alpha": "3/2"}]), 0)


def test_step_monotone_over_g_times_input():
    cases = [
        (ideal("x", "y"), cusp("9/10"), 0),
        (ideal("x^2", "x y", "y^3"), cusp("1"), 1),
        (Ideal.unit(XY), div([{"f": "x y", "alpha": "1/2"}]), 0),
        (spanned_by(XYZ, ["x", "y", "z"]),
         div([{"f": "x^2+y^2+z^2", "alpha": "1/4"}], XYZ), 1),
    ]
    for i, d, k in cases:
        g = d.support_equation
        assert derivation_step(i, d, k).contains_ideal(g * i)


def test_reduced_single_factor_specialization():
    # for one component h_l = (k + alpha)*d_l(g), so the step generators
    # are exactly g*dw - (k + alpha)*w*dg
    alpha = F(9, 10)
    d = cusp(alpha)
    g = d.support_equation
    for k in range(4):
        assert log_terms(d, k) == [(k + alpha) * g.diff(ell) for ell in range(2)]


def textbook_generators(basis, d, k):
    """g*d_l(w) - k*w*d_l(g) - w*(g*dlog)_l for each w and l, with the
    log-derivative numerator sum_i alpha_i*d_l(f_i)*prod_(j != i) f_j
    written out term by term."""
    g = d.support_equation
    gens = []
    for w in basis:
        for ell in range(len(d.vars)):
            g_dlog = Polynomial.zero(d.vars)
            for i, (f, alpha) in enumerate(d.components):
                cofactor = Polynomial.one(d.vars)
                for j, other in enumerate(d.factors):
                    if j != i:
                        cofactor = cofactor * other
                g_dlog = g_dlog + alpha * f.diff(ell) * cofactor
            gens.append(g * w.diff(ell) - k * (w * g.diff(ell)) - w * g_dlog)
    return gens


@pytest.mark.parametrize("d", [
    cusp("9/10"),
    div([{"f": "x", "alpha": "1/2"}, {"f": "y^2+x^3", "alpha": "3/4"}]),
    div([{"f": "x", "alpha": "1/3"}, {"f": "y", "alpha": "2/3"}, {"f": "z", "alpha": "1"}],
        XYZ),
    div([{"f": "x^2+y^2+z^2", "alpha": "3/4"}], XYZ),
], ids=["cusp", "line-and-cusp", "three-coordinates", "cone"])
def test_step_generators_are_the_textbook_operator(groebner_inputs, d):
    given = spanned_by(d.vars, ["x^2 + y", "x y"] if len(d.vars) == 2
                             else ["x + z^2", "y^2", "x y z"])
    basis = given.groebner().basis
    d.isolated_weights  # decided once per divisor, before the steps are recorded
    for k in range(4):
        groebner_inputs.clear()
        derivation_step(given, d, k)
        assert len(groebner_inputs) == 1
        generators, _ = groebner_inputs[0]
        assert list(generators) == textbook_generators(basis, d, k)


# -- the graded path -------------------------------------------------------------------

def step_generators(ideal, d, k):
    """g*w for each w in the reduced basis, then g*d_l(w) - w*h_l for each
    w and l: the inputs of one derivation step."""
    g, h = d.support_equation, log_terms(d, k)
    basis = ideal.groebner().basis
    return [g * w for w in basis] + \
        [g * w.diff(ell) - w * h[ell] for w in basis for ell in range(len(d.vars))]


def test_step_on_a_non_homogeneous_input_keeps_the_pair_engine(graded_calls):
    # The cusp qualifies, but (x^2 + y, x y) is not weighted-homogeneous.
    d = cusp("9/10")
    given = ideal("x^2 + y", "x y")
    assert d.isolated_weights is not None
    for k in range(4):
        out = derivation_step(given, d, k)
        assert out.groebner().basis == groebner_basis(step_generators(given, d, k))
    assert graded_calls == []


def _pair_engine_only(monkeypatch):
    import hodgeideals.recursion
    monkeypatch.setattr(hodgeideals.recursion, "_grading", lambda ideal, divisor: None)


def test_snc_under_forced_recursion_keeps_the_pair_engine(graded_calls, monkeypatch):
    # x*y has no unique weights.
    d = div([{"f": "x y", "alpha": "3/4"}])
    chain = compute_chain(d, 3, "recursion")
    assert graded_calls == []
    snc = classify(div([{"f": "x", "alpha": "3/4"}, {"f": "y", "alpha": "3/4"}]))
    for k, res in enumerate(chain):
        assert res.exact
        assert res.ideal.groebner().basis == snc_hodge_ideal(snc, k).ideal.groebner().basis
    _pair_engine_only(monkeypatch)
    assert [res.ideal.groebner().basis for res in compute_chain(d, 3, "recursion")] == \
        [res.ideal.groebner().basis for res in chain]


def test_compute_from_a_non_m_primary_seed_matches_the_pair_engine(
        graded_calls, monkeypatch, tmp_path, capsys):
    # I_0 = (x) is not zero-dimensional, so the first step keeps the pair
    # engine; its output is m-primary, and the two later steps go graded.
    from hodgeideals.cli import main
    path = tmp_path / "task.json"
    path.write_text(json.dumps({
        "vars": ["x", "y"], "divisor": {"components": [{"f": "x^2+y^3", "alpha": "9/10"}]},
        "task": "compute", "k": 3, "method": "recursion", "options": {"i0": ["x"]}}))
    assert main(["compute", str(path)]) == 0
    graded = capsys.readouterr().out
    assert len(graded_calls) == 2
    _pair_engine_only(monkeypatch)
    assert main(["compute", str(path)]) == 0
    assert capsys.readouterr().out == graded
    assert len(graded_calls) == 2


# The recursion chains of the benchmark catalog, (support, alpha, k), and
# the cone at alpha = 3/4 up to k = 10.
GRADED_CHAINS = [(f, alpha, k) for f, levels in (
    ("x^2+y^3", (("1/2", 3), ("1", 2), ("1", 4), ("5/6", 4), ("9/10", 4), ("9/10", 6))),
    ("x^2+y^4", (("1", 3), ("3/4", 5))),
    ("x^2+y^5", (("1", 5), ("2/3", 3))),
    ("x^2+y^7", (("1", 5), ("3/5", 2))),
    ("x^3+y^4", (("1/2", 2), ("1", 5), ("5/6", 4))),
    ("x^3+y^5", (("1", 3), ("1", 4), ("2/5", 2), ("7/8", 3))),
    ("x^2+y^2+z^2", (("1/2", 2), ("1", 3), ("3/4", 4), ("3/4", 10))),
    ("x^2+y^2+z^3", (("1", 3), ("2/3", 2))),
    ("x^2+y^3+z^5", (("1", 3), ("3/4", 2))),
) for alpha, k in levels]


# Chains whose support has rational coefficients or several components, so
# that the step scales g, h_l and w to integers before reducing them:
# (components, k).  The one with two components has no I_0 regime and
# starts from (1).
SCALED_GRADED_CHAINS = [
    ((("1/2*x^2 + 3/7*y^3", "5/6"),), 5),
    ((("2*x^2+1/5*y^3+z^5", "3/4"),), 3),
    ((("x", "1/3"), ("y^2+x^3", "2/5")), 4),
]


def _all_fractions(polys):
    return all(type(c) is F for p in polys for c in p.terms.values())


@pytest.mark.parametrize("components,k_max", [
    pytest.param(((f, alpha),), k, id=f"{f}-{alpha}-{k}") for f, alpha, k in GRADED_CHAINS
] + [
    pytest.param(components, k, id=" | ".join(f"{f}-{alpha}" for f, alpha in components)
                 + f"-{k}") for components, k in SCALED_GRADED_CHAINS
])
def test_graded_basis_is_the_pair_engine_basis_along_chains(components, k_max):
    variables = tuple(v for v in XYZ if any(v in f for f, _ in components))
    r = classify(div([{"f": f, "alpha": alpha} for f, alpha in components], variables))
    if len(components) == 1:
        current = i0_seed(r).ideal.canonical()
    else:
        current = Ideal.unit(variables)
    for k in range(k_max):
        grading = _grading(current, r.reduced)
        assert grading is not None
        gens = step_generators(current, r.reduced, k)
        graded, paired = graded_basis(rows(gens), variables, grading), groebner_basis(gens)
        assert graded == paired
        # An int among the coefficients would make normal_form's gc / nlc
        # a float division.
        assert _all_fractions(graded)
        by_rows, by_pairs = Ideal(variables, graded), Ideal(variables, paired)
        for order in (LEX, GRLEX):
            assert by_rows.groebner(order).basis == by_pairs.groebner(order).basis
        current = derivation_step(current, r.reduced, k)
        assert current.groebner().basis == graded
        assert _all_fractions(current.generators)


def full_check_grading(ideal, divisor):
    """The per-step grading decision, made in full on the step's input:
    weighted-homogeneous isolated g, and a reduced basis that is
    weighted-homogeneous and zero-dimensional or (1)."""
    weights = divisor.isolated_weights
    if weights is None:
        return None
    scale = math.lcm(*(w.denominator for w in weights))
    integral = [int(w * scale) for w in weights]
    grading = tuple(w // math.gcd(*integral) for w in integral)
    if all(w.weighted_degree(grading) is not None for w in ideal.groebner().basis) \
            and ideal.is_zero_dimensional():
        return grading
    return None


def engines_along_chain(monkeypatch, graded_calls, regime, k_max, seed):
    """(graded by the full check, graded by the step) for every step of
    ``hodge_chain`` from ``seed``."""
    import hodgeideals.recursion
    real, seen = hodgeideals.recursion.derivation_step, []

    def recorded(ideal, divisor, k):
        expected, before = full_check_grading(ideal, divisor) is not None, len(graded_calls)
        out = real(ideal, divisor, k)
        seen.append((expected, len(graded_calls) > before))
        return out

    monkeypatch.setattr(hodgeideals.recursion, "derivation_step", recorded)
    hodge_chain(regime, k_max, seed, certificate_for(regime))
    assert len(seen) == k_max - seed.k
    return seen


@pytest.mark.parametrize("f,alpha,k_max", GRADED_CHAINS)
def test_each_step_picks_the_engine_of_the_full_check(monkeypatch, graded_calls, f, alpha,
                                                      k_max):
    variables = tuple(v for v in XYZ if v in f)
    r = classify(div([{"f": f, "alpha": alpha}], variables))
    seen = engines_along_chain(monkeypatch, graded_calls, r, k_max, i0_seed(r))
    assert seen == [(True, True)] * k_max


@pytest.mark.parametrize("alpha,seed,expected", [
    # Graded from the third step on, once the output is homogeneous and m-primary.
    ("5/6", ["x + y^2", "x y"], [False, False, True, True, True]),
    # Never homogeneous: the pair engine at every step.
    ("9/10", ["x + y^2", "y^3"], [False] * 5),
])
def test_a_user_seed_that_is_not_homogeneous_picks_the_engine_of_the_full_check(
        monkeypatch, graded_calls, alpha, seed, expected):
    r = classify(cusp(alpha))
    user = i0_seed(r, ideal(*seed))
    seen = engines_along_chain(monkeypatch, graded_calls, r, 5, user)
    assert seen == [(e, e) for e in expected]


def test_a_chain_checks_its_input_only_until_a_step_is_graded(monkeypatch, graded_calls):
    # The seed (x, y) is checked; every later input is a graded step's output.
    r = classify(cusp("9/10"))
    seed, cert = i0_seed(r), certificate_for(r)  # the Jacobian check is done here
    real, checks = Ideal.is_zero_dimensional, []

    def counted(self):
        checks.append(self)
        return real(self)

    monkeypatch.setattr(Ideal, "is_zero_dimensional", counted)
    hodge_chain(r, 6, seed, cert)
    assert len(graded_calls) == 6
    assert len(checks) == 1 and checks[0].equals(ideal("x", "y"))


# -- seeds -------------------------------------------------------------------------

def test_seed_snc_twist():
    d = div([{"f": "x", "alpha": "3/2"}, {"f": "y", "alpha": "1/2"}])
    # the seed is I_0(B) of B = x^(1/2) y^(1/2); hodge_chain applies the twist x
    res = i0_seed(classify(d))
    assert res.exact and is_unit(res.ideal)


def test_seed_cusp_above_threshold():
    res = i0_seed(classify(cusp("9/10")))
    assert res.ideal.equals(ideal("x", "y"))


def test_seed_cusp_log_canonical():
    res = i0_seed(classify(cusp("4/5")))
    assert is_unit(res.ideal)


def test_seed_monomial_node():
    res = i0_seed(classify(div([{"f": "x y", "alpha": "1"}])))
    assert is_unit(res.ideal)


def test_seed_unavailable():
    with pytest.raises(MethodUnavailableError, match="no computable I_0"):
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


def test_certificate_needs_an_isolated_singularity():
    # x^3+y^3+xyz is weighted-homogeneous, but it is singular along the
    # whole z-axis, so the quasi-homogeneous formula does not apply.
    d = div([{"f": "x^3+y^3+x*y*z", "alpha": "1/2"}], XYZ)
    r = classify(d)
    cert = certificate_for(r)
    assert cert == GenerationCertificate(2, "universal-bound")
    # A chain seeded at k = 1 stays a lower bound at k = 2.
    from hodgeideals.divisor import HodgeIdealResult
    seed = HodgeIdealResult(k=1, ideal=Ideal.unit(XYZ), exact=True, method="recursion")
    assert not hodge_chain(r, 2, seed, cert).results[1].exact
    # The isolated Fermat cubic keeps the formula.
    fermat = div([{"f": "x^3+y^3+z^3", "alpha": "1/2"}], XYZ)
    assert certificate_for(classify(fermat)).source == "quasihomogeneous-formula"


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
    assert [res.exact for res in chain.results] == [True, False]
    assert not chain.results[1].exact
    g = d.support_equation
    assert chain.results[1].ideal.contains_ideal(Ideal.principal(g))


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
        assert all(res.exact for res in chain.results)
        assert chain.results[0].ideal.equals(ideal("x", "y"))
        assert chain.results[1].ideal.equals(ideal("x^2", "x y", "y^3"))
        assert chain.results[2].ideal.equals(_cusp_parametric_i2(alpha))


def test_chain_cusp_true_seed_above_threshold():
    # above the log-canonical threshold 5/6 the recognized I_0 is (x, y)
    # and the full auto chain lands on the same golden ideals
    for alpha in (F(9, 10), F(1)):
        r = classify(cusp(alpha))
        chain = hodge_chain(r, 2, i0_seed(r), certificate_for(r))
        assert all(res.exact for res in chain.results)
        assert chain.results[0].ideal.equals(ideal("x", "y"))
        assert chain.results[2].ideal.equals(_cusp_parametric_i2(alpha))


def test_chain_cusp_below_threshold_has_trivial_i0():
    # 81/100 < 5/6: the pair is log canonical, so the true seed is (1)
    r = classify(cusp(F(81, 100)))
    seed = i0_seed(r)
    assert is_unit(seed.ideal)
    chain = hodge_chain(r, 1, seed, certificate_for(r))
    assert all(res.exact for res in chain.results)
    assert chain.results[1].ideal.equals(ideal("x", "y^2"))


def test_chain_node_maximal_powers():
    for alpha in (F(1, 2), F(1)):
        r = classify(div([{"f": "x y", "alpha": str(alpha)}]))
        chain = hodge_chain(r, 4, i0_seed(r), certificate_for(r))
        assert all(res.exact for res in chain.results)
        assert is_unit(chain.results[0].ideal)
        for k in range(1, 5):
            assert chain.results[k].ideal.equals(m_power(XY, k))


def test_chain_cone_lower_bound_not_promoted():
    r = classify(div([{"f": "x^2+y^2+z^2", "alpha": "1/4"}], XYZ))
    cert = certificate_for(r)
    assert cert.level == 1
    chain = hodge_chain(r, 2, i0_seed(r), cert)
    assert chain.results[0].exact
    assert not chain.results[1].exact
    assert not chain.results[2].exact  # index 1 >= level, but the input was already a bound
    assert [res.exact for res in chain.results] == [True, False, False]
    # the k=1 step undershoots the true trivial ideal but stays inside it
    truth = ordinary_ideal(OrdinarySingularityModel(3, 2, F(1, 4)), 1, XYZ).ideal
    assert is_unit(truth)
    assert chain.results[1].ideal.equals(m_power(XYZ, 1))
    assert truth.contains_ideal(chain.results[1].ideal)


def test_chain_applies_integral_twist():
    d = div([{"f": "x y", "alpha": "3/2"}])
    b, twist = periodic_reduce(d)
    r, rb = classify(d), classify(b)
    chain = hodge_chain(r, 2, i0_seed(r), certificate_for(r))
    inner = hodge_chain(rb, 2, i0_seed(rb), certificate_for(rb))
    for k in range(3):
        assert chain.results[k].ideal.equals(twist * inner.results[k].ideal)


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
        regime = classify(d)
        for k in range(0, 3):
            current = snc_hodge_ideal(regime, k).ideal
            step = derivation_step(current, d, k)
            target = snc_hodge_ideal(regime, k + 1).ideal
            assert target.contains_ideal(step)
            same_alpha = len(set(alphas)) == 1
            certified = k >= n - 1 or (same_alpha and certificate_for(regime).level <= k)
            if certified:
                assert step.equals(target)


# -- multiplicity growth on exact chains ----------------------------------------------

def test_multiplicity_growth_cusp_and_node():
    for d, m in ((cusp("9/10"), 2), (div([{"f": "x y", "alpha": "1"}]), 2)):
        r = classify(d)
        chain = hodge_chain(r, 3, i0_seed(r), certificate_for(r))
        for k in range(1, 4):
            prev, cur = chain.results[k - 1].ideal, chain.results[k].ideal
            if is_unit(prev) and is_unit(cur):
                continue
            assert cur.order_at_origin() >= prev.order_at_origin() + (m - 1)


# -- parameter-sampling stability -------------------------------------------------------

def test_alpha_sampling_stability_for_cusp():
    samples = (F(4, 5) + F(1, 100), F(9, 10), F(1))
    for alpha in samples:
        d = cusp(alpha)
        chain = hodge_chain(classify(d), 2, _seed_xy(), GenerationCertificate(0, "user-asserted"))
        assert chain.results[2].ideal.equals(_cusp_parametric_i2(alpha))
