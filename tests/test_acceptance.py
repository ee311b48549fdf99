"""Acceptance criteria: one test per criterion, each printing a pass/fail
line and enforcing its stated time budget.  Run with ``pytest -s`` to see
the lines as they print.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction as F
from itertools import product as iproduct

from hodgeideals import (
    GenerationCertificate,
    Ideal,
    OrdinarySingularityModel,
    certificate_for,
    classify,
    compute_chain,
    hodge_chain,
    i0_seed,
    ordinary_ideal,
    parse_divisor,
    parse_polynomial,
    snc_hodge_ideal,
    triviality_certificate,
)
from hodgeideals.certificates import INCONCLUSIVE, TRIVIAL
from hodgeideals.closed_forms import ordinary_triviality
from hodgeideals.divisor import HodgeIdealResult
from hodgeideals.verify import (
    PASS,
    _generic_restriction_draws,
    check_chain_inclusions,
    check_multiplicity_bounds,
    check_restriction,
    cusp_resolution_data,
    report_ok,
    suite_product,
)

from helpers import is_unit, m_power, spanned_by
from oracles import linear_membership
from test_ideal import random_membership_instance

XY = ("x", "y")
XYZ = ("x", "y", "z")
ALPHAS = (F(1, 4), F(1, 2), F(3, 4), F(1))


@contextmanager
def criterion(number, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    if elapsed > budget_seconds:
        print(f"ACCEPTANCE {number} ({name}): FAIL (over {budget_seconds} s budget)")
        raise AssertionError(
            f"criterion {number} took {elapsed:.2f} s, budget {budget_seconds} s")
    print(f"ACCEPTANCE {number} ({name}): PASS")


def div(components, variables=XY):
    return parse_divisor({"vars": list(variables), "components": components})


def ideal(*texts, variables=XY):
    return spanned_by(variables, texts)


def cusp_chain(alpha, k_max=2):
    d = div([{"f": "x^2+y^3", "alpha": str(alpha)}])
    seed = HodgeIdealResult(k=0, ideal=ideal("x", "y"), exact=True, method="recursion")
    return d, hodge_chain(classify(d), k_max, seed, GenerationCertificate(0, "user-asserted"))


def cusp_parametric_i2(alpha):
    coeff = 2 * alpha + 1
    return Ideal(XY, (parse_polynomial("x^3", XY),
                      parse_polynomial("x^2 y^2", XY),
                      parse_polynomial("x y^3", XY),
                      parse_polynomial("y^4", XY) - coeff * parse_polynomial("x^2 y", XY)))


# -- 1. cusp golden test ---------------------------------------------------------

def test_criterion_1_cusp_golden():
    with criterion(1, "cusp golden chains", 3.0):
        for alpha in (F(81, 100), F(9, 10), F(1)):
            start = time.perf_counter()
            _, chain = cusp_chain(alpha)
            assert chain.results[1].ideal.equals(ideal("x^2", "x y", "y^3"))
            assert chain.results[2].ideal.equals(cusp_parametric_i2(alpha))
            assert all(res.exact for res in chain.results)
            assert time.perf_counter() - start < 1.0


# -- 2. node golden test -----------------------------------------------------------

def test_criterion_2_node_golden():
    with criterion(2, "node chains equal maximal-ideal powers", 1.0):
        for alpha in (F(1, 2), F(1)):
            r = classify(div([{"f": "x y", "alpha": str(alpha)}]))
            seed = i0_seed(r)
            assert is_unit(seed.ideal)
            chain = hodge_chain(r, 4, seed, certificate_for(r))
            for k in range(5):
                assert chain.results[k].exact
                assert chain.results[k].ideal.equals(m_power(XY, k))


# -- 3. SNC cross-validation ----------------------------------------------------------

def _snc_divisor(variables, alphas):
    return div([{"f": name, "alpha": str(a)} for name, a in zip(variables, alphas)],
               variables)


def test_criterion_3_snc_cross_validation():
    with criterion(3, "SNC closed form vs recursion", 10.0):
        for r, variables in ((2, XY), (3, XYZ)):
            n = len(variables)
            for alphas in iproduct(ALPHAS, repeat=r):
                d = _snc_divisor(variables, alphas)
                r = classify(d)
                closed = [snc_hodge_ideal(r, k) for k in range(4)]
                # chain-inclusion suite everywhere
                assert report_ok(check_chain_inclusions(closed, d))
                # recursion agrees wherever a generation-level certificate applies
                if len(set(alphas)) == 1:
                    cert = certificate_for(r)
                    if cert.level == 0:
                        chain = hodge_chain(r, 3, i0_seed(r), cert)
                        for k in range(4):
                            assert chain.results[k].exact
                            assert chain.results[k].ideal.equals(closed[k].ideal)
                # the universal level n-1 certifies the last step for every combo
                seed = HodgeIdealResult(k=n - 1, ideal=closed[n - 1].ideal,
                                        exact=True, method="snc")
                chain = hodge_chain(r, 3, seed, GenerationCertificate(n - 1,
                                                                      "universal-bound"))
                for k in range(n - 1, 4):
                    assert chain.results[k - (n - 1)].exact
                    assert chain.results[k - (n - 1)].ideal.equals(closed[k].ideal)


# -- 4. ordinary-singularity boundary ---------------------------------------------------

def test_criterion_4_ordinary_boundary():
    with criterion(4, "ordinary triviality boundary and cone recursion", 5.0):
        for n, m, k in iproduct((2, 3, 4), (2, 3), (0, 1, 2)):
            variables = ("x", "y", "z", "w")[:n]
            for alpha in ALPHAS:
                model = OrdinarySingularityModel(n, m, alpha)
                res = ordinary_ideal(model, k, variables)
                expected_trivial = m * (k + alpha) <= n
                assert ordinary_triviality(model, k) == expected_trivial
                if res is not None:
                    assert is_unit(res.ideal) == expected_trivial
                else:
                    assert not expected_trivial
        cone = classify(div([{"f": "x^2+y^2+z^2", "alpha": "3/4"}], XYZ))
        chain = hodge_chain(cone, 1, i0_seed(cone), certificate_for(cone))
        assert chain.results[1].exact
        assert chain.results[1].ideal.equals(m_power(XYZ, 1))


# -- 5. triviality certificate vs multiplier ideal ----------------------------------------

def test_criterion_5_certificate_threshold():
    with criterion(5, "resolution certificate flips at 5/6", 1.0):
        data = cusp_resolution_data()
        grid = [F(1, 4), F(1, 2), F(2, 3), F(5, 6) - F(1, 1000), F(5, 6),
                F(5, 6) + F(1, 1000), F(9, 10), F(1)]
        for k in (0, 1, 2):
            for alpha in grid:
                decision = triviality_certificate(data, [alpha], k)
                expected = TRIVIAL if k + alpha <= F(5, 6) else INCONCLUSIVE
                assert decision.status == expected


# -- 6. product-formula equality -----------------------------------------------------------

def test_criterion_6_product_formula():
    with criterion(6, "product formula exact equality", 10.0):
        verdicts = suite_product(7)
        equalities = [v for v in verdicts if v.claim == "product-formula"]
        assert len(equalities) >= 5
        assert all(v.status == PASS for v in equalities)


# -- 7. restriction equality on cylinders ----------------------------------------------------

def test_criterion_7_restriction_cylinder():
    with criterion(7, "cusp cylinder restriction equality", 5.0):
        rng = random.Random(7)
        cusp3 = div([{"f": "x^2+y^3", "alpha": "9/10"}], XYZ)
        for k in (1, 2):
            verdicts = _generic_restriction_draws(cusp3, 2, check_restriction(cusp3, 2, k), rng,
                                                  draws=3)
            equalities = [v for v in verdicts if v.claim == "restriction-generic-equality"]
            assert len(equalities) >= 3
            assert report_ok(verdicts)


# -- 8. Groebner engine vs linear-algebra oracle ----------------------------------------------

def test_criterion_8_membership_oracle_equivalence():
    with criterion(8, "membership matches truncated linear algebra on 200 instances", 60.0):
        rng = random.Random(8)
        for index in range(200):
            f, gens = random_membership_instance(rng)
            via_groebner = Ideal(gens[0].vars, gens).groebner().contains(f)
            via_oracle = linear_membership(f, gens)
            assert via_groebner == via_oracle, (
                f"instance {index}: Groebner={via_groebner} oracle={via_oracle} "
                f"f={f} gens={[str(g) for g in gens]}")


# -- 9. multiplicity bounds on the exact chains from criteria 1-4 ------------------------------

def test_criterion_9_multiplicity_bounds():
    with criterion(9, "multiplicity bounds on exact chains", 10.0):
        produced = []
        for alpha in (F(81, 100), F(9, 10), F(1)):
            d, chain = cusp_chain(alpha)
            produced.append((list(chain.results), d, 0))
        for alpha in (F(1, 2), F(1)):
            d = div([{"f": "x y", "alpha": str(alpha)}])
            r = classify(d)
            chain = hodge_chain(r, 4, i0_seed(r), certificate_for(r))
            produced.append((list(chain.results), d, 0))
        for alphas in iproduct((F(1, 2), F(1)), repeat=2):
            d = _snc_divisor(XY, alphas)
            produced.append(([snc_hodge_ideal(classify(d), k) for k in range(4)], d, 0))
        cone = div([{"f": "x^2+y^2+z^2", "alpha": "3/4"}], XYZ)
        r = classify(cone)
        chain = hodge_chain(r, 1, i0_seed(r), certificate_for(r))
        produced.append((list(chain.results), cone, 0))
        for results, d, level in produced:
            verdicts = check_multiplicity_bounds(results, d, level)
            assert report_ok(verdicts), [v for v in verdicts if v.status != PASS]


# -- Groebner engine regression guard ------------------------------------------------------------

def test_three_variable_chains_within_ceiling():
    # A generous ceiling: with a pair selection that rescans every pending
    # pair, these chains took about 28 s (cone) and 128 s (x^2+y^3+z^5).
    for f, alpha, method, k_max in (("x^2+y^2+z^2", "3/4", "recursion", 6),
                                    ("x^2+y^3+z^5", "1", "auto", 5)):
        d = div([{"f": f, "alpha": alpha}], XYZ)
        start = time.perf_counter()
        results = compute_chain(d, k_max, method)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"{f} to k = {k_max} took {elapsed:.2f} s"
        assert [res.k for res in results] == list(range(k_max + 1))
        assert all(res.exact for res in results)
        for prev, cur in zip(results, results[1:]):
            assert prev.ideal.contains_ideal(cur.ideal)
