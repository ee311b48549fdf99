"""Property-verifier suites and their verdict reports."""

import random

import pytest

from hodgeideals import ParseError, compute_chain, parse_divisor
from hodgeideals.verify import (
    FAIL,
    OBSERVED,
    PASS,
    SUITES,
    _generic_linear_forms,
    check_chain_inclusions,
    check_periodicity,
    check_product_formula,
    check_restriction,
    check_subadditivity,
    report_ok,
    run_suites,
)
from hodgeideals.poly import Polynomial


def div(components, variables=("x", "y")):
    return parse_divisor({"vars": list(variables), "components": components})


@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_suite_passes(name):
    verdicts = SUITES[name](7)
    assert verdicts, f"suite {name} produced no verdicts"
    failures = [v for v in verdicts if v.required and v.status == FAIL]
    assert not failures, failures


def test_suites_are_deterministic_for_a_seed():
    assert run_suites(["restriction"], 7) == run_suites(["restriction"], 7)


def test_chain_inclusion_check_on_cusp():
    d = div([{"f": "x^2+y^3", "alpha": "9/10"}])
    results = compute_chain(d, 2)
    verdicts = check_chain_inclusions(results, d)
    assert all(v.status == PASS for v in verdicts if v.required)
    observed = [v for v in verdicts if v.claim == "chain-descending-observed"]
    assert observed and all("holds" in v.detail for v in observed)


def test_chain_inclusion_check_on_node_counts_orders():
    d = div([{"f": "x y", "alpha": "1"}])
    results = compute_chain(d, 3)
    verdicts = check_chain_inclusions(results, d)
    assert all(v.status == PASS for v in verdicts if v.required)


def test_subadditivity_snc():
    d1 = div([{"f": "x", "alpha": "1/2"}])
    d2 = div([{"f": "y", "alpha": "1/2"}])
    verdicts = check_subadditivity(d1, d2, 1)
    assert report_ok(verdicts)


def test_subadditivity_cusp_times_line_uses_product_route():
    cusp = div([{"f": "x^2+y^3", "alpha": "9/10"}], ("x", "y", "z"))
    line = div([{"f": "z", "alpha": "3/4"}], ("x", "y", "z"))
    verdicts = check_subadditivity(cusp, line, 2)
    assert report_ok(verdicts)
    assert any("product formula" in v.detail for v in verdicts)


def test_subadditivity_on_supports_that_share_a_variable_observes_and_fails():
    # x^2+y^3 and x share x: the hypothesis is reported, and the combined
    # divisor has no exact route, which is a required FAIL, not an exception.
    cusp = div([{"f": "x^2+y^3", "alpha": "9/10"}])
    line = div([{"f": "x", "alpha": "1/2"}])
    verdicts = check_subadditivity(cusp, line, 1)
    assert [(v.claim, v.status, v.required) for v in verdicts] == [
        ("subadditivity-hypothesis", OBSERVED, False), ("subadditivity", FAIL, True)]
    assert verdicts[1].detail == "left-hand side not computable exactly"
    assert not report_ok(verdicts)


def test_subadditivity_computes_each_chain_once(chain_calls):
    cusp = div([{"f": "x^2+y^3", "alpha": "9/10"}], ("x", "y", "z"))
    line = div([{"f": "z", "alpha": "3/4"}], ("x", "y", "z"))
    assert report_ok(check_subadditivity(cusp, line, 2))
    assert cusp in chain_calls and line in chain_calls
    assert len(chain_calls) == len(set(chain_calls))


def test_product_formula_example():
    d1 = div([{"f": "x", "alpha": "3/4"}], ("x",))
    d2 = div([{"f": "y", "alpha": "3/4"}], ("y",))
    verdicts = check_product_formula(d1, d2, 1)
    assert [v.status for v in verdicts] == [PASS]


def test_product_formula_computes_each_chain_once(chain_calls):
    d1 = div([{"f": "x", "alpha": "3/4"}], ("x",))
    d2 = div([{"f": "y", "alpha": "1/2"}, {"f": "z", "alpha": "1"}], ("y", "z"))
    assert report_ok(check_product_formula(d1, d2, 2))
    assert d1 in chain_calls and d2 in chain_calls
    assert len(chain_calls) == len(set(chain_calls))


def test_product_formula_rejects_shared_variables():
    d1 = div([{"f": "x", "alpha": "1/2"}])
    d2 = div([{"f": "y", "alpha": "1/2"}])
    with pytest.raises(ValueError):
        check_product_formula(d1, d2, 1)


def test_restriction_coordinate_section():
    cusp = div([{"f": "x^2+y^3", "alpha": "9/10"}], ("x", "y", "z"))
    verdicts = check_restriction(cusp, 2, 1, [Polynomial.zero(("x", "y"))])
    assert report_ok(verdicts)
    assert any(v.claim == "restriction-generic-equality" and v.status == PASS
               for v in verdicts)


def test_restriction_requires_cylinder():
    d = div([{"f": "x^2+y^3+z^2", "alpha": "9/10"}], ("x", "y", "z"))
    with pytest.raises(ValueError):
        check_restriction(d, 2, 1, [Polynomial.zero(("x", "y"))])


def test_restriction_suite_draws_at_least_three_generic_hyperplanes():
    verdicts = SUITES["restriction"](7)
    per_k = [v for v in verdicts if v.claim == "restriction-generic-equality"
             and "[k=1]" in v.instance and "y^3 + x^2" in v.instance]
    assert len(per_k) >= 3


def test_restriction_draws_share_their_chains(chain_calls):
    cusp = div([{"f": "x^2+y^3", "alpha": "9/10"}], ("x", "y", "z"))
    planes = _generic_linear_forms(("x", "y"), random.Random(7))
    counts = []
    for draws in (1, 3):
        chain_calls.clear()
        verdicts = check_restriction(cusp, 2, 2, planes[:draws])
        assert report_ok(verdicts)
        counts.append(len(chain_calls))
    assert counts[0] == counts[1] > 0


def test_restriction_suite_computes_each_cusp_chain_once(chain_calls):
    # The k = 1 check serves the generic draws and the z -> 0 plane, and
    # each restriction check reads both sides off one chain: the cusp at
    # k = 1 and 2 and the SNC pair at k = 1.
    assert report_ok(SUITES["restriction"](7))
    assert len(chain_calls) == 3


def test_periodicity_checks():
    assert report_ok(check_periodicity(div([{"f": "x", "alpha": "1/2"}]), (1,), 2))
    snc = div([{"f": "x", "alpha": "1/2"}, {"f": "y", "alpha": "1/2"}])
    assert report_ok(check_periodicity(snc, (1, 1), 1))


def test_restriction_and_periodicity_fail_when_a_side_is_a_lower_bound():
    # The cusp at 1/10 has generation level 1, so I_1 from I_0 is only a
    # lower bound: neither check may compare it.
    cusp = div([{"f": "x^2+y^3", "alpha": "1/10"}])
    assert not compute_chain(cusp, 1)[1].exact
    assert [(v.status, v.detail) for v in check_periodicity(cusp, (1,), 1)] == [
        (FAIL, "one side not computable exactly")]
    cylinder = div([{"f": "x^2+y^3", "alpha": "1/10"}], ("x", "y", "z"))
    verdicts = check_restriction(cylinder, 2, 1, [Polynomial.zero(("x", "y"))])
    assert [(v.status, v.detail) for v in verdicts] == [
        (FAIL, "ambient ideal not computable exactly")]


def test_report_ok_ignores_observed():
    verdicts = SUITES["chains"](7)
    assert any(v.status == OBSERVED for v in verdicts)
    assert report_ok(verdicts)


def test_unknown_suite_raises():
    with pytest.raises(ParseError, match="unknown suite 'nonexistent'"):
        run_suites(["nonexistent"], 7)


def test_report_ok_fails_on_required_failure():
    from hodgeideals.verify import Verdict
    bad = Verdict(claim="x", instance="i", status=FAIL)
    informational = Verdict(claim="x", instance="i", status=FAIL, required=False)
    assert not report_ok([bad])
    assert report_ok([informational])
