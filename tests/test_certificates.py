"""Inequality certificates: triviality, symbolic powers, membership, smoothness."""

from fractions import Fraction as F

import pytest

from hodgeideals import (
    ExceptionalDivisor,
    MultiplicityData,
    ResolutionData,
    alpha_multiple_membership,
    compute_chain,
    nontriviality_symbolic_power,
    parse_divisor,
    singular_multiplicity_bound,
    smoothness_test,
    triviality_certificate,
)
from hodgeideals.certificates import (
    CONTAINED,
    CONTAINED_CONJECTURAL,
    INCONCLUSIVE,
    SINGULAR_CERTIFIED,
    SMOOTH_CONSISTENT,
    TRIVIAL,
)


def cusp_data():
    return ResolutionData(exceptional=(
        ExceptionalDivisor(a=(2,), b=1),
        ExceptionalDivisor(a=(3,), b=2),
        ExceptionalDivisor(a=(6,), b=4),
    ))


# -- triviality from resolution data ---------------------------------------------

def test_cusp_certificate_trivial_below_threshold():
    decision = triviality_certificate(cusp_data(), [F(4, 5)], 0)
    assert decision.status == TRIVIAL
    assert any("5/6" in line for line in decision.lines)


def test_cusp_certificate_inconclusive_above_threshold():
    decision = triviality_certificate(cusp_data(), [F(9, 10)], 0)
    assert decision.status == INCONCLUSIVE
    assert any("5/6 < 9/10" in line for line in decision.lines)


def test_empty_resolution_data_is_trivial():
    decision = triviality_certificate(ResolutionData(exceptional=()), [F(1)], 4)
    assert decision.status == TRIVIAL


def test_certificate_requires_reduced_coefficients():
    with pytest.raises(ValueError):
        triviality_certificate(cusp_data(), [F(3, 2)], 0)


def test_certificate_requires_smooth_strict_transform():
    data = ResolutionData(exceptional=(ExceptionalDivisor(a=(2,), b=1),),
                          strict_transform_smooth=False)
    with pytest.raises(ValueError):
        triviality_certificate(data, [F(1, 2)], 0)


def test_multi_component_certificate():
    # two components meeting one exceptional divisor: b + 1 >= k*a + sum alpha_j a^j
    data = ResolutionData(exceptional=(ExceptionalDivisor(a=(1, 1), b=1),))
    assert triviality_certificate(data, [F(1, 2), F(1, 2)], 0).status == TRIVIAL
    assert triviality_certificate(data, [F(1, 2), F(1, 2)], 1).status == INCONCLUSIVE
    assert triviality_certificate(data, [F(1), F(1)], 0).status == TRIVIAL


def test_certificate_threshold_matches_minimal_exponent():
    # min (b_i + 1)/a_i = 5/6 for the cusp: TRIVIAL exactly when k + alpha <= 5/6
    for k in (0, 1):
        for alpha in (F(1, 2), F(2, 3), F(5, 6), F(5, 6) - F(1, 1000),
                      F(5, 6) + F(1, 1000), F(1)):
            decision = triviality_certificate(cusp_data(), [alpha], k)
            expected = TRIVIAL if k + alpha <= F(5, 6) else INCONCLUSIVE
            assert decision.status == expected


# -- symbolic-power nontriviality --------------------------------------------------

def test_symbolic_power_point_example():
    md = MultiplicityData(n=3, r=3, a=4, b=F(4))
    decision = nontriviality_symbolic_power(md, 1)
    assert decision.value == 3


def test_symbolic_power_k0_specialization():
    md = MultiplicityData(n=3, r=3, a=5, b=F(5))
    decision = nontriviality_symbolic_power(md, 0)
    # b > q + r - 1 gives q = ceil(b - r) = 2
    assert decision.value == 2


def test_symbolic_power_failure_returns_zero():
    md = MultiplicityData(n=2, r=2, a=2, b=F(1))
    decision = nontriviality_symbolic_power(md, 1)
    assert decision.value == 0
    assert decision.status == INCONCLUSIVE


def test_symbolic_power_specific_q():
    md = MultiplicityData(n=3, r=3, a=4, b=F(4))
    assert nontriviality_symbolic_power(md, 1, q=2).status == "CERTIFIED"
    assert nontriviality_symbolic_power(md, 1, q=4).status == INCONCLUSIVE


# -- multiplicity lower bounds --------------------------------------------------------

def test_singular_multiplicity_bound():
    assert singular_multiplicity_bound(2, 2, 2) == 1
    assert singular_multiplicity_bound(3, 3, 5) == 6
    assert singular_multiplicity_bound(3, 2, 2) == 0  # j = n - 1, out of range


# -- membership in the maximal ideal -----------------------------------------------------

def test_alpha_multiple_membership_examples():
    assert alpha_multiple_membership(3, 2, F(3, 4), 1).status == CONTAINED
    assert alpha_multiple_membership(3, 2, F(1, 2), 1).status == INCONCLUSIVE
    assert alpha_multiple_membership(2, 2, F(1), 1).status == CONTAINED


@pytest.mark.parametrize("n,m,alpha", [(3, 2, F(-1, 2)), (3, 2, F(0)), (0, 2, F(1, 2)),
                                       (3, 0, F(1, 2))])
def test_alpha_multiple_membership_refuses_degenerate_data(n, m, alpha):
    with pytest.raises(ValueError):
        alpha_multiple_membership(n, m, alpha, 3)


def test_alpha_multiple_membership_conjectural_for_general_divisors():
    decision = alpha_multiple_membership(3, 2, F(3, 4), 1, proportional=False)
    assert decision.status == CONTAINED_CONJECTURAL


# -- smoothness dichotomy -------------------------------------------------------------------

def test_smoothness_consistent_for_smooth_line():
    d = parse_divisor({"vars": ["x", "y"], "components": [{"f": "x", "alpha": "1/2"}]})
    results = compute_chain(d, 3)
    assert smoothness_test(results, d).status == SMOOTH_CONSISTENT


def test_smoothness_certifies_cusp_singular():
    d = parse_divisor({"vars": ["x", "y"],
                       "components": [{"f": "x^2+y^3", "alpha": "9/10"}]})
    results = compute_chain(d, 2)
    assert smoothness_test(results, d).status == SINGULAR_CERTIFIED


def test_smoothness_certifies_node_singular():
    d = parse_divisor({"vars": ["x", "y"], "components": [{"f": "x y", "alpha": "1"}]})
    results = compute_chain(d, 2)
    assert smoothness_test(results, d).status == SINGULAR_CERTIFIED
