"""Library refusals: each bad call raises its own error type with its message.

A refusal of a value that a task document can carry is an ``InputError``;
a call no task document can make (another ring, a wrong type, an engine
precondition) keeps its own class."""

import re
from fractions import Fraction as F

import pytest

from hodgeideals import (
    ExceptionalDivisor,
    GenerationCertificate,
    Ideal,
    InputError,
    MultiplicityData,
    ParseError,
    Polynomial,
    QDivisor,
    alpha_multiple_membership,
    classify,
    compute_chain,
    derivation_step,
    groebner_basis,
    hodge_chain,
    nontriviality_symbolic_power,
    normal_form,
    parse_divisor,
    parse_polynomial,
    parse_rational,
    triviality_certificate,
)
from hodgeideals.compute import SeedContradictionError
from hodgeideals.ideal import graded_basis
from hodgeideals.poly import AmbientMismatchError, _Codec
from hodgeideals.verify import check_periodicity, check_subadditivity

from helpers import RLEX, packed_rows

X, XY, XYZ = ("x",), ("x", "y"), ("x", "y", "z")


def p(text, variables=XY):
    return parse_polynomial(text, variables)


def cusp(variables=XY):
    return QDivisor(variables, ((p("x^2 + y^3", variables), F(1, 2)),))


def chain_from(seed, k0=0):
    regime = classify(cusp())
    return hodge_chain(regime, 1, seed, GenerationCertificate(0, "user-asserted"), k0)


MULTIPLICITY = dict(n=3, r=3, a=2, b=F(3, 2))
CASES = {
    "ideal-non-polynomial-generator": (
        lambda: Ideal(XY, ["x"]), TypeError, "generators must be polynomials, got str"),
    "ideal-foreign-generator": (
        lambda: Ideal(XY, [p("x", XYZ)]), AmbientMismatchError, "generator over"),
    "ideal-sum-across-ambients": (
        lambda: Ideal.unit(XY) + Ideal.unit(XYZ), AmbientMismatchError, "ideals over"),
    "ideal-product-across-ambients": (
        lambda: Ideal.unit(XY) * Ideal.unit(XYZ), AmbientMismatchError, "ideals over"),
    "zero-ideal-order-at-origin": (
        lambda: Ideal.zero(XY).order_at_origin(), ValueError,
        "the zero ideal has order +infinity at the origin"),
    "normal-form-across-ambients": (
        lambda: normal_form(p("x"), [p("x", XYZ)]), AmbientMismatchError, "ambient mismatch"),
    "groebner-basis-across-ambients": (
        lambda: groebner_basis([p("x"), p("x", XYZ)]), AmbientMismatchError,
        "generators must share one ambient"),
    "compute-chain-negative-k": (
        lambda: compute_chain(cusp(), -1), InputError, "k_max must be >= 0, got -1"),
    "hodge-chain-seed-above-k-max": (
        lambda: chain_from(Ideal.unit(XY), 2), ValueError, "seed level 2 exceeds k_max = 1"),
    "hodge-chain-negative-seed-level": (
        lambda: chain_from(Ideal.unit(XY), -1), ValueError, "seed level must be >= 0, got -1"),
    "hodge-chain-seed-wrong-ring": (
        lambda: chain_from(Ideal.unit(XYZ)), ValueError,
        "seed over ('x', 'y', 'z'), divisor over ('x', 'y')"),
    "derivation-step-wrong-ring": (
        lambda: derivation_step(Ideal.unit(XYZ), cusp(), 0), ValueError,
        "ideal over ('x', 'y', 'z'), divisor over ('x', 'y')"),
    "i0-seed-wrong-ring": (
        lambda: compute_chain(cusp(), 1, seed_ideal=Ideal.unit(XYZ)), ValueError,
        "seed over ('x', 'y', 'z'), divisor over ('x', 'y')"),
    "i0-seed-wrong-ring-on-a-cylinder": (
        lambda: compute_chain(cusp(XYZ), 1, seed_ideal=Ideal.unit(XY)), ValueError,
        "seed over ('x', 'y'), divisor over ('x', 'y', 'z')"),
    "compute-chain-seed-contradicting-a-closed-form": (
        lambda: compute_chain(QDivisor(XY, ((p("x"), F(1, 2)), (p("y"), F(1, 2)))), 1,
                              seed_ideal=Ideal(XY, [p("x^5")])),
        SeedContradictionError, "'options.i0' contradicts the computed I_0 of the reduced "
        "divisor: I_0 = ideal(1), but the given I_0 is ideal(x^5)"),
    # A library caller's zero seed is refused like a task file's.
    "compute-chain-zero-seed": (
        lambda: compute_chain(QDivisor(XY, ((p("x^2+x*y+y^2"), F(1, 2)),)), 2,
                              seed_ideal=Ideal.zero(XY)),
        SeedContradictionError, "'options.i0' spans the zero ideal; I_0 always contains the "
        "support equation"),
    # The cusp at 1/2 is below its log canonical threshold 5/6: I_0 = (1).
    "compute-chain-seed-contradicting-the-computed-i0": (
        lambda: compute_chain(cusp(), 1, seed_ideal=Ideal(XY, [p("x"), p("y")])),
        SeedContradictionError, "'options.i0' contradicts the computed I_0 of the reduced "
        "divisor: I_0 = ideal(1), but the given I_0 is ideal(x, y)"),
    "compute-chain-unknown-method": (
        lambda: compute_chain(cusp(), 1, method="bogus"), InputError,
        "unknown method 'bogus'"),
    "compute-chain-seed-using-an-omitted-variable": (
        lambda: compute_chain(cusp(XYZ), 1, seed_ideal=Ideal(XYZ, [p("x", XYZ), p("z", XYZ)])),
        SeedContradictionError, "'options.i0' contradicts the cylinder: the divisor uses "
        "only x, y, but the reduced basis of the given I_0 is ideal(x, z)"),
    "polynomial-extend-drops-a-used-variable": (
        lambda: p("x*y").extend(X), ValueError, "new ambient ('x',) must contain 'y'"),
    # Without its kept basis an ideal views its generators, and x*z uses z.
    "ideal-extend-drops-a-variable-a-generator-uses": (
        lambda: Ideal(XYZ, [p("x", XYZ), p("x*z", XYZ)]).extend(XY), ValueError,
        "new ambient ('x', 'y') must contain 'z'"),
    "certificate-negative-level": (
        lambda: GenerationCertificate(-1, "user-asserted"), InputError,
        "generation level must be >= 0, got -1"),
    "certificate-unknown-source": (
        lambda: GenerationCertificate(0, "oracle"), ValueError,
        "unknown certificate source 'oracle'"),
    "exceptional-negative-a": (
        lambda: ExceptionalDivisor(a=(-1, 2), b=1), InputError,
        "pullback coefficients must be >= 0 with positive total"),
    "exceptional-negative-b": (
        lambda: ExceptionalDivisor(a=(2,), b=-1), InputError,
        "discrepancy coefficient must be >= 0, got -1"),
    "multiplicity-a-below-1": (
        lambda: MultiplicityData(**dict(MULTIPLICITY, a=0)), InputError,
        "support multiplicity must be >= 1, got 0"),
    "multiplicity-b-not-positive": (
        lambda: MultiplicityData(**dict(MULTIPLICITY, b=F(0))), InputError,
        "divisor multiplicity must be a positive rational"),
    "multiplicity-n-below-1": (
        lambda: MultiplicityData(n=0, r=0, a=2, b=F(3, 2)), InputError,
        "dimension must be >= 1, got n=0"),
    "multiplicity-r-above-n": (
        lambda: MultiplicityData(**dict(MULTIPLICITY, r=4)), InputError,
        "codimension must lie in 1..3, got 4"),
    "triviality-negative-k": (
        lambda: triviality_certificate((ExceptionalDivisor(a=(2,), b=1),), [F(1, 2)], -1),
        InputError, "filtration level must be >= 0, got -1"),
    "triviality-record-length-mismatch": (
        lambda: triviality_certificate((ExceptionalDivisor(a=(2, 1), b=1),), [F(1, 2)], 0),
        InputError, "exceptional record 0 lists 2 components, divisor has 1"),
    "symbolic-power-negative-k": (
        lambda: nontriviality_symbolic_power(MultiplicityData(**MULTIPLICITY), -1),
        InputError, "filtration level must be >= 0, got -1"),
    "symbolic-power-negative-q": (
        lambda: nontriviality_symbolic_power(MultiplicityData(**MULTIPLICITY), 0, q=-1),
        InputError, "symbolic power exponent must be >= 0, got -1"),
    "qdivisor-foreign-component": (
        lambda: QDivisor(XY, ((p("x", XYZ), F(1, 2)),)), ValueError, "component over"),
    "qdivisor-int-coefficient": (
        lambda: QDivisor(XY, ((p("x"), 1),)), TypeError,
        "component coefficients must be exact rationals"),
    "polynomial-short-exponent-vector": (
        lambda: Polynomial(XY, {(1,): 1}), ValueError,
        "exponent vector (1,) has length 1, ambient has 2"),
    "polynomial-negative-exponent": (
        lambda: Polynomial(XY, {(1, -1): 1}), ValueError,
        "exponents must be non-negative integers, got (1, -1)"),
    "polynomial-unknown-variable": (
        lambda: Polynomial.variable(XY, "z"), ValueError, "'z' is not among the ambient"),
    "substitute-index-out-of-range": (
        lambda: p("x").substitute(2, Polynomial.zero(X)), IndexError,
        "variable index 2 out of range"),
    "substitute-only-variable": (
        lambda: p("x", X).substitute(0, Polynomial.zero(X)), ValueError,
        "cannot eliminate the only ambient variable"),
    "leading-of-zero": (
        lambda: Polynomial.zero(XY).leading(), ValueError,
        "the zero polynomial has no leading term"),
    "qdivisor-monomial-power": (
        lambda: QDivisor(X, ((p("x^2", X), F(1, 2)),)), InputError,
        "the support is not reduced: the monomial components multiply to x^2, "
        "which is not squarefree"),
    "qdivisor-monomials-share-a-variable": (
        lambda: QDivisor(XY, ((p("x*y"), F(1, 2)), (p("x"), F(1, 2)))), InputError,
        "the support is not reduced: the monomial components multiply to x^2*y, "
        "which is not squarefree"),
    "qdivisor-proportional-components": (
        lambda: QDivisor(XY, ((p("x+y"), F(1, 2)), (p("2*x+2*y"), F(1, 2)))), InputError,
        "the support is not reduced: components 0 and 1 are proportional (x + y ~ 2*x + 2*y)"),
    # The refusals a task document reaches, typed where they are decided.
    "qdivisor-no-components": (
        lambda: QDivisor(XY, ()), InputError, "a Q-divisor needs at least one component"),
    "qdivisor-constant-component": (
        lambda: QDivisor(XY, ((p("3"), F(1, 2)),)), InputError,
        "component equations must be nonconstant, got 3"),
    "qdivisor-alpha-not-positive": (
        lambda: QDivisor(XY, ((p("x"), F(1, 2)), (p("y"), F(-1, 2)))), InputError,
        "component 1: alpha must be positive, got -1/2"),
    "triviality-alpha-above-1": (
        lambda: triviality_certificate((), [F(3, 2)], 0), InputError,
        "coefficients must lie in (0, 1] (apply periodic_reduce first), got 3/2"),
    "membership-n-below-1": (
        lambda: alpha_multiple_membership(0, 2, F(1, 2), 1), InputError,
        "dimension and multiplicity must be >= 1, got n=0, m=2"),
    "membership-alpha-not-positive": (
        lambda: alpha_multiple_membership(3, 2, F(0), 1), InputError,
        "alpha must be positive, got 0"),
    "membership-negative-k": (
        lambda: alpha_multiple_membership(2, 3, F(1, 2), -1), InputError,
        "filtration level must be >= 0, got -1"),
    "parse-rational-not-text": (
        lambda: parse_rational(5), ParseError, "expected rational text, got int"),
    "parse-divisor-not-an-object": (
        lambda: parse_divisor([]), ParseError, "divisor document must be a JSON object"),
    "parse-divisor-components-given-twice": (
        lambda: parse_divisor({"vars": ["x"], "divisor": {"components": []},
                               "components": []}), ParseError,
        "divisor document has both 'divisor' and 'components'; give the components once"),
    # (x) is weighted-homogeneous but not m-primary: its rows have no tail,
    # so the loop stops, and the leads it found are refused.
    "graded-basis-not-m-primary": (
        lambda: graded_basis(packed_rows([p("x")], (1, 1)), XY), ValueError,
        "the ideal is not m-primary: its reduced basis has leads"),
    # A caller's generators reach the graded engine only in an Ideal handed
    # to derivation_step, and Ideal refuses a term dict by type, whatever
    # its defect and at any position: none is read as a polynomial.
    "graded-basis-not-a-polynomial": (
        lambda: Ideal(XY, [{(1, 0): 1}]), TypeError,
        "generators must be polynomials, got dict"),
    "graded-basis-zero-coefficient": (
        lambda: Ideal(XY, [p("y"), {(2, 0): 0}]), TypeError,
        "generators must be polynomials, got dict"),
    "graded-basis-all-zero-row": (
        lambda: Ideal(XY, [{(1, 0): 0, (0, 1): 0}]), TypeError,
        "generators must be polynomials, got dict"),
    "graded-basis-fraction-coefficient": (
        lambda: Ideal(XY, [{(1, 0): F(1, 2)}]), TypeError,
        "generators must be polynomials, got dict"),
    "graded-basis-short-exponent": (
        lambda: Ideal(XY, [{(1,): 1}]), TypeError,
        "generators must be polynomials, got dict"),
    "graded-basis-negative-exponent": (
        lambda: Ideal(XY, [{(1, -1): 1}]), TypeError,
        "generators must be polynomials, got dict"),
    "graded-basis-other-ambient": (
        lambda: Ideal(XY, [p("x", XYZ)]), AmbientMismatchError,
        "generator over ('x', 'y', 'z'), ideal over ('x', 'y')"),
    # Only grevlex, lex and grlex have a packed layout; rlex is not read as
    # lex.  A print in another order relies on this refusal.
    "graded-basis-order-without-layout": (
        lambda: _Codec((1, 1), RLEX, 1), ValueError,
        "the monomial order 'rlex' has no packed layout"),
    # Ideal checks its variables as Polynomial does, with no generator too.
    "graded-basis-repeated-variable": (
        lambda: Ideal(("x", "x"), ()), ValueError,
        "ambient variables must be distinct, got ('x', 'x')"),
    "graded-basis-no-variables": (
        lambda: Ideal((), ()), ValueError, "ambient variable list must be nonempty"),
    "contains-ideal-across-ambients": (
        lambda: Ideal.unit(XY).contains_ideal(Ideal.unit(XYZ)), AmbientMismatchError,
        "ideals over ('x', 'y') vs ('x', 'y', 'z')"),
    "subadditivity-across-ambients": (
        lambda: check_subadditivity(cusp(), cusp(XYZ), 0), ValueError,
        "subadditivity compares divisors on one space"),
    "periodicity-multiplicity-count": (
        lambda: check_periodicity(cusp(), (1, 1), 0), ValueError,
        "one multiplicity per component required"),
    "periodicity-negative-multiplicity": (
        lambda: check_periodicity(cusp(), (-1,), 0), ValueError,
        "integral twist multiplicities must be >= 0"),
    # Values are written only while they are built.
    "polynomial-vars-immutable": (
        lambda: setattr(p("x"), "vars", XYZ), AttributeError, "Polynomial is immutable"),
    "polynomial-terms-immutable": (
        lambda: setattr(p("x"), "terms", {}), AttributeError, "Polynomial is immutable"),
    "ideal-generators-immutable": (
        lambda: setattr(Ideal.principal(p("x")) * Ideal.unit(XY), "generators", ()),
        AttributeError, "Ideal is immutable"),
}


@pytest.mark.parametrize("call,error,message", CASES.values(), ids=CASES.keys())
def test_refusal_raises_its_typed_error(call, error, message):
    with pytest.raises(error, match=re.escape(message)) as raised:
        call()
    assert raised.type is error


def test_parse_and_seed_errors_are_input_errors():
    from hodgeideals import ParseError

    assert issubclass(ParseError, InputError) and issubclass(SeedContradictionError, InputError)
    assert issubclass(InputError, ValueError)
