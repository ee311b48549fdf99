"""Executable suites for the structural theorems, run on instances where
both sides are computable.

Each check emits machine-readable verdicts (claim, instance, status);
FAIL on a required claim is a build-breaking event, while OBSERVED
verdicts record behaviour the theory leaves open.  Only exact Hodge
ideal results participate in theorem checks.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from typing import Callable, Sequence

from .certificates import (
    INCONCLUSIVE,
    TRIVIAL,
    ExceptionalDivisor,
    ResolutionData,
    alpha_multiple_membership,
    singular_multiplicity_bound,
    triviality_certificate,
)
from .closed_forms import OrdinarySingularityModel, ordinary_triviality
from .compute import MethodUnavailableError, compute_chain
from .divisor import HodgeIdealResult, QDivisor
from .ideal import Ideal
from .parser import parse_polynomial
from .poly import Polynomial, format_rational

DEFAULT_SEED = 7

PASS = "PASS"
FAIL = "FAIL"
OBSERVED = "OBSERVED"


@dataclass(frozen=True)
class Verdict:
    claim: str
    instance: str
    status: str
    required: bool = True
    detail: str = ""

    def to_json(self) -> dict:
        return {"claim": self.claim, "instance": self.instance, "status": self.status,
                "required": self.required, "detail": self.detail}


def report_ok(verdicts: Sequence[Verdict]) -> bool:
    return all(v.status != FAIL for v in verdicts if v.required)


def _sorted_report(verdicts: list[Verdict]) -> list[Verdict]:
    return sorted(verdicts, key=lambda v: (v.claim, v.instance))


def _random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))


def _divisor(variables: Sequence[str], *components: tuple[str, Fraction]) -> QDivisor:
    parsed = tuple((parse_polynomial(f, variables), alpha) for f, alpha in components)
    return QDivisor(tuple(variables), parsed)


# ---------------------------------------------------------------------------
# Chain inclusions


def check_chain_inclusions(results: Sequence[HodgeIdealResult],
                           divisor: QDivisor) -> list[Verdict]:
    """For exact i < j: g^(j-i) * I_i is contained in I_j; additionally
    reports, without asserting, whether I_k is contained in I_(k-1)."""
    g = divisor.support_equation
    name = divisor.describe()
    exact = [res for res in results if res.exact]
    verdicts: list[Verdict] = []
    for a in range(len(exact)):
        for b in range(a + 1, len(exact)):
            lo, hi = exact[a], exact[b]
            shifted = g ** (hi.k - lo.k) * lo.ideal
            ok = hi.ideal.contains_ideal(shifted)
            verdicts.append(Verdict(
                claim="chain-inclusion", instance=f"{name} [k={lo.k}->{hi.k}]",
                status=PASS if ok else FAIL,
                detail=f"g^{hi.k - lo.k} * I_{lo.k} in I_{hi.k}"))
    for a in range(1, len(exact)):
        lo, hi = exact[a - 1], exact[a]
        if hi.k != lo.k + 1:
            continue
        holds = lo.ideal.contains_ideal(hi.ideal)
        verdicts.append(Verdict(
            claim="chain-descending-observed", instance=f"{name} [k={hi.k}]",
            status=OBSERVED, required=False,
            detail=f"I_{hi.k} in I_{lo.k}: {'holds' if holds else 'fails'} "
                   "(open for Q-divisors; reported only)"))
    return verdicts


# ---------------------------------------------------------------------------
# Subadditivity and the product formula


def _convolution(d1: QDivisor, chain1: Sequence[HodgeIdealResult], d2: QDivisor,
                 chain2: Sequence[HodgeIdealResult], joint_vars: Sequence[str]) -> Ideal:
    """sum over i+j=k of (I_i(D1)*g1^j) * (I_j(D2)*g2^i) in the joint ring,
    read from the chains I_0..I_k of D1 and D2."""
    g1 = d1.support_equation
    g2 = d2.support_equation
    k = len(chain1) - 1
    total = Ideal.zero(joint_vars)
    for i in range(k + 1):
        j = k - i
        left = (chain1[i].ideal * (g1 ** j)).extend(joint_vars)
        right = (chain2[j].ideal * (g2 ** i)).extend(joint_vars)
        total = total + left * right
    return total


def check_subadditivity(d1: QDivisor, d2: QDivisor, k: int) -> list[Verdict]:
    """I_k(D1+D2) in sum_(i+j=k) I_i(D1)*I_j(D2)*(g1^j g2^i) in I_k(D1)*I_k(D2).

    Wants Z1 + Z2 reduced; coprimality of the supports is checked for
    disjoint-variable inputs and trusted otherwise.
    """
    if d1.vars != d2.vars:
        raise ValueError("subadditivity compares divisors on one space")
    name = f"{d1.describe()} | {d2.describe()} [k={k}]"
    verdicts: list[Verdict] = []
    disjoint = not set(d1.used_variables()) & set(d2.used_variables())
    if not disjoint:
        verdicts.append(Verdict(claim="subadditivity-hypothesis", instance=name,
                                status=OBSERVED, required=False,
                                detail="supports share variables; reducedness of Z1+Z2 trusted"))
    combined = QDivisor(d1.vars, d1.components + d2.components)
    try:
        lhs_res = compute_chain(combined, k)[k]
        lhs = lhs_res.ideal if lhs_res.exact else None
        lhs_note = "I_k(D1+D2) by direct computation"
    except MethodUnavailableError:
        lhs = None
    if lhs is None and not disjoint:
        return verdicts + [Verdict(claim="subadditivity", instance=name, status=FAIL,
                                   detail="left-hand side not computable exactly")]
    chain1 = compute_chain(d1, k)
    chain2 = compute_chain(d2, k)
    middle = _convolution(d1, chain1, d2, chain2, d1.vars)
    if lhs is None:
        lhs = middle
        lhs_note = "I_k(D1+D2) through the product formula (disjoint variables)"
    outer = chain1[k].ideal * chain2[k].ideal
    ok1 = middle.contains_ideal(lhs)
    ok2 = outer.contains_ideal(middle)
    verdicts.append(Verdict(claim="subadditivity-refined", instance=name,
                            status=PASS if ok1 else FAIL,
                            detail=f"{lhs_note}; contained in the mixed-term sum"))
    verdicts.append(Verdict(claim="subadditivity", instance=name,
                            status=PASS if ok2 else FAIL,
                            detail="mixed-term sum contained in I_k(D1)*I_k(D2)"))
    return verdicts


def check_product_formula(d1: QDivisor, d2: QDivisor, k: int) -> list[Verdict]:
    """Exact equality of I_k(B1+B2) with the convolution of the factor
    ideals, for divisors pulled back from disjoint variable sets."""
    if set(d1.vars) & set(d2.vars):
        raise ValueError("product formula wants disjoint variable sets")
    joint = tuple(d1.vars) + tuple(d2.vars)
    name = f"{d1.describe()} x {d2.describe()} [k={k}]"
    combined = QDivisor(joint, tuple(
        (f.extend(joint), alpha) for f, alpha in d1.components + d2.components))
    lhs_res = compute_chain(combined, k)[k]
    if not lhs_res.exact:
        return [Verdict(claim="product-formula", instance=name, status=FAIL,
                        detail="I_k(B1+B2) not computable exactly on this instance")]
    rhs = _convolution(d1, compute_chain(d1, k), d2, compute_chain(d2, k), joint)
    ok = lhs_res.ideal.equals(rhs)
    return [Verdict(claim="product-formula", instance=name,
                    status=PASS if ok else FAIL,
                    detail="Groebner canonical forms compared for exact equality")]


# ---------------------------------------------------------------------------
# Restriction to hyperplanes


def check_restriction(divisor: QDivisor, var_index: int,
                      k: int) -> Callable[[Polynomial, bool], list[Verdict]]:
    """Restriction to hyperplanes Y = (x_i = replacement): the intrinsic
    I_k(D|_Y) is contained in I_k(D)*O_Y, with equality for generic Y.

    Only cylinders (equations independent of the eliminated variable)
    are computed exactly; reducedness of Z|_Y is trusted and noted.  On
    a cylinder neither I_k(D) nor I_k(D|_Y) depends on the hyperplane, so
    both sides are computed once, here, and the returned checker judges
    any (replacement, expect_equality): equality is asserted only when
    ``expect_equality`` is set.
    """
    if var_index in divisor.used_variables():
        raise ValueError("restriction check wants a cylinder: equations must not "
                         "use the eliminated variable")
    sub_vars = divisor.vars[:var_index] + divisor.vars[var_index + 1:]
    ambient = compute_chain(divisor, k)[k]
    failure = None if ambient.exact else "ambient ideal not computable exactly"
    if failure is None:
        intrinsic = compute_chain(QDivisor(sub_vars, tuple(
            (f.substitute(var_index, Polynomial.zero(sub_vars)), alpha)
            for f, alpha in divisor.components)), k)[k]
        failure = None if intrinsic.exact else "intrinsic ideal not computable exactly"

    def verdicts(replacement: Polynomial, expect_equality: bool) -> list[Verdict]:
        name = f"{divisor.describe()} | {divisor.vars[var_index]} -> {replacement} [k={k}]"
        if failure is not None:
            return [Verdict(claim="restriction", instance=name, status=FAIL, detail=failure)]
        restricted = Ideal(sub_vars, tuple(
            g.substitute(var_index, replacement) for g in ambient.ideal.generators))
        out = [Verdict(claim="restriction", instance=name,
                       status=PASS if restricted.contains_ideal(intrinsic.ideal) else FAIL,
                       detail="I_k(D|_Y) in I_k(D)*O_Y; reducedness of Z|_Y trusted")]
        if expect_equality:
            out.append(Verdict(claim="restriction-generic-equality", instance=name,
                               status=PASS if restricted.equals(intrinsic.ideal) else FAIL,
                               detail="equality for a generic hyperplane draw"))
        return out

    return verdicts


def _generic_restriction_draws(divisor: QDivisor, var_index: int,
                               check: Callable[[Polynomial, bool], list[Verdict]],
                               rng: random.Random, draws: int = 3) -> list[Verdict]:
    """Seeded generic draws, each judged by ``check`` (what
    ``check_restriction(divisor, var_index, k)`` returns), with the redraw
    policy: a draw failing equality while others pass is re-drawn once
    and logged, not treated as a theorem violation; a persistent failure
    stays FAIL."""
    sub_vars = divisor.vars[:var_index] + divisor.vars[var_index + 1:]

    def draw() -> tuple[Polynomial, list[Verdict]]:
        repl = Polynomial.zero(sub_vars)
        for name in sub_vars:
            repl = repl + _random_fraction(rng) * Polynomial.variable(sub_vars, name)
        return repl, check(repl, True)

    out: list[Verdict] = []
    results = [draw() for _ in range(draws)]
    failed = [i for i, (_, vs) in enumerate(results) if not report_ok(vs)]
    if failed and len(failed) < len(results):
        for i in failed:
            repl, _ = results[i]
            out.append(Verdict(claim="restriction-redraw", instance=f"{divisor.describe()} "
                               f"[draw {i}: {repl}]", status=OBSERVED, required=False,
                               detail="single non-generic draw re-drawn and logged"))
            results[i] = draw()
    for _, vs in results:
        out.extend(vs)
    return out


# ---------------------------------------------------------------------------
# Periodicity


def check_periodicity(divisor: QDivisor, multiplicities: Sequence[int],
                      k: int) -> list[Verdict]:
    """I_k(D + D') = (prod f_i^(m_i)) * I_k(D) for the integral divisor
    D' = sum m_i div(f_i) supported on Z."""
    if len(multiplicities) != len(divisor.components):
        raise ValueError("one multiplicity per component required")
    if any(m < 0 for m in multiplicities):
        raise ValueError("integral twist multiplicities must be >= 0")
    shifted = QDivisor(divisor.vars, tuple(
        (f, alpha + m) for (f, alpha), m in zip(divisor.components, multiplicities)))
    name = (f"{divisor.describe()} + {'+'.join(str(m) for m in multiplicities)}*Z [k={k}]")
    lhs = compute_chain(shifted, k)[k]
    rhs_base = compute_chain(divisor, k)[k]
    if not (lhs.exact and rhs_base.exact):
        return [Verdict(claim="periodicity", instance=name, status=FAIL,
                        detail="one side not computable exactly")]
    factor = math.prod((f ** m for f, m in zip(divisor.factors, multiplicities)),
                       start=Polynomial.one(divisor.vars))
    ok = lhs.ideal.equals(factor * rhs_base.ideal)
    return [Verdict(claim="periodicity", instance=name, status=PASS if ok else FAIL,
                    detail=f"twist factor {factor}")]


# ---------------------------------------------------------------------------
# Certificate consistency


def cusp_resolution_data() -> ResolutionData:
    """Log-resolution data of the plane cusp x^2 + y^3 (three point
    blowups): pullback coefficients 2, 3, 6 and discrepancies 1, 2, 4."""
    return ResolutionData(exceptional=(
        ExceptionalDivisor(a=(2,), b=1),
        ExceptionalDivisor(a=(3,), b=2),
        ExceptionalDivisor(a=(6,), b=4),
    ))


def check_certificate_consistency() -> list[Verdict]:
    verdicts: list[Verdict] = []
    res = cusp_resolution_data()
    threshold = Fraction(5, 6)
    grid = [Fraction(1, 2), Fraction(3, 4), Fraction(4, 5), Fraction(5, 6),
            Fraction(9, 10), Fraction(1)]
    for k in (0, 1):
        for alpha in grid:
            decision = triviality_certificate(res, [alpha], k)
            expected = TRIVIAL if k + alpha <= threshold else INCONCLUSIVE
            verdicts.append(Verdict(
                claim="certificate-cusp-threshold",
                instance=f"cusp data, k={k}, alpha={format_rational(alpha)}",
                status=PASS if decision.status == expected else FAIL,
                detail=f"{decision.status}; boundary at k + alpha = 5/6"))
    alph = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
    for n, m, k, alpha in iproduct((2, 3, 4), (2, 3), (0, 1, 2), alph):
        model = OrdinarySingularityModel(n=n, m=m, alpha=alpha)
        trivial = ordinary_triviality(model, k)
        member = alpha_multiple_membership(n, m, alpha, k)
        clash = trivial and member.status.startswith("CONTAINED")
        verdicts.append(Verdict(
            claim="certificate-ordinary-vs-membership",
            instance=f"n={n} m={m} k={k} alpha={format_rational(alpha)}",
            status=FAIL if clash else PASS,
            detail="the two criteria never assert triviality and membership together"))
    # Monotonicity of the resolution-data criterion.
    for k, alpha in iproduct((0, 1, 2), grid):
        if triviality_certificate(res, [alpha], k).status != TRIVIAL:
            continue
        for k2, alpha2 in iproduct(range(k + 1), [a for a in grid if a <= alpha]):
            again = triviality_certificate(res, [alpha2], k2)
            verdicts.append(Verdict(
                claim="certificate-monotone",
                instance=f"cusp data, ({k},{format_rational(alpha)}) -> "
                         f"({k2},{format_rational(alpha2)})",
                status=PASS if again.status == TRIVIAL else FAIL,
                detail="TRIVIAL is downward closed in (k, alpha)"))
    return verdicts


def check_multiplicity_bounds(results: Sequence[HodgeIdealResult], divisor: QDivisor,
                              level: int) -> list[Verdict]:
    """Exact chains honor the multiplicity growth bounds: step growth
    >= m - 1 past the certificate level and the absolute lower bound
    (j - n + 1)(m - 1) for j >= n."""
    m = divisor.support_equation.order_at_origin()
    n = len(divisor.vars)
    name = divisor.describe()
    verdicts: list[Verdict] = []
    exact = {res.k: res for res in results if res.exact}
    for k in sorted(exact):
        if k - 1 in exact and k > level and not exact[k].ideal.is_zero():
            prev, cur = exact[k - 1].ideal, exact[k].ideal
            if prev.is_zero():
                continue
            ok = cur.order_at_origin() >= prev.order_at_origin() + (m - 1)
            verdicts.append(Verdict(
                claim="multiplicity-growth", instance=f"{name} [k={k}]",
                status=PASS if ok else FAIL,
                detail=f"mult I_{k} >= mult I_{k - 1} + {m - 1}"))
        if k >= n and not exact[k].ideal.is_zero():
            bound = singular_multiplicity_bound(n, m, k)
            ok = exact[k].ideal.order_at_origin() >= bound
            verdicts.append(Verdict(
                claim="multiplicity-lower-bound", instance=f"{name} [j={k}]",
                status=PASS if ok else FAIL,
                detail=f"mult I_{k} >= (j - n + 1)(m - 1) = {bound}"))
    return verdicts


# ---------------------------------------------------------------------------
# Suites


def suite_chains(seed: int = DEFAULT_SEED) -> list[Verdict]:
    verdicts: list[Verdict] = []
    for alpha in (Fraction(81, 100), Fraction(9, 10), Fraction(1)):
        d = _divisor(("x", "y"), ("x^2 + y^3", alpha))
        results = compute_chain(d, 2)
        verdicts += check_chain_inclusions(results, d)
        verdicts += check_multiplicity_bounds(results, d, level=0)
    for alpha in (Fraction(1, 2), Fraction(1)):
        d = _divisor(("x", "y"), ("x*y", alpha))
        results = compute_chain(d, 4)
        verdicts += check_chain_inclusions(results, d)
        verdicts += check_multiplicity_bounds(results, d, level=0)
    for a1, a2 in ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1), Fraction(1)),
                   (Fraction(1, 4), Fraction(3, 4))):
        d = _divisor(("x", "y"), ("x", a1), ("y", a2))
        results = compute_chain(d, 4)
        verdicts += check_chain_inclusions(results, d)
    return _sorted_report(verdicts)


def suite_subadditivity(seed: int = DEFAULT_SEED) -> list[Verdict]:
    verdicts: list[Verdict] = []
    half = Fraction(1, 2)
    d1 = _divisor(("x", "y"), ("x", half))
    d2 = _divisor(("x", "y"), ("y", half))
    verdicts += check_subadditivity(d1, d2, 1)
    d1 = _divisor(("x", "y"), ("x", Fraction(1)))
    d2 = _divisor(("x", "y"), ("y", Fraction(1)))
    verdicts += check_subadditivity(d1, d2, 2)
    cusp = _divisor(("x", "y", "z"), ("x^2 + y^3", Fraction(9, 10)))
    line = _divisor(("x", "y", "z"), ("z", Fraction(3, 4)))
    for k in (1, 2):
        verdicts += check_subadditivity(cusp, line, k)
    return _sorted_report(verdicts)


def suite_product(seed: int = DEFAULT_SEED) -> list[Verdict]:
    verdicts: list[Verdict] = []
    cases = [
        (_divisor(("x",), ("x", Fraction(3, 4))), _divisor(("y",), ("y", Fraction(3, 4))), 1),
        (_divisor(("x",), ("x", Fraction(1, 2))), _divisor(("y",), ("y", Fraction(1, 2))), 0),
        (_divisor(("x",), ("x", Fraction(1))), _divisor(("y",), ("y", Fraction(1))), 2),
        (_divisor(("x",), ("x", Fraction(1, 2))),
         _divisor(("y", "z"), ("y", Fraction(1, 2)), ("z", Fraction(1, 2))), 1),
        (_divisor(("x",), ("x", Fraction(3, 2))), _divisor(("y",), ("y", Fraction(1, 2))), 1),
        (_divisor(("x",), ("x", Fraction(3, 4))),
         _divisor(("y", "z"), ("y", Fraction(1, 2)), ("z", Fraction(1))), 2),
    ]
    for d1, d2, k in cases:
        verdicts += check_product_formula(d1, d2, k)
    return _sorted_report(verdicts)


def suite_restriction(seed: int = DEFAULT_SEED) -> list[Verdict]:
    rng = random.Random(seed)
    verdicts: list[Verdict] = []
    cusp = _divisor(("x", "y", "z"), ("x^2 + y^3", Fraction(9, 10)))
    # One checker per level: the z -> 0 plane reuses the k = 1 chains.
    cusp_k1 = check_restriction(cusp, 2, 1)
    verdicts += _generic_restriction_draws(cusp, 2, cusp_k1, rng)
    verdicts += _generic_restriction_draws(cusp, 2, check_restriction(cusp, 2, 2), rng)
    verdicts += cusp_k1(Polynomial.zero(("x", "y")), True)
    snc = _divisor(("x", "y", "z"), ("x", Fraction(1, 2)), ("y", Fraction(1, 2)))
    verdicts += _generic_restriction_draws(snc, 2, check_restriction(snc, 2, 1), rng)
    return _sorted_report(verdicts)


def suite_periodicity(seed: int = DEFAULT_SEED) -> list[Verdict]:
    verdicts: list[Verdict] = []
    verdicts += check_periodicity(_divisor(("x",), ("x", Fraction(1, 2))), (1,), 2)
    verdicts += check_periodicity(_divisor(("x",), ("x", Fraction(1, 2))), (2,), 1)
    verdicts += check_periodicity(
        _divisor(("x", "y"), ("x", Fraction(1, 2)), ("y", Fraction(1, 2))), (1, 1), 1)
    verdicts += check_periodicity(
        _divisor(("x", "y", "z"), ("x^2 + y^2 + z^2", Fraction(3, 4))), (1,), 1)
    return _sorted_report(verdicts)


def suite_certificates(seed: int = DEFAULT_SEED) -> list[Verdict]:
    return _sorted_report(check_certificate_consistency())


SUITES: dict[str, Callable[[int], list[Verdict]]] = {
    "chains": suite_chains,
    "subadditivity": suite_subadditivity,
    "product": suite_product,
    "restriction": suite_restriction,
    "periodicity": suite_periodicity,
    "certificates": suite_certificates,
}

SUITE_ALIASES = {"certificates-consistency": "certificates"}


def run_suites(names: Sequence[str], seed: int = DEFAULT_SEED) -> list[Verdict]:
    verdicts: list[Verdict] = []
    for name in names:
        name = SUITE_ALIASES.get(name, name)
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; expected one of "
                           f"{', '.join(sorted(SUITES))} or 'all'")
        verdicts.extend(SUITES[name](seed))
    return verdicts
