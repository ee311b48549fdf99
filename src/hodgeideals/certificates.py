"""Inequality-based triviality and non-triviality decisions from numeric
log-resolution and multiplicity data.

Every decision is one-directional (the criteria are sufficient
conditions) and carries the instantiated inequalities, with exact
rational arithmetic shown, for auditability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .divisor import HodgeIdealResult, QDivisor, twist_polynomial
from .ideal import Ideal
from .poly import format_rational

TRIVIAL = "TRIVIAL"
INCONCLUSIVE = "INCONCLUSIVE"
CONTAINED = "CONTAINED-IN-MAXIMAL-IDEAL"
CONTAINED_CONJECTURAL = "CONTAINED-IN-MAXIMAL-IDEAL-CONJECTURAL"
SMOOTH_CONSISTENT = "SMOOTH-CONSISTENT"
SINGULAR_CERTIFIED = "SINGULAR-CERTIFIED"


@dataclass(frozen=True)
class ExceptionalDivisor:
    """One exceptional prime divisor of a log resolution: per-component
    pullback coefficients and the relative canonical coefficient."""

    a: tuple[int, ...]
    b: int

    def __post_init__(self):
        if not self.a or any(x < 0 for x in self.a) or sum(self.a) < 1:
            raise ValueError(f"pullback coefficients must be >= 0 with positive total, got {self.a}")
        if self.b < 0:
            raise ValueError(f"discrepancy coefficient must be >= 0, got {self.b}")

    @property
    def total(self) -> int:
        return sum(self.a)


@dataclass(frozen=True)
class ResolutionData:
    """Numeric certificate of a log resolution with smooth strict transform."""

    exceptional: tuple[ExceptionalDivisor, ...]
    strict_transform_smooth: bool = True


@dataclass(frozen=True)
class MultiplicityData:
    """Multiplicities of the support and of the divisor along a center W."""

    n: int
    r: int  # codimension of W
    a: int  # mult_W of the reduced support
    b: Fraction  # mult_W of the Q-divisor

    def __post_init__(self):
        if self.a < 1:
            raise ValueError(f"support multiplicity must be >= 1, got {self.a}")
        if not isinstance(self.b, Fraction) or self.b <= 0:
            raise ValueError(f"divisor multiplicity must be a positive rational, got {self.b!r}")
        if not 1 <= self.r <= self.n:
            raise ValueError(f"codimension must lie in 1..{self.n}, got {self.r}")


@dataclass(frozen=True)
class Decision:
    """A certificate verdict plus the instantiated inequalities behind it."""

    status: str
    lines: tuple[str, ...] = ()
    value: Optional[int] = None


def triviality_certificate(res: ResolutionData, alphas: Sequence[Fraction],
                           k: int) -> Decision:
    """TRIVIAL when b_i + 1 >= k*a_i + sum_j alpha_j*a_i^j holds for every
    exceptional divisor (single component: (b_i+1)/a_i >= k + alpha);
    otherwise INCONCLUSIVE, since the criterion is one-directional.

    Requires a smooth strict transform and coefficients in (0, 1]
    (periodic-reduce first).
    """
    alphas = tuple(alphas)
    if k < 0:
        raise ValueError(f"filtration level must be >= 0, got {k}")
    if not res.strict_transform_smooth:
        raise ValueError("the triviality criterion needs a smooth strict transform")
    for alpha in alphas:
        if not 0 < alpha <= 1:
            raise ValueError(
                f"coefficients must lie in (0, 1] (apply periodic_reduce first), got {alpha}")
    lines = []
    ok = True
    for idx, exc in enumerate(res.exceptional):
        if len(exc.a) != len(alphas):
            raise ValueError(
                f"exceptional record {idx} lists {len(exc.a)} components, divisor has {len(alphas)}")
        if len(alphas) == 1:
            lhs = Fraction(exc.b + 1, exc.total)
            rhs = k + alphas[0]
            holds = lhs >= rhs
            lines.append(f"F{idx + 1}: ({exc.b}+1)/{exc.total} = {format_rational(lhs)} "
                         f"{'>=' if holds else '<'} {format_rational(rhs)} = k + alpha")
        else:
            lhs = Fraction(exc.b + 1)
            rhs = Fraction(k * exc.total) + sum(
                (alpha * aij for alpha, aij in zip(alphas, exc.a)), Fraction(0))
            holds = lhs >= rhs
            terms = " + ".join(f"{format_rational(alpha)}*{aij}"
                               for alpha, aij in zip(alphas, exc.a))
            lines.append(f"F{idx + 1}: {exc.b}+1 = {format_rational(lhs)} "
                         f"{'>=' if holds else '<'} {k}*{exc.total} + {terms} "
                         f"= {format_rational(rhs)}")
        ok = ok and holds
    if not res.exceptional:
        lines.append("no exceptional divisors: the support is smooth and the "
                     "inequality holds vacuously")
    return Decision(status=TRIVIAL if ok else INCONCLUSIVE, lines=tuple(lines))


def _largest_strictly_below(t: Fraction) -> int:
    """Largest integer q with q < t."""
    f = math.floor(t)
    return f - 1 if f == t else f


def nontriviality_symbolic_power(md: MultiplicityData, k: int,
                                 q: Optional[int] = None) -> Decision:
    """Largest q with I_k(D) certified inside the q-th symbolic power of
    the center ideal, via the two sufficient conditions

        b + k*a > q + r + 2k - 1    and    (k+1)*b > q + r + 2k - 1.

    With ``q`` given, decides that specific containment instead.  For a
    point center the symbolic power is the ordinary power of the maximal
    ideal; higher-dimensional centers are reported as unverified claims.
    """
    if k < 0:
        raise ValueError(f"filtration level must be >= 0, got {k}")
    t1 = md.b + k * md.a - md.r - 2 * k + 1
    t2 = (k + 1) * md.b - md.r - 2 * k + 1
    q1 = _largest_strictly_below(Fraction(t1))
    q2 = _largest_strictly_below(Fraction(t2))
    best = max(0, q1, q2)
    lines = (
        f"b + k*a = {format_rational(md.b)} + {k}*{md.a} = {format_rational(md.b + k * md.a)} "
        f"> q + r + 2k - 1 = q + {md.r + 2 * k - 1}  certifies q <= {max(q1, 0)}",
        f"(k+1)*b = {k + 1}*{format_rational(md.b)} = {format_rational((k + 1) * md.b)} "
        f"> q + r + 2k - 1 = q + {md.r + 2 * k - 1}  certifies q <= {max(q2, 0)}",
    )
    note = () if md.r == md.n else (
        "center has positive dimension: containment claim emitted without symbolic verification",)
    if q is not None:
        if q < 0:
            raise ValueError(f"symbolic power exponent must be >= 0, got {q}")
        certified = q <= best
        return Decision(status="CERTIFIED" if certified else INCONCLUSIVE,
                        lines=lines + note, value=q if certified else None)
    return Decision(status="CERTIFIED" if best > 0 else INCONCLUSIVE,
                    lines=lines + note, value=best)


def singular_multiplicity_bound(n: int, m: int, j: int) -> int:
    """Lower bound (j - n + 1)*(m - 1) on mult_0 I_j(D) for j >= n, where
    m is the multiplicity of the singular support; 0 below that range."""
    if j < n:
        return 0
    return (j - n + 1) * (m - 1)


def alpha_multiple_membership(n: int, m: int, alpha: Fraction, k: int,
                              proportional: bool = True) -> Decision:
    """Membership of I_k(D) in the maximal ideal from multiplicities:
    k*m + alpha*m > n suffices when D = alpha*Z.

    For non-proportional D the same inequality is only conjectural and
    the verdict says so.  Wants n >= 1, m >= 1 and alpha > 0.
    """
    if n < 1 or m < 1:
        raise ValueError(f"dimension and multiplicity must be >= 1, got n={n}, m={m}")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {format_rational(alpha)}")
    lhs = Fraction(k * m) + alpha * m
    holds = lhs > n
    line = (f"k*mult(Z) + mult(D) = {k}*{m} + {format_rational(alpha * m)} "
            f"= {format_rational(lhs)} {'>' if holds else '<='} {n} = n")
    if not holds:
        return Decision(status=INCONCLUSIVE, lines=(line,))
    if proportional:
        return Decision(status=CONTAINED, lines=(line,))
    return Decision(status=CONTAINED_CONJECTURAL,
                    lines=(line, "divisor is not a rational multiple of its support: "
                                 "the criterion is an open question in general"))


def smoothness_test(results: Sequence[HodgeIdealResult], divisor: QDivisor) -> Decision:
    """Smoothness dichotomy for D = alpha*Z: the support is smooth iff
    every I_k equals the twist ideal O(Z - ceil(D)).

    Only exact results participate; a strictly smaller exact ideal
    certifies a singular support.
    """
    twist_ideal = Ideal.principal(twist_polynomial(divisor))
    lines = []
    singular = False
    for res in results:
        if not res.exact:
            continue
        if res.ideal.equals(twist_ideal):
            lines.append(f"k={res.k}: I_k equals the twist ideal")
        elif twist_ideal.contains_ideal(res.ideal):
            lines.append(f"k={res.k}: I_k is strictly smaller than the twist ideal")
            singular = True
        else:
            raise ValueError(
                f"k={res.k}: computed ideal is not contained in the twist ideal; "
                "the result violates the universal containment and cannot be a Hodge ideal")
    return Decision(status=SINGULAR_CERTIFIED if singular else SMOOTH_CONSISTENT,
                    lines=tuple(lines))
