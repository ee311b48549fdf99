"""The Q-divisor data model and Hodge-ideal result records.

A divisor is always given in factored form D = sum alpha_i * div(f_i);
the package never factors polynomials.  All ideals live in the global
polynomial ring and are read at the origin.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .ideal import GroebnerBasis, Ideal
from .poly import Monomial, Polynomial, infer_weights, integer_terms


@dataclass(frozen=True)
class QDivisor:
    """Effective Q-divisor D = sum alpha_i * div(f_i) in factored form."""

    vars: tuple[str, ...]
    components: tuple[tuple[Polynomial, Fraction], ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("a Q-divisor needs at least one component")
        for f, alpha in self.components:
            if f.vars != self.vars:
                raise ValueError(f"component over {f.vars}, divisor over {self.vars}")
            if not f or f.is_constant():
                raise ValueError(f"component equations must be nonconstant, got {f}")
            if not isinstance(alpha, Fraction):
                raise TypeError("component coefficients must be exact rationals")
            if alpha <= 0:
                raise ValueError(f"component coefficients must be positive, got {alpha}")

    @property
    def alphas(self) -> tuple[Fraction, ...]:
        return tuple(alpha for _, alpha in self.components)

    @property
    def factors(self) -> tuple[Polynomial, ...]:
        return tuple(f for f, _ in self.components)

    def used_variables(self) -> tuple[int, ...]:
        """Indices of the ambient variables some component equation uses."""
        return tuple(i for i in range(len(self.vars))
                     if any(f.uses_variable(i) for f in self.factors))

    @functools.cached_property
    def isolated_weights(self) -> Optional[tuple[Fraction, ...]]:
        """The weights ``infer_weights`` finds for the support g, when g is
        weighted-homogeneous with an isolated singularity (its Jacobian
        ideal is zero-dimensional); None otherwise.

        Decided on first use and kept, so the generation-level certificate
        and every derivation step of a chain read one Jacobian basis.
        """
        g = self.support_equation
        weights = infer_weights(g)
        if weights is None or not Ideal(self.vars, [g.diff(i) for i in range(len(self.vars))]) \
                .is_zero_dimensional():
            return None
        return weights

    @functools.cached_property
    def support_equation(self) -> Polynomial:
        """The reduced support equation g = prod f_i, built on first use
        and kept."""
        return math.prod(self.factors, start=Polynomial.one(self.vars))

    @functools.cached_property
    def step_data(self) -> "StepData":
        """The integer data that every derivation step of this divisor
        reads, built on first use and kept (see ``StepData``)."""
        return StepData.of(self)

    def is_reduced_regime(self) -> bool:
        """True when every coefficient lies in (0, 1], i.e. ceil(D) = Z."""
        return all(alpha <= 1 for alpha in self.alphas)

    def with_alpha(self, alpha: Fraction) -> "QDivisor":
        """Same support with every coefficient replaced by ``alpha``."""
        return QDivisor(self.vars, tuple((f, alpha) for f, _ in self.components))

    def describe(self) -> str:
        return " + ".join(f"({alpha})*div({f})" for f, alpha in self.components)


@dataclass(frozen=True, eq=False)
class StepData:
    """The k-independent integer data of the derivation steps of a divisor.

    The support equation (``QDivisor.support_equation``) is
    g = G/g_scale, with G the integer term dict ``g_terms``.  The rows
    P_(i,l) = d_l(f_i)*prod_(j != i) f_j share one scale c_P:
    ``rows[i][l]`` = c_P*P_(i,l), with integer coefficients.
    With den the least common denominator of the alpha_i and
    k + alpha_i = (k*den + shifts[i])/den, the h_l of step k is
    h_l = sum_i (k + alpha_i)*P_(i,l) = H_l(k)/h_scale, where
    H_l(k) = sum_i (k*den + shifts[i])*rows[i][l] and h_scale = den*c_P.
    Only the integer scalars k*den + shifts[i] change from step to step.
    """

    g_scale: int
    g_terms: dict[Monomial, int]
    den: int
    shifts: tuple[int, ...]
    rows: tuple[tuple[dict[Monomial, int], ...], ...]
    h_scale: int

    @classmethod
    def of(cls, divisor: QDivisor) -> "StepData":
        g_scale, (g_terms,) = integer_terms((divisor.support_equation,))
        factors = divisor.factors
        one = Polynomial.one(divisor.vars)
        n = len(divisor.vars)
        cofactors = [math.prod(factors[:i] + factors[i + 1:], start=one)
                     for i in range(len(factors))]
        p_scale, flat = integer_terms([f.diff(ell) * c for f, c in zip(factors, cofactors)
                                       for ell in range(n)])
        den = math.lcm(*(alpha.denominator for alpha in divisor.alphas))
        return cls(g_scale=g_scale, g_terms=g_terms, den=den,
                   shifts=tuple(alpha.numerator * (den // alpha.denominator)
                                for alpha in divisor.alphas),
                   rows=tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(len(factors))),
                   h_scale=den * p_scale)

    def log_rows(self, k: int) -> list[dict[Monomial, int]]:
        """H_l(k) for each variable index l, as integer term dicts."""
        scalars = [k * self.den + a for a in self.shifts]
        out = []
        for ell in range(len(self.rows[0])):
            h: dict[Monomial, int] = {}
            for s, rows in zip(scalars, self.rows):
                for m, c in rows[ell].items():
                    h[m] = h.get(m, 0) + s * c
            out.append({m: c for m, c in h.items() if c})
        return out


def twist_polynomial(divisor: QDivisor) -> Polynomial:
    """prod f_i^(ceil(alpha_i) - 1), the equation of ceil(D) - Z.

    The principal ideal it spans is the module O(Z - ceil(D)); every
    Hodge ideal of D is contained in it.
    """
    return math.prod((f ** (math.ceil(alpha) - 1) for f, alpha in divisor.components
                      if alpha > 1), start=Polynomial.one(divisor.vars))


def periodic_reduce(divisor: QDivisor) -> tuple[QDivisor, Polynomial]:
    """Split D into B = D + Z - ceil(D) with coefficients in (0, 1] and
    the integral twist prod f_i^(ceil(alpha_i) - 1).

    Contract (periodicity of Hodge ideals under integral twists):
    I_k(D) = twist * I_k(B) for every k.
    """
    reduced = tuple(
        (f, alpha - (math.ceil(alpha) - 1)) for f, alpha in divisor.components)
    return QDivisor(divisor.vars, reduced), twist_polynomial(divisor)


def apply_twist(twist: Polynomial, result: HodgeIdealResult) -> HodgeIdealResult:
    """I_k(D) from a result for I_k(B): the ``periodic_reduce`` contract,
    with the twist recorded in the notes when it is not trivial."""
    if twist.is_constant():
        return result
    # twist * G is a Groebner basis as it stands: LT(twist*w) = LT(twist)*LT(w).
    known = [twist * w for w in result.ideal.groebner().basis]
    ideal = Ideal.from_groebner(GroebnerBasis.compute((), twist.vars, known=known))
    return replace(result, ideal=ideal).with_note(f"integral twist {twist} applied")


@dataclass(frozen=True)
class HodgeIdealResult:
    """A computed Hodge ideal I_k(D) with provenance.

    ``exact=False`` means the ideal is a certified lower bound (sub-ideal)
    of the true Hodge ideal.
    """

    k: int
    ideal: Ideal
    method: str = "recursion"  # snc | smooth | ordinary | recursion
    exact: bool = True
    notes: str = ""

    def with_note(self, note: str) -> "HodgeIdealResult":
        combined = f"{self.notes}; {note}" if self.notes else note
        return replace(self, notes=combined)


def _proportional(f: Polynomial, g: Polynomial) -> bool:
    if set(f.terms) != set(g.terms):
        return False
    ratio = None
    for mono, c in f.terms.items():
        r = c / g.terms[mono]
        if ratio is None:
            ratio = r
        elif r != ratio:
            return False
    return True


def _monomial_exponent(f: Polynomial):
    if len(f.terms) != 1:
        return None
    return next(iter(f.terms))


def _is_power_of(a, b) -> bool:
    """Exponent vector a a positive multiple of b (monomial perfect power)."""
    ratio = None
    for x, y in zip(a, b):
        if y == 0:
            if x != 0:
                return False
            continue
        if x % y:
            return False
        r = x // y
        if ratio is None:
            ratio = r
        elif r != ratio:
            return False
    return ratio is not None and ratio >= 2


def validate(divisor: QDivisor) -> list[str]:
    """Exact sanity checks plus recorded trust assumptions.

    Proportional component pairs and monomial perfect powers are detected
    exactly; squarefreeness and pairwise coprimality of general factors
    are user assertions and come back as unverified-assumption notes.
    """
    warnings: list[str] = []
    factors = divisor.factors
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            if _proportional(factors[i], factors[j]):
                warnings.append(
                    f"components {i} and {j} are proportional ({factors[i]} ~ {factors[j]}); "
                    "the support is not reduced")
            else:
                mi, mj = _monomial_exponent(factors[i]), _monomial_exponent(factors[j])
                if mi is not None and mj is not None:
                    if _is_power_of(mi, mj) or _is_power_of(mj, mi):
                        warnings.append(
                            f"component {i} is a perfect power of component {j} (or conversely); "
                            "the support is not reduced")
                else:
                    warnings.append(
                        f"pairwise coprimality of components {i} and {j} is assumed (unverified)")
    for i, f in enumerate(factors):
        exps = _monomial_exponent(f)
        if exps is None:
            warnings.append(f"squarefreeness of component {i} ({f}) is assumed (unverified)")
        elif sum(exps) > 1 and max(exps) > 1:
            warnings.append(f"component {i} ({f}) is a non-reduced monomial")
    return warnings
