"""The Q-divisor data model and Hodge-ideal result records.

A divisor is always given in factored form D = sum alpha_i * div(f_i);
the package never factors polynomials.  All ideals live in the global
polynomial ring and are read at the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .ideal import Ideal
from .poly import Polynomial


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

    def is_reduced_regime(self) -> bool:
        """True when every coefficient lies in (0, 1], i.e. ceil(D) = Z."""
        return all(alpha <= 1 for alpha in self.alphas)

    def with_alpha(self, alpha: Fraction) -> "QDivisor":
        """Same support with every coefficient replaced by ``alpha``."""
        return QDivisor(self.vars, tuple((f, alpha) for f, _ in self.components))

    def describe(self) -> str:
        return " + ".join(f"({alpha})*div({f})" for f, alpha in self.components)


def support(divisor: QDivisor) -> Polynomial:
    """The reduced support equation g = prod f_i."""
    g = Polynomial.one(divisor.vars)
    for f in divisor.factors:
        g = g * f
    return g


def twist_polynomial(divisor: QDivisor) -> Polynomial:
    """prod f_i^(ceil(alpha_i) - 1), the equation of ceil(D) - Z.

    The principal ideal it spans is the module O(Z - ceil(D)); every
    Hodge ideal of D is contained in it.
    """
    twist = Polynomial.one(divisor.vars)
    for f, alpha in divisor.components:
        e = math.ceil(alpha) - 1
        if e:
            twist = twist * f ** e
    return twist


def periodic_reduce(divisor: QDivisor) -> tuple[QDivisor, Polynomial]:
    """Split D into B = D + Z - ceil(D) with coefficients in (0, 1] and
    the integral twist prod f_i^(ceil(alpha_i) - 1).

    Contract (periodicity of Hodge ideals under integral twists):
    I_k(D) = twist * I_k(B) for every k.
    """
    reduced = tuple(
        (f, alpha - (math.ceil(alpha) - 1)) for f, alpha in divisor.components)
    return QDivisor(divisor.vars, reduced), twist_polynomial(divisor)


@dataclass(frozen=True)
class HodgeIdealResult:
    """A computed Hodge ideal I_k(D) with provenance.

    ``exact=False`` means the ideal, when present, is a certified lower
    bound (sub-ideal) of the true Hodge ideal; a missing ideal is a
    marker that no closed form applies in the requested regime.
    """

    k: int
    ideal: Optional[Ideal]
    method: str = "recursion"  # snc | smooth | ordinary | recursion | certificate
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
                elif mi is None or mj is None:
                    warnings.append(
                        f"pairwise coprimality of components {i} and {j} is assumed (unverified)")
    for i, f in enumerate(factors):
        if _monomial_exponent(f) is None:
            warnings.append(f"squarefreeness of component {i} ({f}) is assumed (unverified)")
        else:
            exps = _monomial_exponent(f)
            if sum(exps) > 1 and max(exps) > 1:
                warnings.append(f"component {i} ({f}) is a non-reduced monomial")
    return warnings
