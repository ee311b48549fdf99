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

from .ideal import Ideal, groebner_basis
from .poly import InputError, Polynomial, infer_weights


def _support_fact(decide):
    """A fact of the support, decided on first use and kept in the record
    ``_support``, which a divisor shares with those that ``with_alpha`` and
    ``periodic_reduce`` build from it: a sweep or a twist decides it once."""
    def get(divisor):
        facts = divisor._support
        if decide.__name__ not in facts:
            facts[decide.__name__] = decide(divisor)
        return facts[decide.__name__]
    return property(get, doc=decide.__doc__)


@dataclass(frozen=True)
class QDivisor:
    """Effective Q-divisor D = sum alpha_i * div(f_i) in factored form."""

    vars: tuple[str, ...]
    components: tuple[tuple[Polynomial, Fraction], ...]

    def __post_init__(self):
        if not self.components:
            raise InputError("a Q-divisor needs at least one component")
        for i, (f, alpha) in enumerate(self.components):
            if f.vars != self.vars:
                raise ValueError(f"component over {f.vars}, divisor over {self.vars}")
            if not f or f.is_constant():
                raise InputError(f"component equations must be nonconstant, got {f}")
            _check_coefficient(i, alpha)
        # The parts of reducedness decidable without a Groebner basis; the
        # rest is listed by ``assumptions``.
        product = tuple(map(sum, zip(*(next(iter(f.terms)) for f in self.factors
                                       if len(f.terms) == 1))))
        if max(product, default=0) > 1:
            raise InputError(
                "the support is not reduced: the monomial components multiply to "
                f"{Polynomial._raw(self.vars, {product: Fraction(1)})}, which is not squarefree")
        others = [(i, f) for i, f in enumerate(self.factors) if len(f.terms) > 1]
        for a, (i, f) in enumerate(others):
            for j, g in others[a + 1:]:
                if _proportional(f, g):
                    raise InputError(f"the support is not reduced: components {i} and {j} "
                                     f"are proportional ({f} ~ {g})")
        object.__setattr__(self, "_support", {})

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

    @_support_fact
    def grading(self) -> Optional[tuple[int, ...]]:
        """Coprime positive integers u making the support g
        weighted-homogeneous, when its weights are unique
        (``infer_weights``) and its singularity is isolated (its Jacobian
        ideal is zero-dimensional); None otherwise.  The weights of
        weighted degree 1 are u_i / deg_u(g).

        The generation-level certificate and every derivation step of a
        chain read this one Jacobian basis.
        """
        g = self.support_equation
        weights = infer_weights(g)
        if weights is None or not Ideal(self.vars, [g.diff(i) for i in range(len(self.vars))]) \
                .is_zero_dimensional():
            return None
        scale = math.lcm(*(w.denominator for w in weights))
        integral = [w.numerator * (scale // w.denominator) for w in weights]
        common = math.gcd(*integral)
        return tuple(w // common for w in integral)

    @_support_fact
    def support_equation(self) -> Polynomial:
        """The reduced support equation g = prod f_i (the component itself
        when there is one)."""
        if len(self.components) == 1:
            return self.components[0][0]
        return math.prod(self.factors, start=Polynomial.one(self.vars))

    @_support_fact
    def assumptions(self) -> tuple[str, ...]:
        """The hypotheses on the support that are assumed, not decided: the
        squarefreeness of each non-monomial component and the coprimality of
        each pair with one, except where the components are linear (a linear
        form is irreducible, and the constructor refuses proportional ones).

        A ``grading`` in n >= 2 variables decides them all: if h^2 divides
        g, then V(h), of dimension n - 1 >= 1, lies in V(dg), which the
        grading makes a point.
        """
        monomial = [len(f.terms) == 1 for f in self.factors]
        linear = [f.total_degree() == 1 for f in self.factors]
        n = len(monomial)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if not (monomial[i] and monomial[j] or linear[i] and linear[j])]
        single = [i for i in range(n) if not (monomial[i] or linear[i])]
        if (pairs or single) and len(self.vars) >= 2 and self.grading is not None:
            return ()
        return tuple(f"pairwise coprimality of components {i} and {j} is assumed (unverified)"
                     for i, j in pairs) + tuple(
            f"squarefreeness of component {i} ({self.factors[i]}) is assumed (unverified)"
            for i in single)

    @functools.cached_property
    def step_data(self):
        """The integer data that every derivation step of this divisor
        reads, built on first use and kept (see ``recursion.StepData``)."""
        from .recursion import StepData
        return StepData.of(self)

    def is_reduced_regime(self) -> bool:
        """True when every coefficient lies in (0, 1], i.e. ceil(D) = Z."""
        return all(alpha <= 1 for alpha in self.alphas)

    def with_alpha(self, alpha: Fraction) -> "QDivisor":
        """Same support with every coefficient replaced by ``alpha``."""
        return self._with_alphas([alpha] * len(self.components))

    def _with_alphas(self, alphas) -> "QDivisor":
        """Same support with new coefficients, sharing the support's facts.
        Only the coefficients are checked: the support passed its checks
        when this divisor was built."""
        components = tuple(zip(self.factors, alphas))
        for i, (_, alpha) in enumerate(components):
            _check_coefficient(i, alpha)
        other = object.__new__(QDivisor)
        object.__setattr__(other, "vars", self.vars)
        object.__setattr__(other, "components", components)
        object.__setattr__(other, "_support", self._support)
        return other

    def describe(self) -> str:
        return " + ".join(f"({alpha})*div({f})" for f, alpha in self.components)


def twist_polynomial(divisor: QDivisor) -> Polynomial:
    """prod f_i^(ceil(alpha_i) - 1), the equation of ceil(D) - Z.

    The principal ideal it spans is the module O(Z - ceil(D)); every
    Hodge ideal of D is contained in it.
    """
    return math.prod((f ** (math.ceil(alpha) - 1) for f, alpha in divisor.components
                      if alpha > 1), start=Polynomial.one(divisor.vars))


def reduced_alpha(alpha: Fraction) -> Fraction:
    """alpha - ceil(alpha) + 1, the coefficient in (0, 1] that periodic
    reduction leaves of a positive ``alpha``."""
    return alpha - math.ceil(alpha) + 1


def periodic_reduce(divisor: QDivisor) -> tuple[QDivisor, Polynomial]:
    """Split D into B = D + Z - ceil(D) with coefficients in (0, 1] and
    the integral twist prod f_i^(ceil(alpha_i) - 1).

    Contract (periodicity of Hodge ideals under integral twists):
    I_k(D) = twist * I_k(B) for every k.

    B shares the facts of the support with D, and is D itself, with twist
    1, when every alpha_i <= 1.
    """
    if divisor.is_reduced_regime():
        return divisor, Polynomial.one(divisor.vars)
    return divisor._with_alphas(map(reduced_alpha, divisor.alphas)), twist_polynomial(divisor)


def apply_twist(twist: Polynomial, result: HodgeIdealResult) -> HodgeIdealResult:
    """I_k(D) from a result for I_k(B): the ``periodic_reduce`` contract,
    with the twist recorded in the notes when it is not trivial."""
    if twist.is_constant():
        return result
    # twist * G is a Groebner basis as it stands: LT(twist*w) = LT(twist)*LT(w).
    known = [twist * w for w in result.ideal.groebner()]
    ideal = Ideal.from_basis(twist.vars, groebner_basis((), known=known))
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

    def with_note(self, note: str, ideal: Optional[Ideal] = None) -> "HodgeIdealResult":
        """This result with ``note`` appended to its notes, and holding
        ``ideal`` instead of its own when one is given."""
        combined = f"{self.notes}; {note}" if self.notes else note
        return replace(self, notes=combined, ideal=self.ideal if ideal is None else ideal)


def _check_coefficient(i: int, alpha) -> None:
    if not isinstance(alpha, Fraction):
        raise TypeError("component coefficients must be exact rationals")
    if alpha <= 0:
        raise InputError(f"component {i}: alpha must be positive, got {alpha}")


def _proportional(f: Polynomial, g: Polynomial) -> bool:
    if f.terms.keys() != g.terms.keys():
        return False
    mono = next(iter(f.terms))
    ratio = f.terms[mono] / g.terms[mono]
    return all(c == ratio * g.terms[m] for m, c in f.terms.items())
