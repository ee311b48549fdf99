"""The Q-divisor data model, and Hodge-ideal results with their provenance.

A divisor is always given in factored form D = sum alpha_i * div(f_i);
the package never factors polynomials.  All ideals live in the global
polynomial ring and are read at the origin.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul
from typing import NamedTuple, Optional

from .ideal import Ideal, _has_pure_powers, groebner_basis
from .poly import InputError, Polynomial, extension, infer_weights, integer_terms


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
        columns = zip(*(m for f, _ in self.components for m in f.terms))
        return tuple(i for i, column in enumerate(columns) if any(column))

    @_support_fact
    def grading(self) -> Optional[tuple[int, ...]]:
        """Coprime positive integers u making the support g
        weighted-homogeneous, when its weights are unique
        (``infer_weights``) and its singularity is isolated (its Jacobian
        ideal is zero-dimensional); None otherwise.  The weights of
        weighted degree 1 are u_i / deg_u(g).

        The terms of each d_l(g) are read off g's exponents.  When each is
        one term, the Jacobian ideal is monomial, and zero-dimensional iff
        they hold a pure power of every variable; otherwise its basis decides.
        """
        g, n = self.support_equation, len(self.vars)
        weights = infer_weights(g)
        jacobian = [[m[:l] + (m[l] - 1,) + m[l + 1:] for m in g.terms if m[l]] for l in range(n)]
        if weights is None or not (
                _has_pure_powers((terms[0] for terms in jacobian), n)
                if all(len(terms) == 1 for terms in jacobian) else
                Ideal(self.vars, [g.diff(i) for i in range(n)]).is_zero_dimensional()):
            return None
        scale = math.lcm(*(w.denominator for w in weights))
        integral = [w.numerator * (scale // w.denominator) for w in weights]
        common = math.gcd(*integral)
        return tuple(w // common for w in integral)

    @_support_fact
    def _derivatives(self) -> tuple[dict, int, tuple, list]:
        """The support's derivatives in integer term dicts, which every
        derivation step reads (``recursion._step_rows``): (G, s, P, packed).
        With F_i = c*f_i integral, c > 0 least, P[i][l] = d_l(F_i)*prod_(j != i) F_j
        is c^r*P_(i,l), P_(i,l) = d_l(f_i)*prod_(j != i) f_j, and
        prod F_i = c^r*g = s*G, G = c_g*g integral with c_g > 0 least.
        ``packed`` is a slot, empty at first, where the steps keep one
        packed copy of G and P for the last packing they asked for."""
        c, factors = integer_terms(self.factors)
        one = {(0,) * len(self.vars): 1}
        product = functools.reduce(_times, factors)
        scale = math.gcd(c ** len(factors), *product.values())
        rows = tuple(tuple(_times({m[:l] + (m[l] - 1,) + m[l + 1:]: a * m[l]
                                   for m, a in f.items() if m[l]},
                                  functools.reduce(_times, factors[:i] + factors[i + 1:], one))
                           for l in range(len(self.vars)))
                     for i, f in enumerate(factors))
        return {m: a // scale for m, a in product.items()}, scale, rows, [None, None]

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
        grading makes a point.  So does a ``nodal`` plane curve: there
        V(h) would lie in V(g, dg) with a degenerate Hessian.
        """
        monomial = [len(f.terms) == 1 for f in self.factors]
        linear = [f.total_degree() == 1 for f in self.factors]
        n = len(monomial)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if not (monomial[i] and monomial[j] or linear[i] and linear[j])]
        single = [i for i in range(n) if not (monomial[i] or linear[i])]
        if (pairs or single) and len(self.vars) >= 2 \
                and (self.grading is not None or self.nodal):
            return ()
        return tuple(f"pairwise coprimality of components {i} and {j} is assumed (unverified)"
                     for i, j in pairs) + tuple(
            f"squarefreeness of component {i} ({self.factors[i]}) is assumed (unverified)"
            for i in single)

    @_support_fact
    def nodal(self) -> bool:
        """True for a plane curve {g = 0} whose every singular point is a
        node, a smooth curve included: (g, dg/dx, dg/dy, det Hess g) = (1).
        By the Morse lemma a singular point of a plane curve is a node iff
        the Hessian is nondegenerate there, and by the Nullstellensatz no
        point of V(g, dg) has a degenerate Hessian iff that ideal is (1).
        False in any other number of variables."""
        if len(self.vars) != 2:
            return False
        g = self.support_equation
        gx, gy = g.diff(0), g.diff(1)
        hessian = gx.diff(0) * gy.diff(1) - gx.diff(1) ** 2
        return Ideal(self.vars, (g, gx, gy, hessian)).equals(Ideal.unit(self.vars))

    @functools.cached_property
    def _scalars(self) -> tuple[int, int, tuple[int, ...], Optional[tuple[int, int]]]:
        """The coefficients as the integers a derivation step reads, kept
        per divisor: (den, lambda, shifts, resonance).  With den the least
        common denominator of the alpha_i, k + alpha_i = (k*den + shifts[i])/den,
        and lambda = den*s for the s of ``_derivatives``.  With a
        ``grading``, ``resonance`` = (den*deg g, sum_i shifts[i]*deg f_i);
        None without one."""
        den = math.lcm(*(alpha.denominator for alpha in self.alphas))
        shifts = tuple(alpha.numerator * (den // alpha.denominator) for alpha in self.alphas)
        degrees = self.grading and [f.weighted_degree(self.grading) for f in self.factors]
        resonance = degrees and (den * sum(degrees), sum(map(mul, shifts, degrees)))
        return den, den * self._derivatives[1], shifts, resonance

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
        return _derived(self.vars, components, self._support)

    def _over(self, variables: tuple[str, ...]) -> "QDivisor":
        """The same divisor over ``variables``, which hold every variable a
        component uses.  Nothing is checked: viewing the components over
        other variables keeps their terms, so the checks they passed pass
        again.  The support record is fresh, because a fact decided over
        one ambient need not hold over another."""
        extend = extension(self.vars, variables)
        return _derived(variables, tuple((extend(f), alpha) for f, alpha in self.components), {})

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
    the twist prod f_i^(ceil(alpha_i) - 1).

    Contract (periodicity of Hodge ideals under adding integral divisors):
    I_k(D) = twist * I_k(B) for every k.

    B shares the facts of the support with D, and is D itself, with twist
    1, when every alpha_i <= 1.
    """
    if divisor.is_reduced_regime():
        return divisor, Polynomial.one(divisor.vars)
    return divisor._with_alphas(map(reduced_alpha, divisor.alphas)), twist_polynomial(divisor)


def apply_twist(twist: Polynomial, result: HodgeIdealResult) -> HodgeIdealResult:
    """I_k(D) from a result for I_k(B): the ``periodic_reduce`` contract,
    with the twist recorded in the provenance when it is not trivial."""
    if twist.is_constant():
        return result
    # twist * G is a Groebner basis as it stands: LT(twist*w) = LT(twist)*LT(w).
    known = [twist * w for w in result.ideal.groebner()]
    ideal = Ideal.from_basis(twist.vars, groebner_basis((), known=known))
    return HodgeIdealResult(result.k, ideal, result.method,
                            result.provenance._replace(twist=twist))


class Provenance(NamedTuple):
    """The facts a Hodge-ideal result rests on; ``HodgeIdealResult.notes``
    is the one place that words them.

    ``statement``: a closed form's own one-line statement.  ``source``,
    ``level`` and ``k0``: for a chain of derivation steps, its
    certificate's source, the generation level the chain used and the
    level of its seed; a closed form has no source and level 0.
    ``twist``: the twist applied, when it is not trivial.
    ``caller``: the inputs the caller supplied ("I_0", "certificate"),
    which a chain trusts and a closed form does not use.  ``used_vars``:
    the variables a pullback was computed over, when there is one.
    """

    statement: str = ""
    source: Optional[str] = None
    level: int = 0
    k0: int = 0
    twist: Optional[Polynomial] = None
    caller: tuple[str, ...] = ()
    used_vars: tuple[str, ...] = ()


@dataclass(frozen=True)
class HodgeIdealResult:
    """A computed Hodge ideal I_k(D) with its provenance."""

    k: int
    ideal: Ideal
    method: str = "recursion"  # snc | smooth | ordinary | recursion
    provenance: Provenance = Provenance()

    @property
    def exact(self) -> bool:
        """False when the ideal is only a certified lower bound (sub-ideal)
        of I_k(D).  A step at index k gives I_(k+1) from an exact I_k when
        k >= level, and steps run from the seed at k0, so level k is exact
        when k == k0 or k0 >= level.  A closed form, at level 0, is exact
        at every k."""
        p = self.provenance
        return self.k == p.k0 or p.k0 >= p.level

    @property
    def notes(self) -> str:
        """The provenance in words, its pieces joined by "; "."""
        p = self.provenance
        parts = [p.statement] if p.statement else []
        if p.source is not None:
            parts.append(
                f"derivation-closure chain from k0={p.k0}; certificate {p.source} level {p.level}"
                if self.exact else
                f"lower bound only: the first step, at index {p.k0}, is below certificate "
                f"level {p.level} ({p.source}); the true ideal contains this one")
        if p.twist is not None:
            parts.append(f"integral twist {p.twist} applied")
        parts += [f"{what} supplied by caller (trusted)" if p.source is not None else
                  f"{what} supplied by caller not used: the {self.method} closed form is "
                  f"exact at every level" for what in p.caller]
        if p.used_vars:
            parts.append(f"computed over the variables {', '.join(p.used_vars)} actually used "
                         f"and extended back (smooth pullback)")
        return "; ".join(parts)


def _derived(variables: tuple[str, ...], components: tuple, support: dict) -> QDivisor:
    """A divisor built from one that passed its checks, without the checks
    (see the callers for why they pass), with the support record
    ``support``."""
    divisor = object.__new__(QDivisor)
    object.__setattr__(divisor, "vars", variables)
    object.__setattr__(divisor, "components", components)
    object.__setattr__(divisor, "_support", support)
    return divisor


def _check_coefficient(i: int, alpha) -> None:
    if not isinstance(alpha, Fraction):
        raise TypeError("component coefficients must be exact rationals")
    if alpha <= 0:
        raise InputError(f"component {i}: alpha must be positive, got {alpha}")


def _times(a: dict, b: dict) -> dict:
    """The product of two term dicts."""
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(map(add, m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _proportional(f: Polynomial, g: Polynomial) -> bool:
    if f.terms.keys() != g.terms.keys():
        return False
    mono = next(iter(f.terms))
    ratio = f.terms[mono] / g.terms[mono]
    return all(c == ratio * g.terms[m] for m, c in f.terms.items())
