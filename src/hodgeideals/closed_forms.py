"""Closed-form Hodge ideals: smooth supports, SNC/monomial divisors,
ordinary singularities, nodal curves, and the quasi-homogeneous
generation-level formula; plus ``classify``, the one place that decides
which of these regimes a divisor is in.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .divisor import HodgeIdealResult, QDivisor, periodic_reduce
from .ideal import Ideal
from .poly import Polynomial


# ---------------------------------------------------------------------------
# Smooth supports


def smooth_support_ideal(regime: Regime, k: int) -> Optional[HodgeIdealResult]:
    """I_k of a divisor whose support is a hyperplane (``regime.linear``):
    I'_k(D) is trivial, so I_k(D) is the twist ideal (f^(ceil(alpha)-1))
    for every k >= 0.  None for any other divisor."""
    if not regime.linear:
        return None
    twist = regime.twist
    ideal = Ideal.unit(regime.divisor.vars) if twist.is_constant() else Ideal.principal(twist)
    return HodgeIdealResult(k=k, ideal=ideal, method="smooth", exact=True,
                            notes="smooth support")


# ---------------------------------------------------------------------------
# Simple normal crossings


def _bounded_compositions(total: int, parts: int, bound: int) -> Iterator[tuple[int, ...]]:
    if parts == 0:
        if total == 0:
            yield ()
        return
    lo = max(0, total - bound * (parts - 1))
    hi = min(bound, total)
    for first in range(lo, hi + 1):
        for rest in _bounded_compositions(total - first, parts - 1, bound):
            yield (first,) + rest


def _monomial_ideal(variables: Sequence[str], positions: Sequence[int], total: int,
                    bound: int) -> Ideal:
    """The monomial ideal spanned by prod x_i^(c_i) over the variables at
    ``positions``, with 0 <= c_i <= ``bound`` and sum c_i = ``total``."""
    variables = tuple(variables)
    n = len(variables)
    gens = []
    for comp in _bounded_compositions(total, len(positions), bound):
        mono = [0] * n
        for pos, e in zip(positions, comp):
            mono[pos] = e
        gens.append(Polynomial._raw(variables, {tuple(mono): Fraction(1)}))
    return Ideal(variables, gens)


def snc_hodge_ideal(regime: Regime, k: int) -> Optional[HodgeIdealResult]:
    """I_k of an SNC divisor supported on coordinate hyperplanes
    (``regime.positions``): the I_k of the reduced SNC divisor, spanned
    by prod x_i^(c_i) with 0 <= c_i <= k and sum c_i = (r-1)k, times the
    round-up twist.  None for any other divisor."""
    positions = regime.positions
    if positions is None:
        return None
    reduced = _monomial_ideal(regime.divisor.vars, positions, (len(positions) - 1) * k, k)
    twist = regime.twist
    ideal = reduced if twist.is_constant() else twist * reduced
    return HodgeIdealResult(k=k, ideal=ideal, method="snc", exact=True,
                            notes="simple normal crossing closed form")


# ---------------------------------------------------------------------------
# Ordinary singularities and nodes


@dataclass(frozen=True)
class OrdinarySingularityModel:
    """A reduced divisor with an ordinary singularity (smooth projectivized
    tangent cone) of multiplicity m at the origin of affine n-space."""

    n: int
    m: int
    alpha: Fraction

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"ambient dimension must be >= 2, got {self.n}")
        if self.m < 2:
            raise ValueError(f"an ordinary singular point has multiplicity >= 2, got {self.m}")
        if not isinstance(self.alpha, Fraction) or not 0 < self.alpha <= 1:
            raise ValueError(f"alpha must be an exact rational in (0, 1], got {self.alpha!r}")


def ordinary_triviality(model: OrdinarySingularityModel, k: int) -> bool:
    """The sharp triviality boundary: I_k trivial iff m <= n/(k + alpha)."""
    return model.m * (k + model.alpha) <= model.n


def ordinary_ideal(model: OrdinarySingularityModel, k: int,
                   variables: Sequence[str]) -> Optional[HodgeIdealResult]:
    """I_k for an ordinary singularity of multiplicity m in dimension n.

    Trivial exactly when m <= n/(k + alpha).  In the parameter region
    (k-1)m + ceil(alpha*m) < n with k <= n-2 (k = 0 folds into the
    multiplier-ideal case) the answer is the maximal-ideal power
    m^(k*m + ceil(alpha*m) - n); a surface node (n = m = 2) has I_k = m^k
    for every 0 < alpha <= 1.
    Outside those regions there is no closed form and None is returned.
    """
    variables = tuple(variables)
    if len(variables) != model.n:
        raise ValueError(f"expected {model.n} variables, got {variables}")
    note = ("ordinary singularity model (smooth projectivized tangent cone); "
            "evaluated on a homogeneous cone representative, where the local "
            "ideal at the origin is the global one")
    if ordinary_triviality(model, k):
        return HodgeIdealResult(k=k, ideal=Ideal.unit(variables), method="ordinary",
                                exact=True, notes=note + "; trivial: m <= n/(k + alpha)")
    if model.n == 2 and model.m == 2:
        # m^k: every monomial of degree k.
        return HodgeIdealResult(k=k, ideal=_monomial_ideal(variables, range(2), k, k),
                                method="ordinary", exact=True,
                                notes="nodal curve: m^k for all 0 < alpha <= 1; "
                                      "filtration generated at level 0; " + note)
    am = math.ceil(model.alpha * model.m)
    if (k - 1) * model.m + am < model.n and k <= model.n - 2:
        # e >= 1: e <= 0 would give m*(k + alpha) <= n, the trivial case above.
        e = k * model.m + am - model.n
        return HodgeIdealResult(k=k, ideal=_monomial_ideal(variables, range(model.n), e, e),
                                method="ordinary", exact=True,
                                notes=note + f"; maximal-ideal power exponent {e}")
    return None


# ---------------------------------------------------------------------------
# Quasi-homogeneous data: minimal exponent and generation level


def generation_level(n: int, alpha_tilde: Fraction, alpha: Fraction) -> int:
    """Generation level floor(n - alpha_tilde - alpha), clamped to [0, n-1]."""
    raw = math.floor(Fraction(n) - alpha_tilde - alpha)
    return max(0, min(n - 1, raw))


# ---------------------------------------------------------------------------
# Diagonal equations (sum of pure powers)


def diagonal_exponents(h: Polynomial) -> Optional[tuple[int, ...]]:
    """Exponents (d_1, ..., d_n) when h = sum c_i x_i^(d_i) with every
    variable appearing in exactly one pure-power term; None otherwise."""
    n = len(h.vars)
    if len(h.terms) != n:
        return None
    d = [0] * n
    for mono in h.terms:
        nz = [i for i, e in enumerate(mono) if e]
        if len(nz) != 1:
            return None
        i = nz[0]
        if d[i]:
            return None
        d[i] = mono[i]
    if any(e == 0 for e in d):
        return None
    return tuple(d)


def diagonal_multiplier_i0(exponents: Sequence[int], alpha: Fraction,
                           variables: Sequence[str]) -> Ideal:
    """I_0 of alpha * div(sum c_i x_i^(d_i)) for 0 < alpha <= 1: the
    monomial ideal of all x^w with sum (w_i + 1)/d_i >= alpha.

    This is the standard multiplier-ideal computation through the Newton
    polyhedron; the closed inequality absorbs the (1 - epsilon) shrink.
    For d_i = m it reduces to the maximal-ideal power with exponent
    ceil(alpha*m) - n.

    The generators are, for each w with w_i < d_i in the first n - 1
    variables, the least power of the last variable that completes it
    (x_i^(d_i - 1) alone is already in the ideal).  They need not be
    minimal; the Groebner basis drops the others.
    """
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    variables = tuple(variables)
    *head, last = exponents
    if len(head) + 1 != len(variables):
        raise ValueError("one exponent per variable required")
    gens = []
    for w in itertools.product(*(range(d) for d in head)):
        rest = alpha - sum((Fraction(e + 1, d) for e, d in zip(w, head)), Fraction(0))
        e = max(0, math.ceil(rest * last) - 1)
        gens.append(Polynomial._raw(variables, {w + (e,): Fraction(1)}))
    return Ideal(variables, gens)


# ---------------------------------------------------------------------------
# Regime classification


@dataclass(frozen=True)
class Regime:
    """What the dispatch, the closed forms, the I_0 seed and the
    generation-level certificate read about one divisor D, computed once
    by ``classify``.

    ``reduced`` and ``twist`` are B and prod f_i^(ceil(alpha_i) - 1) from
    ``periodic_reduce``.  ``linear``: one component cut out by a linear
    form.  ``positions``: every component a distinct coordinate (SNC).
    ``monomial``: squarefree-monomial support.
    ``diagonal``: the exponents of a single component sum c_i x_i^(d_i).
    ``alpha``: the common coefficient of B, if there is one.  ``ordinary``:
    the model of a single cone component sum c_i x_i^m.
    """

    divisor: QDivisor
    reduced: QDivisor
    twist: Polynomial
    linear: bool
    positions: Optional[tuple[int, ...]]
    monomial: bool
    diagonal: Optional[tuple[int, ...]]
    alpha: Optional[Fraction]
    ordinary: Optional[OrdinarySingularityModel]


def classify(divisor: QDivisor) -> Regime:
    """The regime record of ``divisor``; no Groebner basis is computed."""
    reduced, twist = periodic_reduce(divisor)
    factors = divisor.factors
    monos = [next(iter(f.terms)) for f in factors if len(f.terms) == 1]
    monomial = len(monos) == len(factors) and all(sum(col) <= 1 for col in zip(*monos))
    # Squarefree-monomial support with every factor of degree 1 is a set of
    # distinct coordinate hyperplanes.
    positions = tuple(mono.index(1) for mono in monos) \
        if monomial and all(sum(mono) == 1 for mono in monos) else None
    diagonal = diagonal_exponents(factors[0]) if len(factors) == 1 else None
    alphas = set(reduced.alphas)
    alpha = next(iter(alphas)) if len(alphas) == 1 else None
    ordinary = None
    if diagonal is not None and len(set(diagonal)) == 1 and diagonal[0] >= 2 \
            and len(diagonal) >= 2:
        ordinary = OrdinarySingularityModel(n=len(divisor.vars), m=diagonal[0], alpha=alpha)
    return Regime(divisor=divisor, reduced=reduced, twist=twist,
                  linear=len(factors) == 1 and factors[0].total_degree() == 1,
                  positions=positions, monomial=monomial,
                  diagonal=diagonal, alpha=alpha, ordinary=ordinary)
