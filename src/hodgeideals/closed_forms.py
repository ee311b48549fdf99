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

from .divisor import HodgeIdealResult, QDivisor, periodic_reduce, support, twist_polynomial
from .ideal import Ideal
from .poly import Polynomial


class NoClosedFormError(ValueError):
    """The requested regime has no closed form in this package."""


def default_vars(n: int) -> tuple[str, ...]:
    if n <= 3:
        return ("x", "y", "z")[:n]
    return tuple(f"x{i}" for i in range(1, n + 1))


# ---------------------------------------------------------------------------
# Smooth supports


def smooth_support_ideal(divisor: QDivisor, k: int) -> HodgeIdealResult:
    """I_k of a divisor with smooth support: the twist ideal for every k >= 0.

    I'_k(D) is trivial and I_k(D) = (f^(ceil(alpha)-1)).  Smoothness of
    {f = 0} is validated exactly for linear forms and otherwise trusted
    with a note.  Negative k yields the zero ideal.
    """
    if len(divisor.components) != 1:
        raise NoClosedFormError("smooth closed form wants a single component")
    f, alpha = divisor.components[0]
    notes = "smooth support"
    if f.total_degree() != 1:
        notes += f"; smoothness of {{{f} = 0}} asserted by caller (unverified)"
    if k < 0:
        return HodgeIdealResult(k=k, ideal=Ideal.zero(divisor.vars), method="smooth",
                                exact=True, notes=notes + "; filtration vanishes below level 0")
    twist = twist_polynomial(divisor)
    ideal = Ideal.unit(divisor.vars) if twist.is_constant() else Ideal.principal(twist)
    return HodgeIdealResult(k=k, ideal=ideal, method="smooth", exact=True, notes=notes)


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


def _snc_monomial_ideal(variables: Sequence[str], positions: Sequence[int], k: int) -> Ideal:
    """I_k of the reduced SNC divisor cut out by the chosen coordinates:
    the monomial ideal spanned by prod x_i^(c_i) with 0 <= c_i <= k and
    sum c_i = (r-1)k."""
    variables = tuple(variables)
    r = len(positions)
    n = len(variables)
    gens = []
    for comp in _bounded_compositions((r - 1) * k, r, k):
        mono = [0] * n
        for pos, e in zip(positions, comp):
            mono[pos] = e
        gens.append(Polynomial.monomial(variables, mono))
    return Ideal(variables, gens)


def _coordinate_positions(divisor: QDivisor) -> Optional[tuple[int, ...]]:
    """Component positions when every f_i is (a scalar multiple of) a
    distinct single variable; None otherwise."""
    positions = []
    for f in divisor.factors:
        if len(f.terms) != 1:
            return None
        mono = next(iter(f.terms))
        if sum(mono) != 1:
            return None
        positions.append(mono.index(1))
    return tuple(positions) if len(set(positions)) == len(positions) else None


def snc_hodge_ideal(divisor: QDivisor, k: int) -> HodgeIdealResult:
    """I_k of an SNC divisor supported on coordinate hyperplanes:
    the reduced-SNC monomial ideal times the round-up twist."""
    positions = _coordinate_positions(divisor)
    if positions is None:
        raise NoClosedFormError(
            "SNC closed form wants every component to be a distinct coordinate")
    if k < 0:
        return HodgeIdealResult(k=k, ideal=Ideal.zero(divisor.vars), method="snc",
                                exact=True, notes="filtration vanishes below level 0")
    reduced = _snc_monomial_ideal(divisor.vars, positions, k)
    twist = twist_polynomial(divisor)
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


def node_ideal(k: int, alpha: Fraction, variables: Sequence[str] = ("x", "y")) -> HodgeIdealResult:
    """I_k of alpha*(nodal curve) on a surface: the k-th power of the
    maximal ideal at the node, for every 0 < alpha <= 1."""
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    variables = tuple(variables)
    if len(variables) != 2:
        raise ValueError("a node lives on a surface; give exactly two variables")
    if k < 0:
        ideal = Ideal.zero(variables)
    elif k == 0:
        ideal = Ideal.unit(variables)
    else:
        ideal = Ideal.maximal_at_origin(variables) ** k
    return HodgeIdealResult(k=k, ideal=ideal, method="ordinary", exact=True,
                            notes="nodal curve: m^k for all 0 < alpha <= 1; "
                                  "filtration generated at level 0")


def ordinary_ideal(model: OrdinarySingularityModel, k: int,
                   variables: Optional[Sequence[str]] = None) -> HodgeIdealResult:
    """I_k for an ordinary singularity of multiplicity m in dimension n.

    Trivial exactly when m <= n/(k + alpha).  In the parameter region
    (k-1)m + ceil(alpha*m) < n with k <= n-2 (k = 0 folds into the
    multiplier-ideal case) the answer is the maximal-ideal power
    m^(k*m + ceil(alpha*m) - n); a surface node falls back to m^k.
    Outside those regions there is no closed form and a non-exact marker
    is returned.
    """
    variables = tuple(variables) if variables is not None else default_vars(model.n)
    if len(variables) != model.n:
        raise ValueError(f"expected {model.n} variables, got {variables}")
    if k < 0:
        return HodgeIdealResult(k=k, ideal=Ideal.zero(variables), method="ordinary",
                                exact=True, notes="filtration vanishes below level 0")
    note = ("ordinary singularity model (smooth projectivized tangent cone); "
            "evaluated on a homogeneous cone representative, where the local "
            "ideal at the origin is the global one")
    if ordinary_triviality(model, k):
        return HodgeIdealResult(k=k, ideal=Ideal.unit(variables), method="ordinary",
                                exact=True, notes=note + "; trivial: m <= n/(k + alpha)")
    if model.n == 2 and model.m == 2:
        result = node_ideal(k, model.alpha, variables)
        return result.with_note(note)
    am = math.ceil(model.alpha * model.m)
    if (k - 1) * model.m + am < model.n and k <= model.n - 2:
        e = k * model.m + am - model.n
        ideal = Ideal.maximal_at_origin(variables) ** e if e > 0 else Ideal.unit(variables)
        return HodgeIdealResult(k=k, ideal=ideal, method="ordinary", exact=True,
                                notes=note + f"; maximal-ideal power exponent {e}")
    return HodgeIdealResult(
        k=k, ideal=None, method="ordinary", exact=False,
        notes=note + "; no closed form in this parameter region -- "
                     "use the recursion engine or a certificate")


# ---------------------------------------------------------------------------
# Quasi-homogeneous data: minimal exponent and generation level


@dataclass(frozen=True)
class WeightVector:
    """Positive rational weights, one per ambient variable."""

    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.weights:
            raise ValueError("weight vector must be nonempty")
        for w in self.weights:
            if not isinstance(w, Fraction) or w <= 0:
                raise ValueError(f"weights must be positive exact rationals, got {w!r}")


def generation_level(n: int, alpha_tilde: Fraction, alpha: Fraction) -> int:
    """Generation level floor(n - alpha_tilde - alpha), clamped to [0, n-1]."""
    raw = math.floor(Fraction(n) - alpha_tilde - alpha)
    return max(0, min(n - 1, raw))


def infer_weights(h: Polynomial) -> Optional[WeightVector]:
    """Unique positive weights making ``h`` weighted-homogeneous of
    weighted degree 1, or None when no such weights exist (or they are
    not unique)."""
    monos = sorted(h.terms)
    n = len(h.vars)
    # Solve mono . w = 1 for each monomial, by exact Gaussian elimination.
    rows = [[Fraction(e) for e in mono] + [Fraction(1)] for mono in monos]
    pivots: list[int] = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][col]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    for i in range(r, len(rows)):
        if rows[i][n]:
            return None  # inconsistent
    if len(pivots) < n:
        return None  # underdetermined: weights not unique
    weights = [Fraction(0)] * n
    for row, col in zip(rows, pivots):
        weights[col] = row[n]
    if any(w <= 0 for w in weights):
        return None
    return WeightVector(tuple(weights))


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
    """
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    variables = tuple(variables)
    exponents = tuple(exponents)
    if len(exponents) != len(variables):
        raise ValueError("one exponent per variable required")
    candidates = []
    for w in itertools.product(*(range(d + 1) for d in exponents)):
        total = sum(Fraction(e + 1, d) for e, d in zip(w, exponents))
        if total >= alpha:
            candidates.append(w)
    minimal = [w for w in candidates
               if not any(v != w and all(a <= b for a, b in zip(v, w)) for v in candidates)]
    gens = [Polynomial.monomial(variables, w) for w in sorted(minimal)]
    return Ideal(variables, gens)


# ---------------------------------------------------------------------------
# Regime classification


@dataclass(frozen=True)
class Regime:
    """What the dispatch, the I_0 seed and the generation-level
    certificate read about one divisor D, computed once by ``classify``.

    ``reduced`` and ``twist`` are B and prod f_i^(ceil(alpha_i) - 1) from
    ``periodic_reduce``; ``g`` is the support equation.  ``linear``: one
    component cut out by a linear form.  ``positions``: every component a
    distinct coordinate (SNC).  ``monomial``: squarefree-monomial support.
    ``diagonal``: the exponents of a single component sum c_i x_i^(d_i).
    ``alpha``: the common coefficient of B, if there is one.  ``ordinary``:
    the model of a single cone component sum c_i x_i^m.
    """

    divisor: QDivisor
    reduced: QDivisor
    twist: Polynomial
    g: Polynomial
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
    diagonal = diagonal_exponents(factors[0]) if len(factors) == 1 else None
    alphas = set(reduced.alphas)
    alpha = next(iter(alphas)) if len(alphas) == 1 else None
    ordinary = None
    if diagonal is not None and len(set(diagonal)) == 1 and diagonal[0] >= 2 \
            and len(diagonal) >= 2:
        ordinary = OrdinarySingularityModel(n=len(divisor.vars), m=diagonal[0], alpha=alpha)
    return Regime(divisor=divisor, reduced=reduced, twist=twist, g=support(divisor),
                  linear=len(factors) == 1 and factors[0].total_degree() == 1,
                  positions=_coordinate_positions(divisor), monomial=monomial,
                  diagonal=diagonal, alpha=alpha, ordinary=ordinary)
