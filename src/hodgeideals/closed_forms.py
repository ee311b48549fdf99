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
from operator import itemgetter, mul, sub
from typing import Iterable, Iterator, Optional, Sequence

from .divisor import HodgeIdealResult, Provenance, QDivisor, apply_twist, periodic_reduce
from .ideal import Ideal
from .poly import Monomial, Polynomial


# ---------------------------------------------------------------------------
# Smooth supports


def smooth_support_ideal(regime: Regime, k: int) -> Optional[HodgeIdealResult]:
    """I_k of a divisor whose support is a hyperplane (``regime.linear``):
    I'_k(D) is trivial, so I_k(D) is the twist ideal (f^(ceil(alpha)-1))
    for every k >= 0.  None for any other divisor."""
    if not regime.linear:
        return None
    # A principal ideal's reduced basis is its monic generator; the trivial
    # twist is 1.
    ideal = Ideal.from_basis(regime.reduced.vars, (regime.twist.monic(),))
    return HodgeIdealResult(k=k, ideal=ideal, method="smooth",
                            provenance=Provenance(statement="smooth support"))


# ---------------------------------------------------------------------------
# Simple normal crossings


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Each vector of ``parts`` (>= 1) non-negative integers that sum to
    ``total``, once: the differences of 0, u_1, ..., u_(parts-1), total
    for cuts 0 <= u_1 <= ... <= u_(parts-1) <= total."""
    for cuts in itertools.combinations_with_replacement(range(total + 1), parts - 1):
        yield tuple(map(sub, cuts + (total,), (0,) + cuts))


_reversed = itemgetter(slice(None, None, -1))


def _monomial_ideal(variables: Sequence[str], exponents: Iterable[Monomial]) -> Ideal:
    """The monomial ideal spanned by x^e over the distinct exponent
    vectors ``exponents``, which share one total degree, presented by its
    reduced grevlex basis.

    Monomials of one total degree do not divide one another: they are
    the reduced basis as they stand, once sorted descending.  At one total
    degree grevlex descending is ascending order of the reversed tuples."""
    variables = tuple(variables)
    monos = sorted(exponents, key=_reversed)
    one = Fraction(1)
    return Ideal.from_basis(variables, tuple(Polynomial._raw(variables, {m: one})
                                             for m in monos))


def snc_hodge_ideal(regime: Regime, k: int) -> Optional[HodgeIdealResult]:
    """I_k of an SNC divisor supported on r coordinate hyperplanes
    (``regime.positions``), however its components group them: the I_k
    of the reduced SNC divisor, spanned by prod x_i^(c_i) with
    0 <= c_i <= k and sum c_i = (r-1)k, times the round-up twist.  None
    for any other divisor.

    The c_i are k - d_i over the compositions d of k into r parts.  The
    twist prod f_i^(ceil(alpha_i) - 1) of monomials f_i is one term
    c*x^E, so the product is x^E times the reduced ideal: its exponent
    vector E shifts every monomial, and no polynomial is multiplied."""
    positions = regime.positions
    if positions is None:
        return None
    (shift,) = regime.twist.terms
    top = list(shift)
    for pos in positions:
        top[pos] += k
    exponents = []
    for d in _compositions(k, len(positions)):
        mono = top[:]
        for pos, e in zip(positions, d):
            mono[pos] -= e
        exponents.append(tuple(mono))
    ideal = _monomial_ideal(regime.reduced.vars, exponents)
    return HodgeIdealResult(k=k, ideal=ideal, method="snc",
                            provenance=Provenance(statement="simple normal crossing closed form"))


# ---------------------------------------------------------------------------
# Ordinary singularities and nodes


def ordinary_triviality(n: int, m: int, alpha: Fraction, k: int) -> bool:
    """The sharp triviality boundary: I_k trivial iff m <= n/(k + alpha)."""
    return m * (k + alpha) <= n


def ordinary_ideal(regime: Regime, k: int) -> Optional[HodgeIdealResult]:
    """I_k of a single cone component sum c_i x_i^m (``regime.ordinary``),
    an ordinary singularity of multiplicity m in dimension n, times the
    round-up twist.

    Trivial exactly when m <= n/(k + alpha).  In the parameter region
    (k-1)m + ceil(alpha*m) < n with k <= n-2 (k = 0 folds into the
    multiplier-ideal case) the answer is the maximal-ideal power
    m^(k*m + ceil(alpha*m) - n); a surface node (n = m = 2) has I_k = m^k
    for every 0 < alpha <= 1.
    Outside those regions, and for any other divisor, None is returned.
    """
    m = regime.ordinary
    if m is None:
        return None
    variables = regime.reduced.vars
    n, alpha = len(variables), regime.alpha
    note = ("ordinary singularity model (smooth projectivized tangent cone); "
            "evaluated on a homogeneous cone representative, where the local "
            "ideal at the origin is the global one")
    if ordinary_triviality(n, m, alpha, k):
        ideal, note = Ideal.unit(variables), note + "; trivial: m <= n/(k + alpha)"
    elif n == 2 and m == 2:
        # m^k: every monomial of degree k.
        ideal = _monomial_ideal(variables, _compositions(k, 2))
        note = "nodal curve: m^k for all 0 < alpha <= 1; filtration generated at level 0; " \
            + note
    elif (k - 1) * m + math.ceil(alpha * m) < n and k <= n - 2:
        # e >= 1: e <= 0 would give m*(k + alpha) <= n, the trivial case above.
        e = k * m + math.ceil(alpha * m) - n
        ideal = _monomial_ideal(variables, _compositions(e, n))
        note += f"; maximal-ideal power exponent {e}"
    else:
        return None
    return apply_twist(regime.twist, HodgeIdealResult(
        k=k, ideal=ideal, method="ordinary", provenance=Provenance(statement=note)))


# ---------------------------------------------------------------------------
# Quasi-homogeneous data: minimal exponent and generation level


def generation_level(n: int, alpha_tilde: Fraction, alpha: Fraction) -> int:
    """Generation level floor(n - alpha_tilde - alpha), clamped below at 0
    (it is below n as alpha_tilde > 0 and alpha > 0)."""
    return max(0, math.floor(Fraction(n) - alpha_tilde - alpha))


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
    variables = tuple(variables)
    *head, last = exponents
    # Times N = q*lcm(d_i), alpha = p/q and every (w_i + 1)/d_i are
    # integers, and so is N*rest, rest = alpha - sum (w_i + 1)/d_i the
    # part the last variable makes up: e = ceil(N*rest*d_n / N) - 1.
    scale = math.lcm(*exponents)
    common = alpha.denominator * scale
    steps = [alpha.denominator * (scale // d) for d in head]
    start = alpha.numerator * scale - sum(steps)
    gens = []
    one = Fraction(1)
    for w in itertools.product(*(range(d) for d in head)):
        rest = start - sum(map(mul, w, steps))
        e = max(0, -(-rest * last // common) - 1)
        gens.append(Polynomial._raw(variables, {w + (e,): one}))
    return Ideal(variables, gens)


# ---------------------------------------------------------------------------
# Regime classification


@dataclass(frozen=True)
class Regime:
    """What the dispatch, the closed forms, the I_0 seed and the
    generation-level certificate read about one divisor D, computed once
    by ``classify``: its reduced divisor B, the twist, and the facts of
    the support, which D and B share.

    ``reduced`` and ``twist`` are B and prod f_i^(ceil(alpha_i) - 1) from
    ``periodic_reduce``; every reader takes the variables and the support
    equation from B.  ``linear``: one component cut out by a linear
    form.  ``positions``: the coordinates of a squarefree monomial
    support, however its components group them (SNC).
    ``diagonal``: the exponents of a single component sum c_i x_i^(d_i).
    ``alpha``: the common coefficient of B, if there is one.  ``ordinary``:
    the multiplicity m >= 2 of a single cone component sum c_i x_i^m in
    n >= 2 variables; ``alpha`` is then set and lies in (0, 1].
    """

    reduced: QDivisor
    twist: Polynomial
    linear: bool
    positions: Optional[tuple[int, ...]]
    diagonal: Optional[tuple[int, ...]]
    alpha: Optional[Fraction]
    ordinary: Optional[int]


def classify(divisor: QDivisor) -> Regime:
    """The regime record of ``divisor``; no Groebner basis is computed."""
    reduced, twist = periodic_reduce(divisor)
    factors = divisor.factors
    monos = [next(iter(f.terms)) for f in factors if len(f.terms) == 1]
    # QDivisor refuses monomial components whose product is not squarefree,
    # so an all-monomial support is the product of distinct coordinates.
    positions = tuple(i for i, e in enumerate(map(sum, zip(*monos))) if e) \
        if len(monos) == len(factors) else None
    diagonal = diagonal_exponents(factors[0]) if len(factors) == 1 else None
    alphas = set(reduced.alphas)
    alpha = next(iter(alphas)) if len(alphas) == 1 else None
    ordinary = diagonal[0] if diagonal is not None and len(set(diagonal)) == 1 \
        and diagonal[0] >= 2 and len(diagonal) >= 2 else None
    return Regime(reduced=reduced, twist=twist,
                  linear=len(factors) == 1 and factors[0].total_degree() == 1,
                  positions=positions, diagonal=diagonal, alpha=alpha, ordinary=ordinary)
