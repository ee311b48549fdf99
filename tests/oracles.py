"""Independent test oracles.

These deliberately avoid the package's Groebner machinery: membership is
decided by degree-truncated linear algebra over exact rationals, and
multiplier-ideal monomial membership by Newton-polyhedron inequalities.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from hodgeideals.poly import GREVLEX, Polynomial


def monomials_up_to(nvars: int, degree: int):
    for total in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(nvars), total):
            m = [0] * nvars
            for i in combo:
                m[i] += 1
            yield tuple(m)


class _Echelon:
    """Row echelon (by grevlex-leading monomial) of the span of all
    x^a * g_i with deg(a) <= N, extended incrementally in N."""

    def __init__(self, gens: Sequence[Polynomial]):
        self.gens = [g for g in gens if g]
        self.nvars = len(self.gens[0].vars) if self.gens else 0
        self.pivots: dict[tuple, dict] = {}
        self.level = -1

    def _reduce(self, row: dict) -> dict:
        key = GREVLEX.key
        while row:
            lead = max(row, key=key)
            pivot = self.pivots.get(lead)
            if pivot is None:
                return row
            c = row[lead]
            for m, v in pivot.items():
                nv = row.get(m, 0) - c * v
                if nv:
                    row[m] = nv
                else:
                    row.pop(m, None)
        return row

    def _insert(self, row: dict) -> None:
        row = self._reduce(row)
        if row:
            lead = max(row, key=GREVLEX.key)
            c = row[lead]
            self.pivots[lead] = {m: v / c for m, v in row.items()}

    def extend_to(self, degree: int) -> None:
        rows = []
        for g in self.gens:
            for total in range(self.level + 1, degree + 1):
                for combo in itertools.combinations_with_replacement(range(self.nvars), total):
                    a = [0] * self.nvars
                    for i in combo:
                        a[i] += 1
                    rows.append({tuple(x + y for x, y in zip(a, m)): c
                                 for m, c in g.terms.items()})
        rows.sort(key=lambda r: GREVLEX.key(max(r, key=GREVLEX.key)))
        for row in rows:
            self._insert(row)
        self.level = degree

    def spans(self, f: Polynomial) -> bool:
        return not self._reduce(dict(f.terms))


def linear_membership(f: Polynomial, gens: Sequence[Polynomial]) -> bool:
    """Brute-force ideal membership: solve f = sum q_i g_i by exact linear
    algebra with deg(q_i) truncated, escalating the truncation degree
    until the verdict is stable, capped at deg(f) * (max deg g_i + 1).

    Independent of the Buchberger engine by construction.
    """
    if not f:
        return True
    gens = [g for g in gens if g]
    if not gens:
        return False
    if any(g.is_constant() for g in gens):
        return True
    deg_f = f.total_degree()
    max_g = max(g.total_degree() for g in gens)
    cap = max(deg_f, 1) * (max_g + 1)
    echelon = _Echelon(gens)
    start = min(deg_f + max_g, cap)
    schedule = sorted({start, min(start + 1, cap), cap})
    previous = None
    for level in schedule:
        echelon.extend_to(level)
        verdict = echelon.spans(f)
        if verdict:
            return True
        if previous is False and level >= start + 1:
            return False  # two consecutive NOs: stable
        previous = verdict
    return False


def product_terms(f: Polynomial, g: Polynomial) -> dict[tuple, Fraction]:
    """The term dict of f*g, accumulated pair by pair of terms with
    ``f``'s terms in the outer loop and zero sums dropped at the end."""
    out: dict[tuple, Fraction] = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def unique_weights(monomials: Sequence[tuple], nvars: int):
    """The weights w with m . w = 1 for every exponent vector m, when
    they are unique and all positive; None otherwise.  Gauss-Jordan
    elimination over ``Fraction``s, each pivot row scaled to pivot 1."""
    rows = [[Fraction(e) for e in m] + [Fraction(1)] for m in monomials]
    pivots = []
    for col in range(nvars):
        r = len(pivots)
        below = [i for i in range(r, len(rows)) if rows[i][col] != 0]
        if not below:
            continue
        rows[r], rows[below[0]] = rows[below[0]], rows[r]
        rows[r] = [v / rows[r][col] for v in rows[r]]
        for i in range(len(rows)):
            if i != r:
                rows[i] = [a - rows[i][col] * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
    if any(row[nvars] != 0 for row in rows[len(pivots):]) or len(pivots) < nvars:
        return None
    weights = tuple(rows[i][nvars] for i in range(nvars))
    return weights if all(w > 0 for w in weights) else None


def newton_member(exponents: Sequence[int], c: Fraction, w: Sequence[int]) -> bool:
    """Monomial multiplier-ideal membership for a diagonal equation
    sum x_i^(d_i): x^w lies in I(c * div) iff w + 1 sits in the interior
    of c times the Newton polyhedron, i.e. sum (w_i + 1)/d_i > c."""
    total = sum(Fraction(e + 1, d) for e, d in zip(w, exponents))
    return total > c


def newton_multiplier_monomials(exponents: Sequence[int], c: Fraction) -> set[tuple]:
    """Minimal monomial generators of the Newton-polyhedron multiplier
    ideal I(c * div(sum x_i^(d_i))), for 0 < c < 1 + sum 1/d_i."""
    candidates = [w for w in itertools.product(*(range(d + 2) for d in exponents))
                  if newton_member(exponents, c, w)]
    return {w for w in candidates
            if not any(v != w and all(a <= b for a, b in zip(v, w)) for v in candidates)}


def log_terms(divisor, k: int) -> list[Polynomial]:
    """h_l = sum_i (k + alpha_i)*d_l(f_i)*prod_(j != i) f_j for each
    variable index l, by ``Fraction`` polynomial arithmetic written out
    term by term: the textbook form of the h_l of a derivation step."""
    variables = divisor.vars
    out = []
    for ell in range(len(variables)):
        h = Polynomial.zero(variables)
        for i, (f, alpha) in enumerate(divisor.components):
            cofactor = Polynomial.one(variables)
            for j, other in enumerate(divisor.factors):
                if j != i:
                    cofactor = cofactor * other
            h = h + (k + alpha) * f.diff(ell) * cofactor
        out.append(h)
    return out


def polynomial_text(p: Polynomial, order=GREVLEX) -> str:
    """The text form of ``p`` as first written: terms sorted by
    ``order.key`` descending, each coefficient printed by ``str(Fraction)``."""
    if not p.terms:
        return "0"
    pieces = []
    for mono, coeff in sorted(p.terms.items(), key=lambda t: order.key(t[0]), reverse=True):
        factors = []
        for name, e in zip(p.vars, mono):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mag = -coeff if coeff < 0 else coeff
        if not factors or mag != 1:
            factors.insert(0, str(mag))
        text = "*".join(factors)
        if not pieces:
            pieces.append(text if coeff > 0 else f"-{text}")
        else:
            pieces.append(f" + {text}" if coeff > 0 else f" - {text}")
    return "".join(pieces)
