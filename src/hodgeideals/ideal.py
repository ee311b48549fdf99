"""Ideal presentations, Buchberger's algorithm, and ideal algebra.

Ideal equality, membership, and containment are all decided through the
unique reduced Groebner basis under graded reverse lexicographic order;
other orders exist for diagnostics only.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Sequence

from .poly import (
    GREVLEX,
    AmbientMismatchError,
    Monomial,
    MonomialOrder,
    Polynomial,
    mono_div,
    mono_lcm,
    mono_mul,
)


def normal_form(f: Polynomial, basis: Sequence[Polynomial],
                order: MonomialOrder = GREVLEX) -> Polynomial:
    """Remainder of multivariate division of ``f`` by ``basis``.

    Every term of the result is reduced (divisible by no basis leading
    term).  Against a reduced Groebner basis the remainder is the unique
    normal form, and it vanishes exactly when ``f`` lies in the ideal.
    """
    divisors = []
    for g in basis:
        if g:
            if g.vars != f.vars:
                raise AmbientMismatchError(f"ambient mismatch: {f.vars} vs {g.vars}")
            divisors.append((g.leading(order), g))
    work = dict(f.terms)
    remainder: dict[Monomial, Fraction] = {}
    key = order.key
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        for (lm, lc), g in divisors:
            q = mono_div(m, lm)
            if q is not None:
                scale = c / lc
                for gm, gc in g.terms.items():
                    if gm == lm:
                        continue
                    t = mono_mul(gm, q)
                    cur = work.get(t)
                    nc = -scale * gc if cur is None else cur - scale * gc
                    if nc:
                        work[t] = nc
                    elif t in work:
                        del work[t]
                break
        else:
            remainder[m] = c
    return Polynomial._raw(f.vars, remainder)


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder = GREVLEX) -> Polynomial:
    (lmf, lcf) = f.leading(order)
    (lmg, lcg) = g.leading(order)
    lcm = mono_lcm(lmf, lmg)
    mf = Polynomial.monomial(f.vars, mono_div(lcm, lmf), Fraction(1) / lcf)
    mg = Polynomial.monomial(g.vars, mono_div(lcm, lmg), Fraction(1) / lcg)
    return mf * f - mg * g


def _poly_sort_key(p: Polynomial, order: MonomialOrder):
    return (order.key(p.leading_monomial(order)),
            len(p.terms),
            sorted((order.key(m), c) for m, c in p.terms.items()))


def groebner_basis(generators: Iterable[Polynomial],
                   order: MonomialOrder = GREVLEX) -> tuple[Polynomial, ...]:
    """The reduced Groebner basis of the ideal spanned by ``generators``.

    Buchberger's algorithm with the normal selection strategy (pair of
    smallest lcm first) and both classical pair-elimination criteria,
    followed by inter-reduction and monic normalization.  The output is
    the unique canonical form of the ideal for the given order, sorted
    by leading monomial descending.  The zero ideal yields ().
    """
    polys = [g for g in generators if g]
    if not polys:
        return ()
    variables = polys[0].vars
    for g in polys:
        if g.vars != variables:
            raise AmbientMismatchError("generators must share one ambient")
    one = Polynomial.one(variables)
    basis = sorted({g.monic(order) for g in polys}, key=lambda p: _poly_sort_key(p, order))
    if any(p.is_constant() for p in basis):
        return (one,)

    lead = [p.leading_monomial(order) for p in basis]
    pairs: set[tuple[int, int]] = {(i, j) for j in range(len(basis)) for i in range(j)}
    done: set[tuple[int, int]] = set()

    def pending(a: int, b: int) -> bool:
        return ((a, b) if a < b else (b, a)) in pairs

    while pairs:
        i, j = min(pairs, key=lambda p: (order.key(mono_lcm(lead[p[0]], lead[p[1]])), p))
        pairs.discard((i, j))
        done.add((i, j))
        lcm = mono_lcm(lead[i], lead[j])
        # First criterion: coprime leading monomials need no reduction.
        if lcm == mono_mul(lead[i], lead[j]):
            continue
        # Chain criterion: a third basis element whose leading monomial
        # divides the lcm and whose pairs with i and j were both handled.
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if mono_div(lcm, lead[k]) is not None and not pending(i, k) and not pending(j, k):
                skip = True
                break
        if skip:
            continue
        rem = normal_form(s_polynomial(basis[i], basis[j], order), basis, order)
        if rem:
            if rem.is_constant():
                return (one,)
            rem = rem.monic(order)
            basis.append(rem)
            lead.append(rem.leading_monomial(order))
            new = len(basis) - 1
            pairs.update((t, new) for t in range(new))

    # Minimalize: keep only elements whose leading monomial is not a
    # multiple of another's.
    minimal: list[int] = []
    for i in sorted(range(len(basis)), key=lambda t: order.key(lead[t])):
        if all(mono_div(lead[i], lead[m]) is None for m in minimal):
            minimal.append(i)
    # Inter-reduce to the reduced basis.
    chosen = [basis[i] for i in minimal]
    reduced = []
    for idx, g in enumerate(chosen):
        others = chosen[:idx] + chosen[idx + 1:]
        h = normal_form(g, others, order)
        if h:
            reduced.append(h.monic(order))
    reduced.sort(key=lambda p: order.key(p.leading_monomial(order)), reverse=True)
    return tuple(reduced)


class GroebnerBasis:
    """A reduced Groebner basis together with its monomial order."""

    __slots__ = ("basis", "order", "vars")

    def __init__(self, basis: Sequence[Polynomial], order: MonomialOrder, variables):
        self.basis = tuple(basis)
        self.order = order
        self.vars = tuple(variables)

    @classmethod
    def compute(cls, generators: Sequence[Polynomial], variables,
                order: MonomialOrder = GREVLEX) -> "GroebnerBasis":
        return cls(groebner_basis(generators, order), order, variables)

    def reduce(self, f: Polynomial) -> Polynomial:
        return normal_form(f, self.basis, self.order)

    def contains(self, f: Polynomial) -> bool:
        return not self.reduce(f)

    def __iter__(self):
        return iter(self.basis)

    def __len__(self):
        return len(self.basis)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroebnerBasis):
            return NotImplemented
        return (self.vars, self.order, self.basis) == (other.vars, other.order, other.basis)

    def __hash__(self) -> int:
        return hash((self.vars, self.order, self.basis))

    def __repr__(self) -> str:
        return f"GroebnerBasis([{', '.join(str(g) for g in self.basis)}], {self.order.name})"


class Ideal:
    """A finitely generated ideal in Q[vars], given by a generator list.

    The empty generator list denotes the zero ideal; the unit ideal is
    representable by the generator 1.  Instances are immutable; the
    reduced Groebner basis is computed lazily and cached per order.
    """

    __slots__ = ("vars", "generators", "_gb_cache")

    def __init__(self, variables: Sequence[str], generators: Iterable[Polynomial]):
        variables = tuple(variables)
        gens = []
        for g in generators:
            if not isinstance(g, Polynomial):
                raise TypeError(f"generators must be polynomials, got {type(g).__name__}")
            if g.vars != variables:
                raise AmbientMismatchError(f"generator over {g.vars}, ideal over {variables}")
            if g:
                gens.append(g)
        object.__setattr__(self, "vars", variables)
        object.__setattr__(self, "generators", tuple(gens))
        object.__setattr__(self, "_gb_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("Ideal is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, variables) -> "Ideal":
        return cls(variables, ())

    @classmethod
    def unit(cls, variables) -> "Ideal":
        return cls(variables, (Polynomial.one(variables),))

    @classmethod
    def principal(cls, f: Polynomial) -> "Ideal":
        return cls(f.vars, (f,))

    @classmethod
    def maximal_at_origin(cls, variables) -> "Ideal":
        return cls(variables, Polynomial.gens(variables))

    @classmethod
    def spanned_by(cls, variables, texts: Iterable[str]) -> "Ideal":
        from .parser import parse_polynomial
        return cls(variables, tuple(parse_polynomial(t, variables) for t in texts))

    # -- Groebner machinery ----------------------------------------------

    def groebner(self, order: MonomialOrder = GREVLEX) -> GroebnerBasis:
        gb = self._gb_cache.get(order.name)
        if gb is None:
            gb = GroebnerBasis.compute(self.generators, self.vars, order)
            self._gb_cache[order.name] = gb
        return gb

    def canonical(self) -> "Ideal":
        """The same ideal presented by its reduced grevlex basis."""
        return Ideal(self.vars, self.groebner().basis)

    def contains_poly(self, f: Polynomial) -> bool:
        if f.vars != self.vars:
            raise AmbientMismatchError(f"polynomial over {f.vars}, ideal over {self.vars}")
        return self.groebner().contains(f)

    def contains_ideal(self, other: "Ideal") -> bool:
        """True iff every generator of ``other`` lies in this ideal."""
        if other.vars != self.vars:
            raise AmbientMismatchError(f"ideals over {self.vars} vs {other.vars}")
        gb = self.groebner()
        return all(gb.contains(g) for g in other.generators)

    def equals(self, other: "Ideal") -> bool:
        if not isinstance(other, Ideal) or other.vars != self.vars:
            return False
        return self.groebner().basis == other.groebner().basis

    __eq__ = equals

    def __hash__(self) -> int:
        return hash(self.vars)

    # -- algebra ----------------------------------------------------------

    def __add__(self, other: "Ideal") -> "Ideal":
        if not isinstance(other, Ideal):
            return NotImplemented
        if other.vars != self.vars:
            raise AmbientMismatchError(f"ideals over {self.vars} vs {other.vars}")
        return Ideal(self.vars, self.generators + other.generators)

    def __mul__(self, other) -> "Ideal":
        if isinstance(other, Polynomial):
            other = Ideal.principal(other)
        if not isinstance(other, Ideal):
            return NotImplemented
        if other.vars != self.vars:
            raise AmbientMismatchError(f"ideals over {self.vars} vs {other.vars}")
        gens = tuple(a * b for a in self.generators for b in other.generators)
        return Ideal(self.vars, gens)

    def __rmul__(self, other) -> "Ideal":
        if isinstance(other, Polynomial):
            return Ideal.principal(other) * self
        return NotImplemented

    def __pow__(self, e: int) -> "Ideal":
        if not isinstance(e, int) or e < 0:
            raise ValueError(f"ideal power wants a non-negative integer, got {e}")
        if e == 0:
            return Ideal.unit(self.vars)
        gens = tuple(
            _product(combo)
            for combo in itertools.combinations_with_replacement(self.generators, e))
        return Ideal(self.vars, gens)

    def order_at_origin(self) -> int:
        """min over generators of the order at the origin.

        This is the largest q with I contained in the q-th power of the
        maximal ideal at the origin.
        """
        if not self.generators:
            raise ValueError("the zero ideal has order +infinity at the origin")
        return min(g.order_at_origin() for g in self.generators)

    def extend(self, variables: Sequence[str]) -> "Ideal":
        """Same generators viewed in a larger polynomial ring."""
        variables = tuple(variables)
        return Ideal(variables, tuple(g.extend(variables) for g in self.generators))

    # -- predicates and printing ------------------------------------------

    def is_zero(self) -> bool:
        return not self.groebner().basis

    def is_unit(self) -> bool:
        basis = self.groebner().basis
        return len(basis) == 1 and basis[0].is_constant()

    def to_str(self, order: MonomialOrder = GREVLEX) -> str:
        return "ideal(" + ", ".join(g.to_str(order) for g in self.groebner(order)) + ")"

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"<ideal({', '.join(str(g) for g in self.generators)}) over {','.join(self.vars)}>"


def _product(polys: Sequence[Polynomial]) -> Polynomial:
    result = polys[0]
    for p in polys[1:]:
        result = result * p
    return result
