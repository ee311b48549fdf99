"""Ideal presentations, Buchberger's algorithm, row reduction per
weighted degree, and ideal algebra.

Ideal equality, membership, and containment are all decided through the
unique reduced Groebner basis under graded reverse lexicographic order;
other orders exist for diagnostics only.  ``groebner_basis`` computes it
for any input.  ``graded_basis`` computes the same basis by linear
algebra, for a weighted-homogeneous ideal that is m-primary or (1).
"""

from __future__ import annotations

import heapq
import itertools
import math
from fractions import Fraction
from operator import add, ge, mul, sub
from typing import Iterable, Sequence

from .poly import (
    GREVLEX,
    AmbientMismatchError,
    Monomial,
    MonomialOrder,
    Polynomial,
)


def normal_form(f: Polynomial, basis: Sequence[Polynomial],
                order: MonomialOrder = GREVLEX) -> Polynomial:
    """Remainder of multivariate division of ``f`` by ``basis``.

    Every term of the result is reduced (divisible by no basis leading
    term).  Against a reduced Groebner basis the remainder is the unique
    normal form, and it vanishes exactly when ``f`` lies in the ideal.
    Terms are taken in descending order from a heap, and each is reduced
    by the first basis element, in list order, whose leading monomial
    divides it.
    """
    # [leading monomial, polynomial, its other terms divided by the
    # negated leading coefficient (filled on first use)]
    divisors = []
    for g in basis:
        if g:
            if g.vars != f.vars:
                raise AmbientMismatchError(f"ambient mismatch: {f.vars} vs {g.vars}")
            divisors.append([g.leading(order)[0], g, None])
    desc = order.desc
    work = dict(f.terms)
    heap = [(desc(m), m) for m in work]
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    remainder: dict[Monomial, Fraction] = {}
    while heap:
        m = pop(heap)[1]
        c = work.pop(m, None)
        if c is None:  # cancelled after it was queued
            continue
        for d in divisors:
            lm = d[0]
            if all(map(ge, m, lm)):
                tail = d[2]
                if tail is None:
                    g = d[1]
                    nlc = -g.terms[lm]
                    tail = d[2] = [(gm, gc / nlc) for gm, gc in g.terms.items() if gm != lm]
                q = tuple(map(sub, m, lm))
                for gm, gc in tail:
                    t = tuple(map(add, gm, q))
                    cur = work.get(t)
                    if cur is None:
                        work[t] = c * gc
                        push(heap, (desc(t), t))
                    else:
                        nc = cur + c * gc
                        if nc:
                            work[t] = nc
                        else:
                            del work[t]
                break
        else:
            remainder[m] = c
    return Polynomial._raw(f.vars, remainder)


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder = GREVLEX) -> Polynomial:
    (lmf, lcf) = f.leading(order)
    (lmg, lcg) = g.leading(order)
    lcm = tuple(map(max, lmf, lmg))
    qf = tuple(map(sub, lcm, lmf))
    qg = tuple(map(sub, lcm, lmg))
    out = {tuple(map(add, m, qf)): c if lcf == 1 else c / lcf for m, c in f.terms.items()}
    for m, c in g.terms.items():
        t = tuple(map(add, m, qg))
        if lcg != 1:
            c = c / lcg
        cur = out.get(t)
        if cur is None:
            out[t] = -c
        else:
            nc = cur - c
            if nc:
                out[t] = nc
            else:
                del out[t]
    return Polynomial._raw(f.vars, out)


def _monic_sorted(polys: Sequence[Polynomial], order: MonomialOrder) -> list[Polynomial]:
    """``polys`` made monic, sorted by leading monomial, each kept once.
    Equal inputs share a leading monomial, so after the sort each one is
    compared only with its neighbours of the same leading monomial."""
    out: list[Polynomial] = []
    run: list[Polynomial] = []
    for p in sorted((g.monic(order) for g in polys),
                    key=lambda p: order.key(p.leading_monomial(order))):
        if run and run[0].leading_monomial(order) != p.leading_monomial(order):
            run = []
        if p not in run:
            run.append(p)
            out.append(p)
    return out


def groebner_basis(generators: Iterable[Polynomial],
                   order: MonomialOrder = GREVLEX,
                   known: Sequence[Polynomial] = ()) -> tuple[Polynomial, ...]:
    """The reduced Groebner basis of the ideal spanned by ``known`` and
    ``generators``.

    ``known`` must already be a Groebner basis for ``order`` (it need not
    be reduced); this is not checked.  No pairs are formed among its
    elements: their S-polynomials already reduce to zero.  They still
    enter the basis through the pair update below, are paired with every
    later element and take part in inter-reduction.

    When every input is a monomial (the unit ideal included), the inputs
    are read as given: the result is their minimal monomials, sorted, for
    every order, and no pair is formed.

    Otherwise the inputs are made monic and entered ``known`` first, each
    list in ascending order of leading monomial with duplicates dropped.
    Then Buchberger's algorithm with the normal selection strategy (pair
    of smallest lcm first, from a heap) and the Gebauer-Moeller pair
    update (Gebauer & Moeller, "On an installation of Buchberger's
    algorithm", J. Symbolic Comput. 6, 1988): each new basis element has
    its pairs pruned by the chain and coprime criteria when they are
    created, removes the pending pairs whose lcm its leading monomial
    strictly divides, and retires the elements whose leading monomials
    it divides from further pairing.  Inter-reduction and monic
    normalization follow.  The output is the unique canonical form of
    the ideal for the given order, sorted by leading monomial
    descending.  The zero ideal yields ().
    """
    polys = [g for g in generators if g]
    seeds = [g for g in known if g]
    if not polys and not seeds:
        return ()
    variables = (seeds or polys)[0].vars
    for g in itertools.chain(seeds, polys):
        if g.vars != variables:
            raise AmbientMismatchError("generators must share one ambient")
    key = order.key
    # Monomials are a Groebner basis as they stand, and minimal monomials
    # a reduced one: no pairs, and no division to inter-reduce them.  A
    # nonzero constant is the monomial 1, which divides every other.
    if all(len(p.terms) == 1 for p in itertools.chain(seeds, polys)):
        minimal: list[Monomial] = []
        for m in sorted({m for p in itertools.chain(seeds, polys) for m in p.terms}, key=key):
            if not any(all(map(ge, m, d)) for d in minimal):
                minimal.append(m)
        return tuple(Polynomial._raw(variables, {m: Fraction(1)}) for m in reversed(minimal))

    one = Polynomial.one(variables)
    seeds = _monic_sorted(seeds, order)
    inputs = _monic_sorted(polys, order)
    if any(p.is_constant() for p in itertools.chain(seeds, inputs)):
        return (one,)

    basis: list[Polynomial] = []
    lead: list[Monomial] = []
    active: list[int] = []  # basis elements still paired with new ones, and used to reduce
    # Pending pairs (order key of lcm, i, j, lcm) with i < j; the key
    # and then the indices decide which pair is selected first.
    heap: list[tuple] = []

    def update(h: Polynomial, pair: bool = True) -> None:
        lm = h.leading_monomial(order)
        new = len(basis)
        basis.append(h)
        lead.append(lm)
        if pair:
            # Old pairs whose lcm lm strictly divides are redundant: the
            # pairs with h cover them.
            survivors = [p for p in heap
                         if not all(map(ge, p[3], lm))
                         or tuple(map(max, lead[p[1]], lm)) == p[3]
                         or tuple(map(max, lead[p[2]], lm)) == p[3]]
            if len(survivors) < len(heap):
                heap[:] = survivors
                heapq.heapify(heap)
            # Chain criterion on the new pairs (g, h): keep one pair per
            # lcm, and only for lcms that no other new lcm strictly
            # divides.  Ascending order lists every divisor of an lcm
            # before it.  An lcm shared with a coprime pair needs no pair
            # at all (first criterion).
            fresh = sorted((key(lcm), lcm, g)
                           for g in active for lcm in (tuple(map(max, lead[g], lm)),))
            kept_lcms: list[Monomial] = []
            for (k, lcm), group in itertools.groupby(fresh, key=lambda t: t[:2]):
                if any(all(map(ge, lcm, m)) for m in kept_lcms):
                    continue
                kept_lcms.append(lcm)
                members = [g for _, _, g in group]
                if not any(lcm == tuple(map(add, lead[g], lm)) for g in members):
                    heapq.heappush(heap, (k, members[0], new, lcm))
        active[:] = [g for g in active if not all(map(ge, lead[g], lm))]
        active.append(new)

    for p in seeds:
        update(p, pair=False)
    for p in inputs:
        update(p)
    while heap:
        _, i, j, _ = heapq.heappop(heap)
        rem = normal_form(s_polynomial(basis[i], basis[j], order),
                          [basis[t] for t in active], order)
        if rem:
            if rem.is_constant():
                return (one,)
            update(rem.monic(order))

    # Minimalize: keep only elements whose leading monomial is not a
    # multiple of another's.
    minimal_ids: list[int] = []
    for i in sorted(active, key=lambda t: key(lead[t])):
        if not any(all(map(ge, lead[i], lead[m])) for m in minimal_ids):
            minimal_ids.append(i)
    # Inter-reduce to the reduced basis.
    chosen = [basis[i] for i in minimal_ids]
    reduced = []
    for idx, g in enumerate(chosen):
        others = chosen[:idx] + chosen[idx + 1:]
        h = normal_form(g, others, order)
        if h:
            reduced.append(h.monic(order))
    reduced.sort(key=lambda p: key(p.leading_monomial(order)), reverse=True)
    return tuple(reduced)


def graded_basis(generators: Iterable[dict[Monomial, int]], variables: Sequence[str],
                 weights: Sequence[int]) -> tuple[Polynomial, ...]:
    """The reduced grevlex basis of a weighted-homogeneous ideal that is
    m-primary or (1), by row reduction one weighted degree at a time.

    Each generator is an integer row over ``variables``: a term dict
    {exponent tuple: nonzero ``int``}, as ``derivation_step`` builds them
    (``integer_terms`` turns a polynomial into one).  ``weights`` are
    positive integers W_i, one per variable, and every generator must be
    weighted-homogeneous for them (``ValueError`` otherwise).  The ideal
    must contain a power of the maximal ideal at the origin or be the
    unit ideal.  This is not checked: on any other ideal the loop below
    does not end.

    The degree-D part of the ideal is spanned by the generators of degree
    D and x_i times the degree-(D - W_i) part.  Each degree, in ascending
    order, is put in reduced row-echelon form with its columns in grevlex
    order: single-monomial rows first (a monomial already a pivot is
    skipped), then every other row reduced against the pivots so far,
    with a new pivot cleared from the rows above.  A row is m - NF(m) for
    its pivot m, so the rows whose pivot m has no m/x_i among the pivots
    of degree D - W_i are the reduced Groebner basis: no S-pairs are
    formed, and a reduction to zero is a rank drop (Faugère's F4,
    J. Pure Appl. Algebra 139, 1999, made exact by the grading).  Once
    the last generator degree is passed and the last max W_i degrees hold
    every monomial, every higher monomial is x_i times one in the ideal,
    and the loop stops; only that many degrees are kept.

    The reduction is fraction-free.  A pivot row is a pair (p, tail),
    standing for p*pivot + tail with p > 0, integer entries and content 1.
    A pivot column is eliminated by cross-multiplying the two rows with
    p // gcd(p, c) and c // gcd(p, c), c the row's entry in that column,
    and a row that changes has its content divided out again.  An output
    row becomes monic only at the end, its tail entries ``Fraction(a, p)``.
    The result is the same as ``groebner_basis``'s: monic, sorted by
    leading monomial descending.  A nonempty basis records the weights in
    its ``weights`` attribute: the engine has then found every element
    weighted-homogeneous for them and the ideal m-primary or (1).
    """
    variables = tuple(variables)
    weights = tuple(weights)
    n = len(variables)
    if len(weights) != n or any(not isinstance(w, int) or w <= 0 for w in weights):
        raise ValueError(f"want one positive integer weight per variable, got {weights}")
    gens: dict[int, list[dict[Monomial, int]]] = {}
    for v in generators:
        if not v:
            continue
        degrees = {sum(map(mul, m, weights)) for m in v}
        if len(degrees) != 1:
            raise ValueError(f"{Polynomial(variables, v)} is not weighted-homogeneous "
                             f"for the weights {weights}")
        d = degrees.pop()
        if d == 0:  # a nonzero constant
            return _GradedBasis((Polynomial.one(variables),), weights)
        gens.setdefault(d, []).append(v)
    if not gens:
        return ()
    key = GREVLEX.key
    one = Fraction(1)
    gcd = math.gcd
    top, last = max(weights), max(gens)
    # counts[j][d]: the number of monomials of degree d in the first j variables.
    counts = [[1] for _ in range(n + 1)]

    def monomials_of_degree(d: int) -> int:
        for e in range(len(counts[0]), d + 1):
            counts[0].append(0)
            for j, w in enumerate(weights, 1):
                counts[j].append(counts[j - 1][e] + (counts[j][e - w] if e >= w else 0))
        return counts[n][d]

    # degree -> {pivot: (p, tail)}; the last `top` degrees.
    window: dict[int, dict[Monomial, tuple[int, dict[Monomial, int]]]] = {}
    found: list[tuple] = []
    d, full = min(gens), 0
    while d <= last or full < top:
        rows: dict[Monomial, tuple[int, dict[Monomial, int]]] = {}
        pending = []
        for v in gens.get(d, ()):
            if len(v) == 1:
                rows[next(iter(v))] = (1, {})
            else:
                pending.append(dict(v))
        for i, w in enumerate(weights):
            for m, (p, tail) in window.get(d - w, {}).items():
                lead = m[:i] + (m[i] + 1,) + m[i + 1:]
                if not tail:
                    rows[lead] = (1, {})
                else:
                    v = {t[:i] + (t[i] + 1,) + t[i + 1:]: a for t, a in tail.items()}
                    v[lead] = p
                    pending.append(v)
        for v in pending:
            # Row tails hold no pivot column, so one pass clears every pivot.
            for q in [q for q in v if q in rows]:
                c = v.pop(q)
                p, tail = rows[q]
                if p != 1:
                    g = gcd(p, c)
                    s, c = p // g, c // g
                    if s != 1:
                        v = {t: s * a for t, a in v.items()}
                for t, a in tail.items():
                    nc = v.get(t, 0) - c * a
                    if nc:
                        v[t] = nc
                    else:
                        del v[t]
            if not v:
                continue
            lead = max(v, key=key)
            p = v.pop(lead)
            g = gcd(p, *v.values())
            if p < 0:
                g = -g
            if g != 1:
                p //= g
                v = {t: a // g for t, a in v.items()}
            for q, (r, tail) in rows.items():
                a = tail.pop(lead, None)
                if a is not None:
                    g = gcd(p, a)
                    s, a = p // g, a // g
                    if s != 1:
                        r *= s
                        tail = {t: s * b for t, b in tail.items()}
                    for t, b in v.items():
                        nc = tail.get(t, 0) - a * b
                        if nc:
                            tail[t] = nc
                        else:
                            del tail[t]
                    g = gcd(r, *tail.values())
                    if g != 1:
                        r //= g
                        tail = {t: b // g for t, b in tail.items()}
                    rows[q] = (r, tail)
            rows[lead] = (p, v)
        full = full + 1 if len(rows) == monomials_of_degree(d) else 0
        for m, (p, tail) in rows.items():
            if not any(m[i] and m[:i] + (m[i] - 1,) + m[i + 1:] in window.get(d - w, ())
                       for i, w in enumerate(weights)):
                terms = {m: one}
                for t, a in tail.items():
                    terms[t] = Fraction(a, p)
                found.append((key(m), Polynomial._raw(variables, terms)))
        window[d] = rows
        window.pop(d - top, None)
        d += 1
    found.sort(key=lambda t: t[0], reverse=True)
    return _GradedBasis((p for _, p in found), weights)


class _GradedBasis(tuple):
    """A basis returned by ``graded_basis``, with the weights it is
    weighted-homogeneous for; it compares and hashes as a plain tuple."""

    def __new__(cls, basis, weights: tuple[int, ...]):
        self = super().__new__(cls, basis)
        self.weights = weights
        return self


class GroebnerBasis:
    """A reduced Groebner basis together with its monomial order."""

    __slots__ = ("basis", "order", "vars")

    def __init__(self, basis: Sequence[Polynomial], order: MonomialOrder, variables):
        # A tuple is kept as it is, so a graded basis keeps its weights.
        self.basis = basis if isinstance(basis, tuple) else tuple(basis)
        self.order = order
        self.vars = tuple(variables)

    @classmethod
    def compute(cls, generators: Sequence[Polynomial], variables,
                order: MonomialOrder = GREVLEX,
                known: Sequence[Polynomial] = ()) -> "GroebnerBasis":
        """The reduced basis of ``known`` and ``generators``; ``known`` must
        already be a Groebner basis for ``order`` (see ``groebner_basis``)."""
        return cls(groebner_basis(generators, order, known=known), order, variables)

    def reduce(self, f: Polynomial) -> Polynomial:
        return normal_form(f, self.basis, self.order)

    def contains(self, f: Polynomial) -> bool:
        return not self.reduce(f)

    def __iter__(self):
        return iter(self.basis)

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

    # -- Groebner machinery ----------------------------------------------

    def groebner(self, order: MonomialOrder = GREVLEX) -> GroebnerBasis:
        gb = self._gb_cache.get(order.name)
        if gb is None:
            gb = GroebnerBasis.compute(self.generators, self.vars, order)
            self._gb_cache[order.name] = gb
        return gb

    @classmethod
    def from_groebner(cls, gb: GroebnerBasis) -> "Ideal":
        """The ideal presented by the reduced basis ``gb``, which it keeps
        as its cached basis for ``gb.order``."""
        ideal = cls(gb.vars, gb.basis)
        ideal._gb_cache[gb.order.name] = gb
        return ideal

    def canonical(self) -> "Ideal":
        """The same ideal presented by its reduced grevlex basis."""
        return Ideal.from_groebner(self.groebner())

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

    def order_at_origin(self) -> int:
        """min over generators of the order at the origin.

        This is the largest q with I contained in the q-th power of the
        maximal ideal at the origin.
        """
        if not self.generators:
            raise ValueError("the zero ideal has order +infinity at the origin")
        return min(g.order_at_origin() for g in self.generators)

    def extend(self, variables: Sequence[str]) -> "Ideal":
        """Same generators viewed in a larger polynomial ring.

        When the old variables keep their relative order, the cached
        reduced bases carry over: restricted to monomials without the new
        variables, each order is the old one, so an extended reduced
        basis is still reduced and still sorted.
        """
        variables = tuple(variables)
        ideal = Ideal(variables, tuple(g.extend(variables) for g in self.generators))
        if tuple(v for v in variables if v in self.vars) == self.vars:
            for name, gb in self._gb_cache.items():
                ideal._gb_cache[name] = GroebnerBasis(
                    tuple(g.extend(variables) for g in gb.basis), gb.order, variables)
        return ideal

    # -- predicates and printing ------------------------------------------

    def is_zero(self) -> bool:
        return not self.groebner().basis

    def is_zero_dimensional(self) -> bool:
        """True iff V(I) is a finite set of points (the empty set included).

        Finiteness theorem: every variable has a pure power among the
        leading monomials of the reduced grevlex basis (Cox, Little,
        O'Shea, *Ideals, Varieties, and Algorithms*, Ch. 5 Sec. 3).  The
        constant 1 counts as a pure power of each variable.
        """
        leads = [g.leading_monomial() for g in self.groebner()]
        return all(any(not any(e for j, e in enumerate(m) if j != i) for m in leads)
                   for i in range(len(self.vars)))

    def to_str(self, order: MonomialOrder = GREVLEX) -> str:
        return "ideal(" + ", ".join(g.to_str(order) for g in self.groebner(order)) + ")"

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"<ideal({', '.join(str(g) for g in self.generators)}) over {','.join(self.vars)}>"
