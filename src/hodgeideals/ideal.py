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
from operator import add, ge, sub
from typing import Iterable, Sequence

from .poly import (
    GREVLEX,
    AmbientMismatchError,
    Monomial,
    MonomialOrder,
    _ONE,
    Polynomial,
    _checked_variables,
    _Codec,
    _codec,
    _PackedRows,
    extension,
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
    """The S-polynomial of monic ``f`` and ``g``: (L/lm f)*f - (L/lm g)*g
    with L the lcm of their leading monomials.  Only the leading monomials
    are read, so a leading coefficient other than 1 gives a wrong result."""
    lmf = f.leading_monomial(order)
    lmg = g.leading_monomial(order)
    lcm = tuple(map(max, lmf, lmg))
    qf = tuple(map(sub, lcm, lmf))
    qg = tuple(map(sub, lcm, lmg))
    out = {tuple(map(add, m, qf)): c for m, c in f.terms.items()}
    for m, c in g.terms.items():
        t = tuple(map(add, m, qg))
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
    every order, and no pair is formed.  A monomial is compared only with
    the minimal monomials of smaller total degree, so inputs of one
    degree cost no comparison.

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
    # proper divisor has a smaller total degree, so each degree is tested
    # only against the minimal monomials of the degrees below it.  A
    # nonzero constant is the monomial 1, which divides every other.
    if all(len(p.terms) == 1 for p in itertools.chain(seeds, polys)):
        minimal: list[Monomial] = []
        monomials = {m for p in itertools.chain(seeds, polys) for m in p.terms}
        for _, same in itertools.groupby(sorted(monomials, key=sum), key=sum):
            # The comprehension reads ``minimal`` before this degree joins it.
            minimal += [m for m in same if not any(all(map(ge, m, d)) for d in minimal)]
        minimal.sort(key=key, reverse=True)
        return tuple(Polynomial._raw(variables, {m: _ONE}) for m in minimal)

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


def _has_pure_powers(leads: Iterable[Monomial], n: int) -> bool:
    """True iff ``leads`` hold a pure power x_i^e of each of the n
    variables; the constant counts as a pure power of every variable."""
    used = [[i for i, e in enumerate(m) if e] for m in leads]
    return [] in used or {u[0] for u in used if len(u) == 1} == set(range(n))


def graded_basis(generators: _PackedRows, variables: tuple[str, ...]) -> tuple[Polynomial, ...]:
    """The reduced Groebner basis over ``variables`` of the
    weighted-homogeneous ideal spanned by the integer rows ``generators``,
    for the weights and order of their codec (``generators.codec``), when
    the ideal is m-primary or (1): by row reduction one weighted degree at
    a time.

    ``derivation_step`` and a lex or grlex print hand over the rows, built
    by the package from values it checked, and they are taken on trust
    (``_PackedRows``): weighted-homogeneous, on fields that hold them and
    laid out for the order (``_Codec`` refuses an order with no layout).
    The ideal must contain a power of the maximal ideal at the origin or
    be the unit ideal, since on rows that keep a tail in every degree the
    loop below does not end; ``derivation_step`` grades only such steps
    (``recursion._grading``).  When the loop stops, the leads found must
    include a pure power of every variable (``ValueError`` otherwise).

    The rows are reduced on packed monomials: one ``int`` per monomial
    (``_Codec``), so a shift by x_i adds one constant, a row's lead is its
    largest key and the weighted degree is the key's top field.  When a
    degree of the loop reaches the fields' ``limit``, the loop starts over
    on its input, re-packed on the fields ``_codec`` picks for that
    degree; within one degree keys compare as the order does on any
    width, so the new pass repeats the same arithmetic.  Only the output
    is unpacked.

    The degree-D part of the ideal is spanned by the generators of degree
    D and x_i times the degree-(D - W_i) part.  Each degree, in ascending
    order, is put in reduced row-echelon form with its columns sorted by
    the order: single-monomial rows first (a monomial already a pivot is
    skipped), then every other row reduced against the pivots so far,
    with a new pivot cleared from the rows above.  A row is m - NF(m) for
    its pivot m, so the rows whose pivot m has no m/x_i among the rows
    of degree D - W_i are the reduced Groebner basis: no S-pairs are
    formed, and a reduction to zero is a rank drop (Faugère's F4,
    J. Pure Appl. Algebra 139, 1999, made exact by the grading).  The
    pivots x_i*m' with m' a pivot of degree D - W_i are the leads of the
    shifted rows, collected while those rows are built (x_i*LT(h) is
    LT(x_i*h) in every monomial order); every other pivot of the degree
    is output.  Once the last generator degree is passed
    and the last max W_i degrees hold no row with a tail, every later
    degree is spanned by shifts of monomial rows: it gets no row to
    reduce and outputs nothing, so the loop stops there.  Only that many
    degrees are kept.

    The reduction is fraction-free.  A pivot row is a pair (p, tail),
    standing for p*pivot + tail with p > 0, integer entries and content 1.
    A pivot column is eliminated by cross-multiplying the two rows with
    p // gcd(p, c) and c // gcd(p, c), c the row's entry in that column,
    and a row that changes has its content divided out again.  An output
    row becomes monic only at the end, its tail entries ``Fraction(a, p)``.
    The result is the same as ``groebner_basis``'s: monic, sorted by
    leading monomial descending.  A nonempty basis keeps each element's
    integer row p*pivot + tail packed (``packed``), and that is its only
    record: the codec's weights are those the engine found every element
    weighted-homogeneous for, with the ideal m-primary or (1).  The next
    derivation step reads the rows as they are, and a print in lex or
    grlex row-reduces them again; with content 1 and p > 0, each row
    unpacked is what ``integer_terms`` makes of its element.
    """
    codec = generators.codec
    weights, top = codec.weights, codec.top
    gens: dict[int, list[dict[int, int]]] = {}
    for v in generators:
        if v:
            d = next(iter(v)) >> top
            if d == 0:  # a nonzero constant
                return _GradedBasis((Polynomial.one(variables),),
                                    _PackedRows(codec, ({next(iter(v)): 1},)))
            gens.setdefault(d, []).append(v)
    if not gens:
        return ()
    one = Fraction(1)
    gcd = math.gcd
    # A row x^m of its own; its tail is never written, so one is shared.
    monomial_row = (1, {})
    wmax, last = max(weights), max(gens)
    # degree -> {pivot: (p, tail)}; the last `wmax` degrees.
    window: dict[int, dict[int, tuple[int, dict[int, int]]]] = {}
    found: list[tuple[int, int, dict[int, int]]] = []  # (pivot, p, tail)
    d, quiet = min(gens), 0
    while d <= last or quiet < wmax:
        if d >= codec.limit:
            # Degree d does not fit: start over on fields picked for it.
            return graded_basis(generators.on(_codec(weights, codec.order, d)), variables)
        rows: dict[int, tuple[int, dict[int, int]]] = {}
        pending = []
        shifted = set()  # the leads x_i*m' of the shifted rows
        for v in gens.get(d, ()):
            if len(v) == 1:
                rows[next(iter(v))] = monomial_row
            else:
                pending.append(dict(v))
        for w, s in zip(weights, codec.steps):
            for m, (p, tail) in window.get(d - w, {}).items():
                lead = m + s
                shifted.add(lead)
                if not tail:
                    rows[lead] = monomial_row
                else:
                    v = {t + s: a for t, a in tail.items()}
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
            lead = max(v)
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
        quiet = 0 if pending and any(tail for _, tail in rows.values()) else quiet + 1
        for m, (p, tail) in rows.items():
            if m not in shifted:
                found.append((m, p, tail))
        window[d] = rows
        window.pop(d - wmax, None)
        d += 1
    # Below the top field keys compare as ``order`` does in every degree.
    low = codec.low
    found.sort(key=lambda f: f[0] & low, reverse=True)
    decode = codec.decode
    leads = [decode(m) for m, _, _ in found]
    if not _has_pure_powers(leads, len(variables)):
        raise ValueError(f"the ideal is not m-primary: its reduced basis has leads "
                         f"{[Polynomial._raw(variables, {m: one}) for m in leads]}")
    basis, packed = [], _PackedRows(codec)
    for lead, (m, p, tail) in zip(leads, found):
        terms = {lead: one}
        for t, a in tail.items():
            terms[decode(t)] = Fraction(a, p)
        basis.append(Polynomial._raw(variables, terms))
        packed.append({m: p, **tail})
    return _GradedBasis(basis, packed)


class _GradedBasis(tuple):
    """A basis returned by ``graded_basis``, with each element's integer
    row packed (``packed``, a ``_PackedRows``) on a codec of the basis's
    weights and order; it compares and hashes as a plain tuple."""

    def __new__(cls, basis, packed: _PackedRows):
        self = super().__new__(cls, basis)
        self.packed = packed
        return self


class Ideal:
    """A finitely generated ideal in Q[vars], given by a generator list.

    The empty generator list denotes the zero ideal; the unit ideal is
    representable by the generator 1.  Instances are immutable; the
    reduced grevlex basis is computed on first use and kept.
    """

    __slots__ = ("vars", "generators", "_basis")

    def __init__(self, variables: Sequence[str], generators: Iterable[Polynomial]):
        variables = _checked_variables(variables)
        gens = []
        for g in generators:
            if not isinstance(g, Polynomial):
                raise TypeError(f"generators must be polynomials, got {type(g).__name__}")
            if g.vars != variables:
                raise AmbientMismatchError(f"generator over {g.vars}, ideal over {variables}")
            if g:
                gens.append(g)
        _set_vars(self, variables)
        _set_generators(self, tuple(gens))
        _set_basis(self, None)

    def __setattr__(self, name, value):
        raise AttributeError("Ideal is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, variables) -> "Ideal":
        return cls(variables, ())

    @classmethod
    def unit(cls, variables) -> "Ideal":
        return cls.from_basis(variables, (Polynomial.one(variables),))

    @classmethod
    def principal(cls, f: Polynomial) -> "Ideal":
        return cls(f.vars, (f,))

    # -- Groebner machinery ----------------------------------------------

    def groebner(self, order: MonomialOrder = GREVLEX) -> tuple[Polynomial, ...]:
        """The reduced Groebner basis for ``order``.  The grevlex basis is
        kept.  Another order, which only printing asks for, is read from a
        kept basis where it can be: one element is a principal ideal's
        generator, made monic for ``order``; monomials are a monomial
        ideal's minimal monomials in every order, re-sorted; and a basis
        from ``graded_basis`` is row-reduced again in lex or grlex from its
        packed rows, laid out for that order on the same fields.  Any other
        basis or order is computed on each call."""
        basis = self._basis
        if order is not GREVLEX:
            if basis is not None:
                if len(basis) == 1:
                    return (basis[0].monic(order),)
                if all(len(g.terms) == 1 for g in basis):
                    key = order.key
                    return tuple(sorted(basis, key=lambda g: key(next(iter(g.terms))),
                                        reverse=True))
                packed = getattr(basis, "packed", None)
                if packed is not None:
                    try:
                        codec = _Codec(packed.codec.weights, order, packed.codec.width)
                    except ValueError:  # ``order`` has no packed layout
                        pass
                    else:
                        return graded_basis(packed.on(codec), self.vars)
            return groebner_basis(self.generators, order)
        if basis is None:
            basis = groebner_basis(self.generators)
            _set_basis(self, basis)
        return basis

    @classmethod
    def from_basis(cls, variables: Sequence[str], basis: tuple[Polynomial, ...]) -> "Ideal":
        """The ideal presented by its reduced grevlex basis ``basis``, which
        it keeps as it is, so a graded basis keeps its packed rows.  The basis
        is the package's own, so its elements are not checked again."""
        return cls._derived(tuple(variables), tuple(basis), basis)

    @classmethod
    def _derived(cls, variables: tuple[str, ...], generators: tuple[Polynomial, ...],
                 basis: tuple[Polynomial, ...] | None = None) -> "Ideal":
        """The ideal over ``variables`` generated by ``generators``, which
        keeps ``basis`` as its reduced basis when one is given.  Nothing is
        checked: the caller derived the generators, nonzero polynomials over
        ``variables``, from checked values, and says why the checks pass."""
        ideal = object.__new__(cls)
        _set_vars(ideal, variables)
        _set_generators(ideal, generators)
        _set_basis(ideal, basis)
        return ideal

    def contains_ideal(self, other: "Ideal") -> bool:
        """True iff every generator of ``other`` lies in this ideal.

        When the reduced grevlex basis is all monomials (the unit and the
        zero ideal included), a polynomial lies in the ideal iff each of
        its terms is divisible by a basis monomial, which is read off
        without ``normal_form``; the answer is the one the normal forms
        give.
        """
        if other.vars != self.vars:
            raise AmbientMismatchError(f"ideals over {self.vars} vs {other.vars}")
        basis = self.groebner()
        if all(len(g.terms) == 1 for g in basis):
            leads = [next(iter(g.terms)) for g in basis]
            return all(any(all(map(ge, m, d)) for d in leads)
                       for g in other.generators for m in g.terms)
        return not any(normal_form(g, basis) for g in other.generators)

    def equals(self, other: "Ideal") -> bool:
        if not isinstance(other, Ideal) or other.vars != self.vars:
            return False
        return self.groebner() == other.groebner()

    __eq__ = equals

    def __hash__(self) -> int:
        return hash(self.vars)

    # -- algebra ----------------------------------------------------------

    def __add__(self, other: "Ideal") -> "Ideal":
        if not isinstance(other, Ideal):
            return NotImplemented
        if other.vars != self.vars:
            raise AmbientMismatchError(f"ideals over {self.vars} vs {other.vars}")
        # Both generator lists were checked when their ideals were built.
        return Ideal._derived(self.vars, self.generators + other.generators)

    def __mul__(self, other) -> "Ideal":
        if isinstance(other, Polynomial):
            other = Ideal.principal(other)
        if not isinstance(other, Ideal):
            return NotImplemented
        if other.vars != self.vars:
            raise AmbientMismatchError(f"ideals over {self.vars} vs {other.vars}")
        # Over Q a product of nonzero polynomials is nonzero.
        return Ideal._derived(self.vars, tuple(a * b for a in self.generators
                                               for b in other.generators))

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
        """The same ideal viewed over the ambient ``variables``.

        When the shared variables keep their relative order, a kept
        reduced basis carries over: both grevlex orders agree on its
        monomials, so it is still reduced and sorted, and it presents the
        result (``from_basis``).  Otherwise the generators are viewed.
        One map (``poly.extension``) views them all.  A dropped variable
        must be unused (``ValueError`` otherwise); keep the basis
        (``groebner()``) before dropping one, since an ideal extended from
        fewer variables has its reduced basis there.
        """
        variables = tuple(variables)
        extend = extension(self.vars, variables)
        shared = tuple(v for v in self.vars if v in variables)
        if self._basis is not None and tuple(v for v in variables if v in self.vars) == shared:
            return Ideal.from_basis(variables, tuple(map(extend, self._basis)))
        # Viewing a polynomial over other variables keeps its terms.
        return Ideal._derived(variables, tuple(map(extend, self.generators)))

    # -- predicates and printing ------------------------------------------

    def is_zero(self) -> bool:
        return not self.groebner()

    def is_zero_dimensional(self) -> bool:
        """True iff V(I) is a finite set of points (the empty set included).

        Finiteness theorem: every variable has a pure power among the
        leading monomials of the reduced grevlex basis (Cox, Little,
        O'Shea, *Ideals, Varieties, and Algorithms*, Ch. 5 Sec. 3).  The
        constant 1 counts as a pure power of each variable.
        """
        return _has_pure_powers((g.leading_monomial() for g in self.groebner()),
                                len(self.vars))

    def to_str(self, order: MonomialOrder = GREVLEX) -> str:
        return "ideal(" + ", ".join(g.to_str(order) for g in self.groebner(order)) + ")"

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"<ideal({', '.join(str(g) for g in self.generators)}) over {','.join(self.vars)}>"


# The slots' own setters: ``Ideal.__setattr__`` refuses every assignment,
# and these skip the generic ``object.__setattr__`` lookup.
_set_vars = Ideal.__dict__["vars"].__set__
_set_generators = Ideal.__dict__["generators"].__set__
_set_basis = Ideal.__dict__["_basis"].__set__
