"""Exact multivariate polynomial arithmetic over the rationals.

Coefficients are arbitrary-precision rationals (``fractions.Fraction``);
monomials are dense exponent tuples whose length equals the ambient
variable count, and the graded engine packs them into one ``int`` each
(``_Codec``).  No floating point is used anywhere in the package.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, itemgetter, mul, neg
from typing import Callable, Iterable, Mapping, Sequence

#: Dense exponent vector; length equals the ambient variable count.
Monomial = tuple[int, ...]


class AmbientMismatchError(ValueError):
    """Two operands live over different ambient variable lists."""


class InputError(ValueError):
    """A refusal of a caller's value that a task document can carry, raised
    where the refusal is decided; the command line exits 2 on it."""


def _coerce_scalar(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational or integer, got {type(value).__name__}")


def _checked_variables(variables: Sequence[str]) -> tuple[str, ...]:
    variables = tuple(variables)
    if not variables:
        raise ValueError("ambient variable list must be nonempty")
    if len(set(variables)) != len(variables):
        raise ValueError(f"ambient variables must be distinct, got {variables}")
    return variables


class MonomialOrder:
    """A monomial order compatible with multiplication; 1 is minimal.

    One instance per order: ``GREVLEX``, ``LEX`` and ``GRLEX``.  Each
    carries two flat sort keys for monomials: under ``key`` larger keys
    mean larger monomials, and under ``desc`` the largest monomial sorts
    first.  Graded reverse lexicographic is the package default and the
    order used for all canonical output.
    """

    __slots__ = ("name", "key", "desc")

    def __init__(self, name: str, key, desc):
        self.name = name
        self.key = key
        self.desc = desc

    @classmethod
    def from_name(cls, name: str) -> "MonomialOrder":
        try:
            return _ORDERS[name]
        except KeyError:
            raise ValueError(f"unknown monomial order {name!r}; "
                             f"expected one of {tuple(_ORDERS)}") from None

    def __repr__(self) -> str:
        return f"MonomialOrder({self.name!r})"


# Grevlex: total degree first, then the smaller exponent of the last
# variable where two monomials differ.  Grlex: total degree, then lex.
GREVLEX = MonomialOrder("grevlex",
                        lambda m: (sum(m),) + tuple(map(neg, m[::-1])),
                        lambda m: (-sum(m),) + m[::-1])
LEX = MonomialOrder("lex",
                    lambda m: m,
                    lambda m: tuple(map(neg, m)))
GRLEX = MonomialOrder("grlex",
                      lambda m: (sum(m),) + m,
                      lambda m: (-sum(m),) + tuple(map(neg, m)))
_ORDERS = {order.name: order for order in (GREVLEX, LEX, GRLEX)}


class Polynomial:
    """Immutable multivariate polynomial with exact rational coefficients.

    ``terms`` maps exponent tuples to nonzero coefficients; zero terms are
    never stored.  All operations are pure and return new values.  The
    leading term is cached for the order it was last asked in.
    """

    __slots__ = ("vars", "terms", "_lead")

    def __init__(self, variables: Sequence[str], terms: Mapping[Monomial, object]):
        variables = _checked_variables(variables)
        n = len(variables)
        clean: dict[Monomial, Fraction] = {}
        for mono, coeff in terms.items():
            mono = tuple(mono)
            if len(mono) != n:
                raise ValueError(f"exponent vector {mono} has length {len(mono)}, ambient has {n}")
            if any(e < 0 or not isinstance(e, int) for e in mono):
                raise ValueError(f"exponents must be non-negative integers, got {mono}")
            c = _coerce_scalar(coeff)
            if c:
                clean[mono] = c
        _set_vars(self, variables)
        _set_terms(self, clean)
        _set_lead(self, None)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def _raw(cls, variables: tuple[str, ...], terms: dict[Monomial, Fraction]) -> "Polynomial":
        """Internal fast path: caller guarantees normalized inputs."""
        self = object.__new__(cls)
        _set_vars(self, variables)
        _set_terms(self, terms)
        _set_lead(self, None)
        return self

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "Polynomial":
        return cls(variables, {})

    @classmethod
    def one(cls, variables: Sequence[str]) -> "Polynomial":
        return cls.constant(variables, _ONE)

    @classmethod
    def constant(cls, variables: Sequence[str], value) -> "Polynomial":
        variables = _checked_variables(variables)
        c = _coerce_scalar(value)
        return cls._raw(variables, {(0,) * len(variables): c} if c else {})

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "Polynomial":
        variables = tuple(variables)
        if name not in variables:
            raise ValueError(f"{name!r} is not among the ambient variables {variables}")
        i = variables.index(name)
        mono = tuple(1 if j == i else 0 for j in range(len(variables)))
        return cls(variables, {mono: 1})

    # -- basic protocol -----------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.vars, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"<poly {self} over {','.join(self.vars)}>"

    def __str__(self) -> str:
        return self.to_str()

    def _check_ambient(self, other: "Polynomial") -> None:
        if self.vars != other.vars:
            raise AmbientMismatchError(f"ambient mismatch: {self.vars} vs {other.vars}")

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ambient(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            c = out.get(mono)
            if c is None:
                out[mono] = coeff
            else:
                c = c + coeff
                if c:
                    out[mono] = c
                else:
                    del out[mono]
        return Polynomial._raw(self.vars, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw(self.vars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        """Product with a polynomial or an exact scalar.

        When either factor is a single term c*x^a, the product shifts the
        other factor's exponents by a and scales its coefficients by c
        (not at all when c is 1).  A shift is injective, so no terms
        combine: the result, term order included, is what the general
        product builds.
        """
        if isinstance(other, (int, Fraction)):
            c = _coerce_scalar(other)
            if not c:
                return Polynomial._raw(self.vars, {})
            return Polynomial._raw(self.vars, {m: v * c for m, v in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ambient(other)
        if len(other.terms) == 1 or len(self.terms) == 1:
            f, t = (self, other) if len(other.terms) == 1 else (other, self)
            ((a, c),) = t.terms.items()
            if c == 1:
                return Polynomial._raw(self.vars, {tuple(map(add, m, a)): v
                                                   for m, v in f.terms.items()})
            return Polynomial._raw(self.vars, {tuple(map(add, m, a)): v * c
                                               for m, v in f.terms.items()})
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(map(add, m1, m2))
                c = out.get(m)
                if c is None:
                    out[m] = c1 * c2
                else:
                    c = c + c1 * c2
                    if c:
                        out[m] = c
                    else:
                        del out[m]
        return Polynomial._raw(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {n}")
        if len(self.terms) == 1:  # (c*x^a)^n is the one term c^n*x^(n*a)
            ((mono, coeff),) = self.terms.items()
            return Polynomial._raw(self.vars, {tuple([e * n for e in mono]): coeff ** n})
        result = Polynomial.one(self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- calculus and substitution --------------------------------------

    def diff(self, index: int) -> "Polynomial":
        """Formal partial derivative with respect to the index-th variable."""
        if not 0 <= index < len(self.vars):
            raise IndexError(f"variable index {index} out of range for {self.vars}")
        # Distinct monomials have distinct derivatives, so no terms combine.
        return Polynomial._raw(self.vars, {
            mono[:index] + (mono[index] - 1,) + mono[index + 1:]: coeff * mono[index]
            for mono, coeff in self.terms.items() if mono[index]})

    def substitute(self, index: int, replacement: "Polynomial") -> "Polynomial":
        """Image under the ring map sending the index-th variable to ``replacement``.

        The replacement must live over the ambient with that variable
        removed, and so does the result.  When no term uses the variable,
        the image is the same terms with that exponent dropped, whatever
        the replacement, and no power of it is formed; this is what the
        general sum returns, term order included.
        """
        if not 0 <= index < len(self.vars):
            raise IndexError(f"variable index {index} out of range for {self.vars}")
        reduced = self.vars[:index] + self.vars[index + 1:]
        if not reduced:
            raise ValueError("cannot eliminate the only ambient variable")
        if replacement.vars != reduced:
            raise AmbientMismatchError(
                f"replacement must live over {reduced}, got {replacement.vars}")
        if not self.uses_variable(index):
            return Polynomial._raw(reduced, {mono[:index] + mono[index + 1:]: coeff
                                             for mono, coeff in self.terms.items()})
        # Group terms by the exponent of the eliminated variable.
        slices: dict[int, dict[Monomial, Fraction]] = {}
        for mono, coeff in self.terms.items():
            e = mono[index]
            rest = mono[:index] + mono[index + 1:]
            slices.setdefault(e, {})[rest] = coeff
        result = Polynomial.zero(reduced)
        for e, part in slices.items():
            result = result + Polynomial._raw(reduced, part) * replacement ** e
        return result

    def extend(self, variables: Sequence[str]) -> "Polynomial":
        """The same polynomial viewed over the ambient ``variables``, which
        must hold every variable a term uses; an old variable that no term
        uses may be dropped."""
        return extension(self.vars, tuple(variables))(self)

    # -- degrees and leading data ---------------------------------------

    def total_degree(self) -> int | None:
        """Maximal total degree of a term, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(m) for m in self.terms)

    def weighted_degree(self, weights: Sequence[int]) -> int | None:
        """The weighted degree sum w_i*e_i that every term shares, or None
        when the terms do not share one (and for the zero polynomial)."""
        degrees = {sum(map(mul, m, weights)) for m in self.terms}
        return degrees.pop() if len(degrees) == 1 else None

    def order_at_origin(self) -> int:
        """Minimal total degree of a term (the multiplicity at the origin)."""
        if not self.terms:
            raise ValueError("the zero polynomial has order +infinity at the origin")
        return min(sum(m) for m in self.terms)

    def leading(self, order: MonomialOrder = GREVLEX) -> tuple[Monomial, Fraction]:
        cached = self._lead
        if cached is not None and cached[0] is order:
            return cached[1]
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        m = max(self.terms, key=order.key)
        lt = (m, self.terms[m])
        _set_lead(self, (order, lt))
        return lt

    def leading_monomial(self, order: MonomialOrder = GREVLEX) -> Monomial:
        return self.leading(order)[0]

    def monic(self, order: MonomialOrder = GREVLEX) -> "Polynomial":
        if not self.terms:
            return self
        _, c = self.leading(order)
        if c == 1:
            return self
        inv = Fraction(1) / c
        return Polynomial._raw(self.vars, {m: v * inv for m, v in self.terms.items()})

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    def uses_variable(self, index: int) -> bool:
        return any(m[index] for m in self.terms)

    # -- printing --------------------------------------------------------

    def to_str(self, order: MonomialOrder = GREVLEX) -> str:
        """Canonical text form: terms descending in ``order``, exact rationals,
        ``^`` for powers and explicit ``*`` between factors."""
        terms = self.terms
        if not terms:
            return "0"
        names = self.vars
        if len(terms) == 1:
            ((mono, coeff),) = terms.items()
            if coeff == 1:  # a monic monomial: its factors, or 1
                return "*".join([name if e == 1 else f"{name}^{e}"
                                 for name, e in zip(names, mono) if e]) or "1"
        pieces = []
        for mono in sorted(terms, key=order.desc) if len(terms) > 1 else terms:
            coeff = terms[mono]
            num, den = coeff.numerator, coeff.denominator
            factors = [name if e == 1 else f"{name}^{e}"
                       for name, e in zip(names, mono) if e]
            if den != 1:
                factors.insert(0, f"{abs(num)}/{den}")
            elif not factors or (num != 1 and num != -1):
                factors.insert(0, str(abs(num)))
            text = "*".join(factors)
            if pieces:
                pieces.append(f" + {text}" if num > 0 else f" - {text}")
            else:
                pieces.append(text if num > 0 else f"-{text}")
        return "".join(pieces)


# The slots' own setters: ``Polynomial.__setattr__`` refuses every
# assignment, and these skip the generic ``object.__setattr__`` lookup.
_set_vars = Polynomial.__dict__["vars"].__set__
_set_terms = Polynomial.__dict__["terms"].__set__
_set_lead = Polynomial.__dict__["_lead"].__set__
#: The coefficient 1, shared by the polynomials built with it.
_ONE = Fraction(1)


def extension(old: tuple[str, ...], new: tuple[str, ...]
              ) -> Callable[[Polynomial], Polynomial]:
    """The map viewing a polynomial over the ambient ``old`` over the
    ambient ``new``, built once for any number of polynomials.  ``new``
    must hold every variable a term uses (``ValueError`` otherwise); an
    old variable that no term uses may be dropped."""
    n = len(old)
    # Each new position reads an old exponent, or the 0 padded after them.
    picks = [old.index(name) if name in old else n for name in new]
    pick = itemgetter(*picks) if len(picks) > 1 else lambda m: tuple(m[i] for i in picks)
    dropped = [i for i, name in enumerate(old) if name not in new]

    def extend(p: Polynomial) -> Polynomial:
        for i in dropped:
            if p.uses_variable(i):
                raise ValueError(f"new ambient {new} must contain {old[i]!r}")
        return Polynomial._raw(new, {pick(m + (0,)): c for m, c in p.terms.items()})
    return extend


def infer_weights(h: Polynomial) -> tuple[Fraction, ...] | None:
    """Unique positive weights, one per variable, making ``h``
    weighted-homogeneous of weighted degree 1, or None when no such
    weights exist (or they are not unique)."""
    monos = sorted(h.terms)
    n = len(h.vars)
    # Solve mono . w = 1 for each monomial by Gauss-Jordan elimination in
    # integers: a row [a_1, ..., a_n, b] stands for a . w = b; a pivot
    # column is cleared from another row by cross-multiplying the two,
    # and the row's content is divided out again.
    rows = [list(mono) + [1] for mono in monos]
    r = 0  # pivots so far
    for col in range(n):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        p = prow[col]
        for i, row in enumerate(rows):
            c = row[col]
            if i != r and c:
                g = math.gcd(p, c)
                s, t = p // g, c // g
                row = [s * a - t * b for a, b in zip(row, prow)]
                g = math.gcd(*row)
                rows[i] = [a // g for a in row] if g > 1 else row
        r += 1
    for i in range(r, len(rows)):
        if rows[i][n]:
            return None  # inconsistent
    if r < n:
        return None  # underdetermined: weights not unique
    # Every column is a pivot, in order: row i reads p*w_i = b.
    weights = tuple(Fraction(row[n], row[i]) for i, row in enumerate(rows[:n]))
    if any(w <= 0 for w in weights):
        return None
    return weights


def integer_terms(polys: Sequence[Polynomial]) -> tuple[int, list[dict[Monomial, int]]]:
    """The least positive integer c that clears every denominator of
    ``polys``, and the term dict of c*p, with ``int`` coefficients, for
    each p in order."""
    scale = math.lcm(*(c.denominator for p in polys for c in p.terms.values()))
    return scale, [{m: c.numerator * (scale // c.denominator) for m, c in p.terms.items()}
                   for p in polys]


class _Codec:
    """Monomials over n variables packed into one ``int`` each, for the
    graded engine: one monomial order, integer weights W_j and fields of
    ``width`` bits.

    A key has n + 2 fields.  The weighted degree sum_j W_j*m_j is the top
    field, from bit ``top`` up.  Below it sit the total degree and one
    digit per exponent, laid out so that the part below the top field
    compares as ``order.key`` does: for grevlex the total degree above
    the digits 2^b - 1 - m_j, m_(n-1) highest; for grlex the total degree
    above the digits m_j, m_0 highest; for lex the digits m_j, m_0
    highest, above the total degree.  While the total degree is below
    2^b every field holds its value, and then:

    - K(m) = base + sum_j m_j*step_j, so K(a*b) = K(a) + K(b) - base and
      K(x_j*m) = K(m) + step_j;
    - within one weighted degree keys compare as their monomials do in
      ``order``, so a homogeneous row's lead is ``max(row)``; the parts
      below the top field (``key & low``) compare so in every degree;
    - ``key >> top`` is the weighted degree.

    A monomial of weighted degree d has total degree at most d // min W,
    so every degree below ``limit`` fits.  ``encode`` refuses a monomial
    that does not fit rather than carry into the next field; the engine
    keeps the monomials it forms below ``limit``, and starts over on the
    wider fields of ``_codec`` when a degree reaches it.  Only grevlex,
    grlex and lex have a layout; another order is refused with
    ``ValueError``.
    """

    __slots__ = ("weights", "order", "width", "mask", "top", "low", "limit", "places", "base",
                 "steps")

    def __init__(self, weights: tuple[int, ...], order: MonomialOrder, width: int):
        n = len(weights)
        mask = (1 << width) - 1
        # (bit position, xor) per exponent: a digit is m_j ^ xor, and
        # m_j ^ mask = 2^b - 1 - m_j.
        if order is GREVLEX:
            places, degree_at = tuple((width * j, mask) for j in range(n)), width * n
        elif order is GRLEX:
            places, degree_at = tuple((width * (n - 1 - j), 0) for j in range(n)), width * n
        elif order is LEX:
            places, degree_at = tuple((width * (n - j), 0) for j in range(n)), 0
        else:
            raise ValueError(f"the monomial order {order.name!r} has no packed layout")
        self.weights, self.order, self.width, self.mask = weights, order, width, mask
        self.top = top = width * (n + 1)
        self.low = (1 << top) - 1
        self.limit = min(weights) << width
        self.places = places
        self.base = sum(flip << at for at, flip in places)
        self.steps = tuple((w << top) + (1 << degree_at) + (-(1 << at) if flip else 1 << at)
                           for w, (at, flip) in zip(weights, places))

    def encode(self, m: Monomial) -> int:
        if sum(m) >> self.width:
            raise OverflowError(f"{m} does not fit in {self.width}-bit fields")
        return self.base + sum(map(mul, m, self.steps))

    def decode(self, key: int) -> Monomial:
        mask = self.mask
        return tuple([key >> at & mask ^ flip for at, flip in self.places])

    def pack(self, rows: Iterable[dict[Monomial, int]]) -> "_PackedRows":
        """Term dicts {exponent tuple: int} as rows on this codec's keys."""
        encode = self.encode
        return _PackedRows(self, ({encode(m): c for m, c in row.items()} for row in rows))


def _codec(weights: tuple[int, ...], order: MonomialOrder, degree: int) -> _Codec:
    """The codec of the narrowest width that holds every monomial of
    weighted degree up to twice ``degree``.  It is the one width rule: a
    chain's degrees grow by about deg g a step, so fields picked for a
    step last until its degree has doubled, and a row reduction that
    outgrows them starts over on fields picked for the degree it reached."""
    return _Codec(weights, order, max(1, (2 * degree // min(weights)).bit_length()))


class _PackedRows(list):
    """Integer rows {key: int} on the keys of ``codec``.  ``graded_basis``
    takes such a list on trust: its rows are weighted-homogeneous for the
    codec's weights, fit its fields and are laid out for the order asked
    for, because the package built them from values it had checked."""

    __slots__ = ("codec",)

    def __init__(self, codec: _Codec, rows=()):
        super().__init__(rows)
        self.codec = codec

    def on(self, codec: _Codec) -> "_PackedRows":
        """The same rows on the keys of ``codec``, which may have other
        fields or another order; ``encode`` refuses a monomial that does
        not fit."""
        decode, encode = self.codec.decode, codec.encode
        return _PackedRows(codec, ({encode(decode(t)): c for t, c in row.items()}
                                   for row in self))


def format_rational(value: Fraction) -> str:
    """Exact text form of a rational: ``p/q`` or a bare integer."""
    value = _coerce_scalar(value)
    return str(value)
