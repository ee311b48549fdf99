"""Exact multivariate polynomial arithmetic over the rationals.

Coefficients are arbitrary-precision rationals (``fractions.Fraction``);
monomials are dense exponent tuples whose length equals the ambient
variable count.  No floating point is used anywhere in the package.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, mul, neg
from typing import Mapping, Sequence

#: Dense exponent vector; length equals the ambient variable count.
Monomial = tuple[int, ...]


class AmbientMismatchError(ValueError):
    """Two operands live over different ambient variable lists."""


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
        object.__setattr__(self, "vars", variables)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_lead", None)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def _raw(cls, variables: tuple[str, ...], terms: dict[Monomial, Fraction]) -> "Polynomial":
        """Internal fast path: caller guarantees normalized inputs."""
        self = object.__new__(cls)
        object.__setattr__(self, "vars", variables)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_lead", None)
        return self

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "Polynomial":
        return cls(variables, {})

    @classmethod
    def one(cls, variables: Sequence[str]) -> "Polynomial":
        return cls.constant(variables, 1)

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
        if isinstance(other, (int, Fraction)):
            c = _coerce_scalar(other)
            if not c:
                return Polynomial._raw(self.vars, {})
            return Polynomial._raw(self.vars, {m: v * c for m, v in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ambient(other)
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
        out: dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            e = mono[index]
            if e == 0:
                continue
            m = mono[:index] + (e - 1,) + mono[index + 1:]
            c = out.get(m)
            nc = coeff * e if c is None else c + coeff * e
            if nc:
                out[m] = nc
            elif m in out:
                del out[m]
        return Polynomial._raw(self.vars, out)

    def substitute(self, index: int, replacement: "Polynomial") -> "Polynomial":
        """Image under the ring map sending the index-th variable to ``replacement``.

        The replacement must live over the ambient with that variable
        removed, and so does the result.
        """
        if not 0 <= index < len(self.vars):
            raise IndexError(f"variable index {index} out of range for {self.vars}")
        reduced = self.vars[:index] + self.vars[index + 1:]
        if not reduced:
            raise ValueError("cannot eliminate the only ambient variable")
        if replacement.vars != reduced:
            raise AmbientMismatchError(
                f"replacement must live over {reduced}, got {replacement.vars}")
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
        """The same polynomial viewed in a larger ambient ring."""
        variables = tuple(variables)
        positions = []
        for name in self.vars:
            if name not in variables:
                raise ValueError(f"new ambient {variables} must contain {name!r}")
            positions.append(variables.index(name))
        n = len(variables)
        out: dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            big = [0] * n
            for pos, e in zip(positions, mono):
                big[pos] = e
            out[tuple(big)] = coeff
        return Polynomial._raw(variables, out)

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
        object.__setattr__(self, "_lead", (order, lt))
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

    def coeff(self, mono: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(mono), Fraction(0))

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
        pieces = []
        for mono in sorted(terms, key=order.desc):
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


def infer_weights(h: Polynomial) -> tuple[Fraction, ...] | None:
    """Unique positive weights, one per variable, making ``h``
    weighted-homogeneous of weighted degree 1, or None when no such
    weights exist (or they are not unique)."""
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
    return tuple(weights)


def integer_terms(polys: Sequence[Polynomial]) -> tuple[int, list[dict[Monomial, int]]]:
    """The least positive integer c that clears every denominator of
    ``polys``, and the term dict of c*p, with ``int`` coefficients, for
    each p in order."""
    scale = math.lcm(*(c.denominator for p in polys for c in p.terms.values()))
    return scale, [{m: c.numerator * (scale // c.denominator) for m, c in p.terms.items()}
                   for p in polys]


def format_rational(value: Fraction) -> str:
    """Exact text form of a rational: ``p/q`` or a bare integer."""
    value = _coerce_scalar(value)
    return str(value)
