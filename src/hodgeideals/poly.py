"""Exact multivariate polynomial arithmetic over the rationals.

Coefficients are arbitrary-precision rationals (``fractions.Fraction``);
monomials are dense exponent tuples whose length equals the ambient
variable count.  No floating point is used anywhere in the package.
"""

from __future__ import annotations

from fractions import Fraction
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


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def mono_div(a: Monomial, b: Monomial) -> Monomial | None:
    """Componentwise quotient a/b, or None when b does not divide a."""
    out = []
    for x, y in zip(a, b):
        if x < y:
            return None
        out.append(x - y)
    return tuple(out)


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


class MonomialOrder:
    """A monomial order compatible with multiplication; 1 is minimal.

    ``key`` maps a monomial to a sort key such that larger keys mean
    larger monomials.  Graded reverse lexicographic is the package
    default and the order used for all canonical output.
    """

    __slots__ = ("name",)

    _NAMES = ("grevlex", "lex", "grlex")

    def __init__(self, name: str):
        if name not in self._NAMES:
            raise ValueError(f"unknown monomial order {name!r}; expected one of {self._NAMES}")
        self.name = name

    def key(self, m: Monomial):
        if self.name == "grevlex":
            return (sum(m), tuple(-e for e in reversed(m)))
        if self.name == "grlex":
            return (sum(m), m)
        return m

    @classmethod
    def from_name(cls, name: str) -> "MonomialOrder":
        return _ORDERS.get(name) or cls(name)

    def __repr__(self) -> str:
        return f"MonomialOrder({self.name!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, MonomialOrder) and self.name == other.name

    def __hash__(self) -> int:
        return hash((MonomialOrder, self.name))


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")
GRLEX = MonomialOrder("grlex")
_ORDERS = {"grevlex": GREVLEX, "lex": LEX, "grlex": GRLEX}


class Polynomial:
    """Immutable multivariate polynomial with exact rational coefficients.

    ``terms`` maps exponent tuples to nonzero coefficients; zero terms are
    never stored.  All operations are pure and return new values.
    """

    __slots__ = ("vars", "terms", "_hash")

    def __init__(self, variables: Sequence[str], terms: Mapping[Monomial, object]):
        variables = tuple(variables)
        if not variables:
            raise ValueError("ambient variable list must be nonempty")
        if len(set(variables)) != len(variables):
            raise ValueError(f"ambient variables must be distinct, got {variables}")
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
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def _raw(cls, variables: tuple[str, ...], terms: dict[Monomial, Fraction]) -> "Polynomial":
        """Internal fast path: caller guarantees normalized inputs."""
        self = object.__new__(cls)
        object.__setattr__(self, "vars", variables)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_hash", None)
        return self

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "Polynomial":
        return cls(variables, {})

    @classmethod
    def one(cls, variables: Sequence[str]) -> "Polynomial":
        return cls.constant(variables, 1)

    @classmethod
    def constant(cls, variables: Sequence[str], value) -> "Polynomial":
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): value})

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "Polynomial":
        variables = tuple(variables)
        if name not in variables:
            raise ValueError(f"{name!r} is not among the ambient variables {variables}")
        i = variables.index(name)
        mono = tuple(1 if j == i else 0 for j in range(len(variables)))
        return cls(variables, {mono: 1})

    @classmethod
    def monomial(cls, variables: Sequence[str], exponents: Sequence[int], coeff=1) -> "Polynomial":
        return cls(variables, {tuple(exponents): coeff})

    @classmethod
    def gens(cls, variables: Sequence[str]) -> tuple["Polynomial", ...]:
        return tuple(cls.variable(variables, name) for name in variables)

    # -- basic protocol -----------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.vars, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"<poly {self} over {','.join(self.vars)}>"

    def __str__(self) -> str:
        return self.to_str()

    def _check_ambient(self, other: "Polynomial") -> None:
        if self.vars != other.vars:
            raise AmbientMismatchError(f"ambient mismatch: {self.vars} vs {other.vars}")

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.vars, other)
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

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw(self.vars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.vars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

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
                m = tuple(x + y for x, y in zip(m1, m2))
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

    def order_at_origin(self) -> int:
        """Minimal total degree of a term (the multiplicity at the origin)."""
        if not self.terms:
            raise ValueError("the zero polynomial has order +infinity at the origin")
        return min(sum(m) for m in self.terms)

    def leading(self, order: MonomialOrder = GREVLEX) -> tuple[Monomial, Fraction]:
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        m = max(self.terms, key=order.key)
        return m, self.terms[m]

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

    def sorted_terms(self, order: MonomialOrder = GREVLEX) -> list[tuple[Monomial, Fraction]]:
        return sorted(self.terms.items(), key=lambda t: order.key(t[0]), reverse=True)

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    def constant_coeff(self) -> Fraction:
        return self.terms.get((0,) * len(self.vars), Fraction(0))

    def coeff(self, mono: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(mono), Fraction(0))

    def uses_variable(self, index: int) -> bool:
        return any(m[index] for m in self.terms)

    # -- printing --------------------------------------------------------

    def to_str(self, order: MonomialOrder = GREVLEX) -> str:
        """Canonical text form: terms descending in ``order``, exact rationals,
        ``^`` for powers and explicit ``*`` between factors."""
        if not self.terms:
            return "0"
        pieces = []
        for mono, coeff in self.sorted_terms(order):
            factors = []
            for name, e in zip(self.vars, mono):
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


def format_rational(value: Fraction) -> str:
    """Exact text form of a rational: ``p/q`` or a bare integer."""
    value = _coerce_scalar(value)
    return str(value)
