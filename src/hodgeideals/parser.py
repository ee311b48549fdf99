"""Parsing for polynomials, rationals, Q-divisors, and resolution data.

Hand-written recursive descent over a token stream; every failure is a
``ParseError`` carrying the byte span of the offending input, so errors
are deterministic and the parser is total.

Grammar for polynomials (whitespace insignificant)::

    expr     := ('+'|'-')? term (('+'|'-') term)*
    term     := factor ('*'? factor)*
    factor   := rational | var ('^' nat)? | '(' expr ')'
    rational := nat ('/' posnat)?

Implicit multiplication by juxtaposition is accepted on input and never
emitted on output.  Rationals must be exact ``p/q`` text; decimal
literals are rejected.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple, Sequence

from .certificates import ExceptionalDivisor, ResolutionData
from .divisor import QDivisor
from .poly import Polynomial


class SourceSpan(NamedTuple):
    start: int
    end: int


class ParseError(ValueError):
    """A parse failure with a deterministic message and source span."""

    def __init__(self, span: SourceSpan, message: str, expected: str = ""):
        self.span = span
        self.message = message
        self.expected = expected
        where = f" at {span.start}..{span.end}"
        suffix = f" (expected {expected})" if expected else ""
        super().__init__(f"{message}{where}{suffix}")


_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_INT_RE = re.compile(r"[0-9]+")
_SYMBOLS = "+-*/^()"


class _Token(NamedTuple):
    kind: str  # 'int' | 'name' | one of the symbol characters | 'end'
    text: str
    span: SourceSpan


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        m = _INT_RE.match(text, i)
        if m:
            tokens.append(_Token("int", m.group(), SourceSpan(i, m.end())))
            i = m.end()
            continue
        m = _NAME_RE.match(text, i)
        if m:
            tokens.append(_Token("name", m.group(), SourceSpan(i, m.end())))
            i = m.end()
            continue
        if ch in _SYMBOLS:
            tokens.append(_Token(ch, ch, SourceSpan(i, i + 1)))
            i += 1
            continue
        if ch == ".":
            raise ParseError(SourceSpan(i, i + 1),
                             "decimal literals are not accepted; use exact p/q rationals")
        raise ParseError(SourceSpan(i, i + 1), f"unexpected character {ch!r}")
    tokens.append(_Token("end", "", SourceSpan(n, n)))
    return tokens


class _Parser:
    def __init__(self, text: str, variables: Sequence[str]):
        self.text = text
        self.vars = tuple(variables)
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, expected: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(tok.span, f"unexpected {_describe(tok)}", expected)
        return self.advance()

    def parse(self) -> Polynomial:
        tok = self.peek()
        if tok.kind == "end":
            raise ParseError(tok.span, "empty input", "a polynomial expression")
        result = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(tok.span, f"unexpected {_describe(tok)}", "'+', '-' or end of input")
        return result

    def expr(self) -> Polynomial:
        sign = 1
        if self.peek().kind in "+-":
            sign = -1 if self.advance().kind == "-" else 1
        result = self.term() * sign
        while self.peek().kind in "+-":
            op = self.advance().kind
            nxt = self.term()
            result = result + nxt if op == "+" else result - nxt
        return result

    def term(self) -> Polynomial:
        result = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "*":
                self.advance()
                result = result * self.factor()
            elif tok.kind in ("int", "name", "("):
                result = result * self.factor()
            else:
                return result

    def factor(self) -> Polynomial:
        tok = self.peek()
        if tok.kind == "int":
            return Polynomial.constant(self.vars, self.rational())
        if tok.kind == "name":
            self.advance()
            if tok.text not in self.vars:
                raise ParseError(tok.span, f"unknown variable {tok.text!r}",
                                 f"one of {', '.join(self.vars)}")
            base = Polynomial.variable(self.vars, tok.text)
        elif tok.kind == "(":
            open_tok = self.advance()
            base = self.expr()
            if self.peek().kind != ")":
                raise ParseError(open_tok.span, "unbalanced parentheses", "')'")
            self.advance()
        else:
            raise ParseError(tok.span, f"unexpected {_describe(tok)}",
                             "a rational, a variable, or '('")
        if self.peek().kind == "^":
            self.advance()
            etok = self.expect("int", "a non-negative integer exponent")
            base = base ** int(etok.text)
        return base

    def rational(self) -> Fraction:
        num_tok = self.expect("int", "an integer")
        value = Fraction(int(num_tok.text))
        if self.peek().kind == "/":
            self.advance()
            den_tok = self.expect("int", "a positive integer denominator")
            den = int(den_tok.text)
            if den == 0:
                raise ParseError(den_tok.span, "malformed rational: zero denominator")
            value = value / den
        return value


def _describe(tok: _Token) -> str:
    if tok.kind == "end":
        return "end of input"
    return f"token {tok.text!r}"


def parse_polynomial(text: str, variables: Sequence[str]) -> Polynomial:
    """Parse ``text`` into an exact polynomial over ``variables``."""
    if not isinstance(text, str):
        raise ParseError(SourceSpan(0, 0), f"expected polynomial text, got {type(text).__name__}")
    variables = tuple(variables)
    if not variables:
        raise ParseError(SourceSpan(0, 0), "ambient variable list must be nonempty")
    seen = set()
    for name in variables:
        if not _NAME_RE.fullmatch(name):
            raise ParseError(SourceSpan(0, 0), f"invalid variable name {name!r}")
        if name in seen:
            raise ParseError(SourceSpan(0, 0), f"duplicate variable name {name!r}")
        seen.add(name)
    return _Parser(text, variables).parse()


def parse_rational(text: str) -> Fraction:
    """Parse exact rational text ``p/q`` (or an integer), sign allowed."""
    if not isinstance(text, str):
        raise ParseError(SourceSpan(0, 0), f"expected rational text, got {type(text).__name__}")
    s = text.strip()
    m = re.fullmatch(r"([+-]?)([0-9]+)(?:/([0-9]+))?", s)
    if not m:
        raise ParseError(SourceSpan(0, len(text)),
                         f"malformed rational {text!r}", "exact p/q or integer text")
    sign, num, den = m.groups()
    if den is not None and int(den) == 0:
        raise ParseError(SourceSpan(0, len(text)), "malformed rational: zero denominator")
    value = Fraction(int(num), int(den) if den is not None else 1)
    return -value if sign == "-" else value


def _unknown_keys(found, accepted, where: str) -> None:
    """Refuse a JSON object with keys outside ``accepted``, naming them."""
    unknown = sorted(set(found) - set(accepted))
    if unknown:
        raise ParseError(SourceSpan(0, 0), f"unknown key {', '.join(map(repr, unknown))} "
                                           f"in {where}", ", ".join(accepted))


def parse_divisor(document: dict) -> QDivisor:
    """Build a validated Q-divisor from a structured document.

    Expected shape: ``{"vars": [...], "components": [{"f": str, "alpha": str}]}``;
    the ``components`` list may also sit under a ``divisor`` key, as in
    task files, but not in both places.  Component coefficients must be
    positive exact rationals.
    Any other key of the ``divisor`` object or of a component is refused.
    """
    if not isinstance(document, dict):
        raise ParseError(SourceSpan(0, 0), "divisor document must be a JSON object")
    variables = document.get("vars")
    if not isinstance(variables, list) or not all(isinstance(v, str) for v in variables) or not variables:
        raise ParseError(SourceSpan(0, 0), "divisor document needs a nonempty 'vars' list of names")
    if "divisor" in document and "components" in document:
        raise ParseError(SourceSpan(0, 0), "divisor document has both 'divisor' and "
                                           "'components'; give the components once")
    body = document.get("divisor", document)
    if isinstance(body, dict) and body is not document:
        _unknown_keys(body, ("components",), "'divisor'")
    components = body.get("components") if isinstance(body, dict) else None
    if not isinstance(components, list) or not components:
        raise ParseError(SourceSpan(0, 0), "divisor document needs a nonempty 'components' list")
    parsed = []
    for idx, comp in enumerate(components):
        if not isinstance(comp, dict) or "f" not in comp or "alpha" not in comp:
            raise ParseError(SourceSpan(0, 0),
                             f"component {idx} must be an object with 'f' and 'alpha'")
        _unknown_keys(comp, ("f", "alpha"), f"component {idx}")
        f = parse_polynomial(comp["f"], variables)
        alpha = parse_rational(comp["alpha"])
        if alpha <= 0:
            raise ParseError(SourceSpan(0, 0),
                             f"component {idx}: alpha must be positive, got {comp['alpha']}")
        parsed.append((f, alpha))
    return QDivisor(tuple(variables), tuple(parsed))


def parse_resolution_data(document: dict) -> ResolutionData:
    """Build numeric log-resolution data from its JSON form.

    Shape: ``{"exceptional": [{"a": [int, ...], "b": int}, ...],
    "strict_transform_smooth": bool}``.  Per exceptional divisor, ``a``
    lists the pullback coefficient of each divisor component (all >= 0,
    total >= 1) and ``b`` is the relative canonical coefficient (>= 0).
    Any other key is refused.
    """
    if not isinstance(document, dict):
        raise ParseError(SourceSpan(0, 0), "resolution data must be a JSON object")
    _unknown_keys(document, ("exceptional", "strict_transform_smooth"), "'resolution'")
    raw = document.get("exceptional")
    if raw is None:
        raise ParseError(SourceSpan(0, 0), "resolution data needs an 'exceptional' list")
    if not isinstance(raw, list):
        raise ParseError(SourceSpan(0, 0), "'exceptional' must be a list")
    records = []
    for idx, item in enumerate(raw):
        if not isinstance(item, dict) or "a" not in item or "b" not in item:
            raise ParseError(SourceSpan(0, 0),
                             f"exceptional record {idx} must be an object with 'a' and 'b'")
        _unknown_keys(item, ("a", "b"), f"exceptional record {idx}")
        a = item["a"]
        b = item["b"]
        if (not isinstance(a, list) or not a
                or not all(isinstance(x, int) and not isinstance(x, bool) for x in a)):
            raise ParseError(SourceSpan(0, 0),
                             f"exceptional record {idx}: 'a' must be a nonempty list of integers")
        if any(x < 0 for x in a):
            raise ParseError(SourceSpan(0, 0),
                             f"exceptional record {idx}: 'a' entries must be non-negative")
        if sum(a) < 1:
            raise ParseError(SourceSpan(0, 0),
                             f"exceptional record {idx}: total pullback coefficient a must be >= 1")
        if not isinstance(b, int) or isinstance(b, bool) or b < 0:
            raise ParseError(SourceSpan(0, 0),
                             f"exceptional record {idx}: 'b' must be a non-negative integer")
        records.append(ExceptionalDivisor(a=tuple(a), b=b))
    smooth = document.get("strict_transform_smooth", True)
    if not isinstance(smooth, bool):
        raise ParseError(SourceSpan(0, 0), "'strict_transform_smooth' must be a boolean")
    return ResolutionData(exceptional=tuple(records), strict_transform_smooth=smooth)
