"""The input layer: polynomials, rationals, Q-divisors, resolution data,
and the compute and certify task documents built from them.

Hand-written recursive descent over a token stream; every failure is a
deterministic ``InputError``, so the parser is total.  It reads text, JSON
shapes and types (``ParseError``); the class or function that takes a value
checks it and raises its own ``InputError``.

Grammar for polynomials (whitespace insignificant)::

    expr     := ('+'|'-')? term (('+'|'-') term)*
    term     := factor ('*'? factor)*
    factor   := rational | var ('^' nat)? | '(' expr ')' ('^' nat)?
    rational := nat ('/' posnat)?

Implicit multiplication by juxtaposition is accepted on input and never
emitted on output.  Rationals must be exact ``p/q`` text; decimal
literals are rejected.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from .divisor import QDivisor
from .ideal import Ideal
from .poly import InputError, Monomial, Polynomial
from .recursion import GenerationCertificate

if TYPE_CHECKING:  # only certify builds one, so it is imported where it is built
    from .certificates import ExceptionalDivisor


class SourceSpan(NamedTuple):
    start: int
    end: int


class ParseError(InputError):
    """An input failure; only polynomial and rational text errors carry a span."""

    def __init__(self, message: str, expected: str = "", span: Optional[SourceSpan] = None):
        self.span = span
        self.message = message
        self.expected = expected
        where = "" if span is None else f" at {span.start}..{span.end}"
        suffix = f" (expected {expected})" if expected else ""
        super().__init__(f"{message}{where}{suffix}")


_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
# One alternative per token class, in the order they are tried: whitespace
# (no group), an integer, a name, a symbol, any other character.
_TOKEN_RE = re.compile(rf"\s+|([0-9]+)|({_NAME_RE.pattern})|([-+*/^()])|(.)", re.DOTALL)
_RATIONAL_RE = re.compile(r"([+-]?)([0-9]+)(?:/([0-9]+))?")
_FACTOR_START = frozenset(("int", "name", "("))
_MAX_NESTING = 200  # three stack frames a level: well inside the recursion limit
_MAX_DIGITS = 4300  # the default of sys.get_int_max_str_digits(): int() refuses more
_MAX_POWER_TERMS = 1000  # terms a parenthesized power or product may expand to

# A token is (kind, text, start, end): kind is 'int', 'name', one of the
# symbol characters or 'end'.
_Token = tuple[str, str, int, int]


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for m in _TOKEN_RE.finditer(text):
        group = m.lastindex
        if group is None:
            continue
        start, end = m.span()
        word = m.group(group)
        if group == 1:
            if end - start > _MAX_DIGITS:
                raise ParseError(f"integer literal longer than {_MAX_DIGITS} digits",
                                 span=SourceSpan(start, end))
            tokens.append(("int", word, start, end))
        elif group == 2:
            tokens.append(("name", word, start, end))
        elif group == 3:
            tokens.append((word, word, start, end))
        elif word == ".":
            raise ParseError("decimal literals are not accepted; use exact p/q rationals",
                             span=SourceSpan(start, end))
        else:
            raise ParseError(f"unexpected character {word!r}", span=SourceSpan(start, end))
    tokens.append(("end", "", len(text), len(text)))
    return tokens


def _unexpected(tok: _Token, expected: str) -> ParseError:
    what = "end of input" if tok[0] == "end" else f"token {tok[1]!r}"
    return ParseError(f"unexpected {what}", expected, span=SourceSpan(tok[2], tok[3]))


class _Parser:
    """Evaluates while it parses: a term is one coefficient times one
    monomial, times the product of its parenthesized factors when it has
    any, and an expression sums its terms into one term dict."""

    def __init__(self, text: str, variables: tuple[str, ...]):
        self.vars = variables
        self.index = {name: i for i, name in enumerate(variables)}
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def expect(self, kind: str, expected: str) -> _Token:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise _unexpected(tok, expected)
        self.pos += 1
        return tok

    def parse(self) -> Polynomial:
        tok = self.tokens[0]
        if tok[0] == "end":
            raise ParseError("empty input", "a polynomial expression",
                             span=SourceSpan(tok[2], tok[3]))
        result = self.expr()
        tok = self.tokens[self.pos]
        if tok[0] != "end":
            raise _unexpected(tok, "'+', '-' or end of input")
        return result

    def expr(self) -> Polynomial:
        tokens = self.tokens
        # A coefficient stays an int until a p/q or a parenthesized factor
        # makes it a Fraction; the Polynomial gets Fractions only.
        out: dict[Monomial, int | Fraction] = {}
        negate = False
        kind = tokens[self.pos][0]
        if kind == "+" or kind == "-":
            negate = kind == "-"
            self.pos += 1
        while True:
            coeff, mono, poly = self.term()
            if coeff:
                if negate:
                    coeff = -coeff
                if poly is None:
                    terms = ((mono, coeff),)
                else:
                    terms = ((tuple(map(add, m, mono)), coeff * c)
                             for m, c in poly.terms.items())
                # The accumulation of Polynomial.__add__, so the terms keep
                # the order that summing term polynomials gives them.
                for m, c in terms:
                    old = out.get(m)
                    if old is None:
                        out[m] = c
                    else:
                        c += old
                        if c:
                            out[m] = c
                        else:
                            del out[m]
            kind = tokens[self.pos][0]
            if kind != "+" and kind != "-":
                break
            negate = kind == "-"
            self.pos += 1
        for m, c in out.items():
            if type(c) is int:
                out[m] = Fraction(c)
        return Polynomial._raw(self.vars, out)

    def term(self) -> tuple[int | Fraction, Monomial, Optional[Polynomial]]:
        """(coefficient, exponents, product of the parenthesized factors or
        None); the term is their product."""
        tokens = self.tokens
        coeff: int | Fraction = 1
        exps = [0] * len(self.vars)
        poly = None
        while True:
            f = self.factor(0 if poly is None else len(poly.terms))
            if type(f) is tuple:
                exps[f[0]] += f[1]
            elif type(f) is Polynomial:
                poly = f if poly is None else poly * f
            else:
                coeff *= f
            kind = tokens[self.pos][0]
            if kind == "*":
                self.pos += 1
            elif kind not in _FACTOR_START:
                return coeff, tuple(exps), poly

    def factor(self, times: int = 0) -> int | Fraction | tuple[int, int] | Polynomial:
        """A rational; a variable as (its index, its exponent); or a
        parenthesized expression raised to its exponent, which multiplies
        a product of ``times`` terms when ``times`` is not 0."""
        tok = self.tokens[self.pos]
        kind = tok[0]
        if kind == "int":
            return self.rational()
        if kind == "name":
            self.pos += 1
            index = self.index.get(tok[1])
            if index is None:
                raise ParseError(f"unknown variable {tok[1]!r}",
                                 f"one of {', '.join(self.vars)}", span=SourceSpan(tok[2], tok[3]))
            return index, self.exponent()
        if kind != "(":
            raise _unexpected(tok, "a rational, a variable, or '('")
        self.pos += 1
        if self.depth == _MAX_NESTING:
            raise ParseError(f"parentheses nested deeper than {_MAX_NESTING}",
                             span=SourceSpan(tok[2], tok[3]))
        self.depth += 1
        base = self.expr()
        self.depth -= 1
        if self.tokens[self.pos][0] != ")":
            raise ParseError("unbalanced parentheses", "')'", span=SourceSpan(tok[2], tok[3]))
        self.pos += 1
        e = self.exponent()
        t = len(base.terms)
        if t > 1:
            # A power of t >= 2 terms has at most C(t+e-1, e) terms and at
            # least e + 1, so a large e is refused before comb sees it.  A
            # product has at most the product of its factors' term counts,
            # so it is refused before the power is expanded.
            end = self.tokens[self.pos - 1]
            if e != 1 and (e >= _MAX_POWER_TERMS or math.comb(t + e - 1, e) > _MAX_POWER_TERMS):
                raise ParseError(f"a power that may expand to more than {_MAX_POWER_TERMS} terms",
                                 span=SourceSpan(end[2], end[3]))
            if times * math.comb(t + e - 1, e) > _MAX_POWER_TERMS:
                raise ParseError(
                    f"a product that may expand to more than {_MAX_POWER_TERMS} terms",
                    span=SourceSpan(tok[2], end[3]))
        return base if e == 1 else base ** e

    def exponent(self) -> int:
        """The exponent after '^', or 1 when no '^' follows."""
        if self.tokens[self.pos][0] != "^":
            return 1
        self.pos += 1
        return int(self.expect("int", "a non-negative integer exponent")[1])

    def rational(self) -> int | Fraction:
        num = int(self.tokens[self.pos][1])
        self.pos += 1
        if self.tokens[self.pos][0] != "/":
            return num
        self.pos += 1
        den_tok = self.expect("int", "a positive integer denominator")
        den = int(den_tok[1])
        if den == 0:
            raise ParseError("malformed rational: zero denominator",
                             span=SourceSpan(den_tok[2], den_tok[3]))
        return Fraction(num, den)


def parse_polynomial(text: str, variables: Sequence[str]) -> Polynomial:
    """Parse ``text`` into an exact polynomial over ``variables``."""
    if not isinstance(text, str):
        raise ParseError(f"expected polynomial text, got {type(text).__name__}")
    variables = tuple(variables)
    if not variables:
        raise ParseError("ambient variable list must be nonempty")
    for i, name in enumerate(variables):
        if not _NAME_RE.fullmatch(name):
            raise ParseError(f"invalid variable name {name!r}")
        if name in variables[:i]:
            raise ParseError(f"duplicate variable name {name!r}")
    return _Parser(text, variables).parse()


def parse_rational(text: str) -> Fraction:
    """Parse exact rational text ``p/q`` (or an integer), sign allowed."""
    if not isinstance(text, str):
        raise ParseError(f"expected rational text, got {type(text).__name__}")
    s = text.strip()
    m = _RATIONAL_RE.fullmatch(s)
    if not m or len(s) > _MAX_DIGITS:
        raise ParseError(f"malformed rational {text!r}", "exact p/q or integer text",
                         span=SourceSpan(0, len(text)))
    sign, num, den = m.groups()
    if den is not None and int(den) == 0:
        raise ParseError("malformed rational: zero denominator", span=SourceSpan(0, len(text)))
    value = Fraction(int(num), int(den) if den is not None else 1)
    return -value if sign == "-" else value


def _unknown_keys(found, accepted, where: str) -> None:
    """Refuse a JSON object with keys outside ``accepted``, naming them."""
    unknown = sorted(set(found) - set(accepted))
    if unknown:
        raise ParseError(f"unknown key {', '.join(map(repr, unknown))} in {where}",
                         ", ".join(accepted))


def _rational_field(value, name: str) -> Fraction:
    """``value`` read as exact rational text; a JSON number or boolean is
    refused, not coerced."""
    if not isinstance(value, str):
        raise ParseError(f"{name} must be exact rational text, got {value!r}")
    return parse_rational(value)


def _count(value, name: str) -> int:
    """``value`` when it is a non-negative JSON integer; a boolean or a
    float is refused, not coerced."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ParseError(f"{name} must be a non-negative integer, got {value!r}")
    return value


def parse_divisor(document: dict) -> QDivisor:
    """Build a validated Q-divisor from a structured document.

    Expected shape: ``{"vars": [...], "components": [{"f": str, "alpha": str}]}``;
    the ``components`` list may also sit under a ``divisor`` key, as in
    task files, but not in both places.  Component coefficients are
    exact rational text.
    Any other key of the ``divisor`` object or of a component is refused.
    ``QDivisor``'s own refusals (a constant component, alpha <= 0, a
    support it can tell is not reduced) reach the caller as it raises them.
    """
    if not isinstance(document, dict):
        raise ParseError("divisor document must be a JSON object")
    variables = document.get("vars")
    if not isinstance(variables, list) or not all(isinstance(v, str) for v in variables) or not variables:
        raise ParseError("divisor document needs a nonempty 'vars' list of names")
    if "divisor" in document and "components" in document:
        raise ParseError("divisor document has both 'divisor' and 'components'; "
                         "give the components once")
    body = document.get("divisor", document)
    if isinstance(body, dict) and body is not document:
        _unknown_keys(body, ("components",), "'divisor'")
    components = body.get("components") if isinstance(body, dict) else None
    if not isinstance(components, list) or not components:
        raise ParseError("divisor document needs a nonempty 'components' list")
    parsed = []
    for idx, comp in enumerate(components):
        if not isinstance(comp, dict) or "f" not in comp or "alpha" not in comp:
            raise ParseError(f"component {idx} must be an object with 'f' and 'alpha'")
        _unknown_keys(comp, ("f", "alpha"), f"component {idx}")
        parsed.append((parse_polynomial(comp["f"], variables),
                       _rational_field(comp["alpha"], f"component {idx}: 'alpha'")))
    return QDivisor(tuple(variables), tuple(parsed))


def parse_resolution_data(document: dict) -> tuple[ExceptionalDivisor, ...]:
    """The exceptional-divisor records of numeric log-resolution data,
    from its JSON form.

    Shape: ``{"exceptional": [{"a": [int, ...], "b": int}, ...],
    "strict_transform_smooth": bool}``.  Per exceptional divisor, ``a``
    lists the pullback coefficient of each divisor component (all >= 0,
    total >= 1) and ``b`` is the relative canonical coefficient (>= 0);
    ``ExceptionalDivisor`` checks both, and its refusal names the record.
    ``strict_transform_smooth`` may be left out; ``false`` is refused,
    since the triviality criterion needs a smooth strict transform.  Any
    other key is refused.
    """
    if not isinstance(document, dict):
        raise ParseError("resolution data must be a JSON object")
    _unknown_keys(document, ("exceptional", "strict_transform_smooth"), "'resolution'")
    raw = document.get("exceptional")
    if raw is None:
        raise ParseError("resolution data needs an 'exceptional' list")
    if not isinstance(raw, list):
        raise ParseError("'exceptional' must be a list")
    from . import certificates

    records = []
    for idx, item in enumerate(raw):
        if not isinstance(item, dict) or "a" not in item or "b" not in item:
            raise ParseError(f"exceptional record {idx} must be an object with 'a' and 'b'")
        _unknown_keys(item, ("a", "b"), f"exceptional record {idx}")
        a = item["a"]
        if (not isinstance(a, list) or not a
                or not all(isinstance(x, int) and not isinstance(x, bool) for x in a)):
            raise ParseError(f"exceptional record {idx}: 'a' must be a nonempty list of integers")
        b = _count(item["b"], f"exceptional record {idx}: 'b'")
        try:
            records.append(certificates.ExceptionalDivisor(a=tuple(a), b=b))
        except InputError as exc:
            raise ParseError(f"exceptional record {idx}: {exc}") from exc
    smooth = document.get("strict_transform_smooth", True)
    if not isinstance(smooth, bool):
        raise ParseError("'strict_transform_smooth' must be a boolean")
    if not smooth:
        raise ParseError("the triviality criterion needs a smooth strict transform")
    return tuple(records)


# -- task documents ---------------------------------------------------------------

_OPTION_KEYS = ("i0", "certificate")
_CERTIFY_KINDS = ("resolution", "multiplicity", "membership")
# The keys each subcommand reads.
_COMMON_KEYS = ("task", "vars", "divisor", "k")
_TASK_KEYS = {"compute": _COMMON_KEYS + ("method", "options"),
              "certify": _COMMON_KEYS + _CERTIFY_KINDS}


def _alpha_samples(text: str) -> list[Fraction]:
    """The positive rationals of ``--alpha-samples``, split at commas.  An
    error's span counts from the start of ``text``; empty text is refused."""
    samples = []
    start = 0
    for piece in text.split(","):
        try:
            value = parse_rational(piece)
        except ParseError as exc:
            raise ParseError(exc.message, exc.expected,
                             SourceSpan(start + exc.span.start, start + exc.span.end)) from None
        if value <= 0:
            raise ParseError(f"alpha samples must be positive, got {piece!r}",
                             span=SourceSpan(start, start + len(piece)))
        samples.append(value)
        start += len(piece) + 1
    return samples


def _certificate_from_options(options: dict) -> Optional[GenerationCertificate]:
    cert = options.get("certificate")
    if cert is None:
        return None
    if not isinstance(cert, dict) or "level" not in cert:
        raise ParseError("'options.certificate' must be an object with a 'level'")
    _unknown_keys(cert, ("level",), "'options.certificate'")
    # Nothing here checks the level, so the caller vouches for it.
    return GenerationCertificate(level=_count(cert["level"], "certificate level"),
                                 source="user-asserted")


def _seed_from_options(options: dict, divisor: QDivisor) -> Optional[Ideal]:
    gens = options.get("i0")
    if gens is None:
        return None
    if not isinstance(gens, list) or not all(isinstance(g, str) for g in gens):
        raise ParseError("'options.i0' must be a list of polynomial strings")
    return Ideal(divisor.vars, (parse_polynomial(g, divisor.vars) for g in gens))


def _certify_arguments(doc: dict, divisor: Optional[QDivisor]) -> tuple[str, dict]:
    """A certify document's one certificate kind and that kind's ``arguments``."""
    kinds = [key for key in _CERTIFY_KINDS if key in doc]
    if len(kinds) != 1:
        raise ParseError("certify wants exactly one of 'resolution', 'multiplicity', "
                         "or 'membership' in the task document")
    kind = kinds[0]
    data = doc[kind]
    if kind == "resolution":
        if divisor is None:
            raise ParseError("resolution certificates need the divisor (for its alphas)")
        return kind, {"records": parse_resolution_data(data)}
    if not isinstance(data, dict):
        raise ParseError(f"{kind!r} must be an object")
    if kind == "multiplicity":
        _unknown_keys(data, ("n", "r", "a", "b", "q"), "'multiplicity'")
        from . import certificates

        try:
            md = certificates.MultiplicityData(n=_count(data["n"], "'multiplicity.n'"),
                                               r=_count(data["r"], "'multiplicity.r'"),
                                               a=_count(data["a"], "'multiplicity.a'"),
                                               b=_rational_field(data["b"], "'multiplicity.b'"))
        except (KeyError, InputError) as exc:
            raise ParseError(f"bad multiplicity data: {exc}") from exc
        q = data.get("q")
        return kind, {"md": md, "q": None if q is None else _count(q, "'multiplicity.q'")}
    _unknown_keys(data, ("n", "m", "alpha", "proportional"), "'membership'")
    proportional = data.get("proportional", True)
    if not isinstance(proportional, bool):
        raise ParseError(f"'membership.proportional' must be a boolean, got {proportional!r}")
    try:
        n, m = _count(data["n"], "'membership.n'"), _count(data["m"], "'membership.m'")
        alpha = _rational_field(data["alpha"], "'membership.alpha'")
    except (KeyError, ParseError) as exc:
        raise ParseError(f"bad membership data: {exc}") from exc
    return kind, {"n": n, "m": m, "alpha": alpha, "proportional": proportional}


@dataclass(frozen=True)
class TaskSpec:
    """A validated task document.  A compute task fills ``method`` (which
    ``compute_chain`` checks) through ``samples``; a certify task fills
    ``kind``, one of ``_CERTIFY_KINDS``, and ``arguments``, the keyword
    arguments but ``k`` of that kind's certificate."""

    divisor: Optional[QDivisor]
    k: int
    method: str = "auto"
    seed: Optional[Ideal] = None
    certificate: Optional[GenerationCertificate] = None
    samples: Optional[list[Fraction]] = None
    kind: str = ""
    arguments: Optional[dict] = None

    @classmethod
    def from_document(cls, doc, command: str,
                      alpha_samples: Optional[str] = None) -> "TaskSpec":
        """Read the decoded JSON of a "compute" or "certify" task, and the
        text of ``--alpha-samples``, which takes no options."""
        if not isinstance(doc, dict):
            raise ParseError("task document must be a JSON object")
        _unknown_keys(doc, _TASK_KEYS[command], f"a {command} task document")
        task = doc.get("task", command)
        if task != command:
            raise ParseError(f"task field says {task!r} but the subcommand is {command!r}")
        if "divisor" in doc and "vars" not in doc:
            raise ParseError("task document needs a 'vars' list")
        divisor = parse_divisor(doc) if "divisor" in doc else None
        k = _count(doc.get("k", 0), "'k'")
        if command == "certify":
            kind, arguments = _certify_arguments(doc, divisor)
            return cls(divisor, k, kind=kind, arguments=arguments)
        method = doc.get("method", "auto")
        options = doc.get("options", {})
        if not isinstance(options, dict):
            raise ParseError("'options' must be an object")
        _unknown_keys(options, _OPTION_KEYS, "'options'")
        if divisor is None:
            raise ParseError("compute needs a divisor")
        # Every option holds only at the task's alpha.
        if alpha_samples is not None and options:
            named = ", ".join(f"'options.{key}'" for key in options)
            raise ParseError(f"{named} given with --alpha-samples: a caller's I_0 and "
                             f"certificate hold only at the task's alpha")
        return cls(divisor, k, method, _seed_from_options(options, divisor),
                   _certificate_from_options(options),
                   None if alpha_samples is None else _alpha_samples(alpha_samples))
