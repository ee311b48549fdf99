"""Input grammar: polynomials, rationals, divisor and resolution documents."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgeideals import InputError, ParseError, parse_divisor, parse_polynomial, parse_rational, \
    parse_resolution_data
from hodgeideals.poly import Polynomial

XY = ("x", "y")


def test_basic_polynomial():
    assert parse_polynomial("x^2 + y^3", XY) == parse_polynomial("y^3+x^2", XY)


def test_implicit_multiplication_and_rational_coefficients():
    f = parse_polynomial("y^4 - 5/2 x^2 y", XY)
    assert f.terms[(2, 1)] == F(-5, 2)
    assert f.terms[(0, 4)] == 1
    assert parse_polynomial("5/2x", ("x",)) == parse_polynomial("5/2 * x", ("x",))


def test_parenthesized_expressions():
    assert parse_polynomial("(x + y)(x - y)", XY) == parse_polynomial("x^2 - y^2", XY)
    assert parse_polynomial("2(x + 1)", XY) == parse_polynomial("2x + 2", XY)


def test_power_of_parenthesized_factor():
    assert parse_polynomial("(x+y)^2", XY) == parse_polynomial("x^2 + 2 x y + y^2", XY)
    assert parse_polynomial("(x)^2", XY) == parse_polynomial("x^2", XY)
    assert parse_polynomial("2(x - y)^3 y", XY) == \
        parse_polynomial("2 x^3 y - 6 x^2 y^2 + 6 x y^3 - 2 y^4", XY)
    assert parse_polynomial("((x)^2)^3", XY) == parse_polynomial("x^6", XY)
    assert parse_polynomial("(x + 1)^0", XY) == Polynomial.one(XY)


def test_leading_sign():
    assert parse_polynomial("-x + y", XY) == parse_polynomial("y - x", XY)


def test_unknown_variable():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x^2 + z", XY)
    assert "unknown variable 'z'" in str(err.value)
    assert err.value.span == (6, 7)


def test_zero_denominator():
    with pytest.raises(ParseError) as err:
        parse_polynomial("1/0 x", XY)
    assert "zero denominator" in str(err.value)


def test_unbalanced_parentheses():
    with pytest.raises(ParseError) as err:
        parse_polynomial("(x + y", XY)
    assert "unbalanced" in str(err.value)


def test_nesting_is_refused_at_the_first_paren_past_the_limit():
    assert parse_polynomial("(" * 200 + "x" + ")" * 200, XY) == parse_polynomial("x", XY)
    with pytest.raises(ParseError) as err:
        parse_polynomial("2*" + "(" * 400 + "x" + ")" * 400, XY)
    assert err.value.message == "parentheses nested deeper than 200"
    assert err.value.span == (202, 203)


def test_document_errors_carry_no_span():
    with pytest.raises(ParseError) as err:
        parse_divisor({"vars": ["x"], "components": [{"f": "x", "alpha": "1", "g": 0}]})
    assert err.value.span is None
    assert str(err.value) == "unknown key 'g' in component 0 (expected f, alpha)"


def test_empty_input():
    with pytest.raises(ParseError) as err:
        parse_polynomial("   ", XY)
    assert "empty input" in str(err.value)


def test_decimal_literals_rejected():
    with pytest.raises(ParseError):
        parse_polynomial("0.5 x", XY)


def test_errors_are_deterministic():
    def capture():
        try:
            parse_polynomial("x + (y*", XY)
        except ParseError as exc:
            return (exc.span, exc.message, exc.expected)
    assert capture() == capture()


# -- totality -----------------------------------------------------------------

@settings(max_examples=200)
@given(st.text(max_size=30))
def test_parser_is_total_on_text(text):
    try:
        result = parse_polynomial(text, XY)
    except ParseError:
        return
    assert isinstance(result, Polynomial)


@settings(max_examples=200)
@given(st.binary(max_size=30))
def test_parser_is_total_on_bytes(data):
    try:
        result = parse_polynomial(data.decode("latin1"), XY)
    except ParseError:
        return
    assert isinstance(result, Polynomial)


# -- rendered polynomials against Polynomial arithmetic -------------------------------

XYZ = ("x", "y", "z")
TERMS = st.tuples(st.builds(F, st.integers(-20, 20), st.integers(1, 12)),
                  st.tuples(*[st.integers(0, 3)] * 3))
JOINS = {True: st.sampled_from(("*", " ", "")), False: st.sampled_from(("*", " "))}
SIGNS = {(True, True): st.just("-"), (False, True): st.sampled_from(("", "+")),
         (True, False): st.sampled_from((" - ", "-")), (False, False): st.sampled_from((" + ", "+"))}
EXPONENTS = st.sampled_from((None, 0, 1, 2, 3))


def _joined(draw, factors):
    """``factors`` joined by '*', a space or, where the tokens stay apart
    (a digit before a letter), nothing."""
    text = factors[0]
    for f in factors[1:]:
        text += draw(JOINS[text[-1].isdigit() and f[0].isalpha()]) + f
    return text


def _term_text(draw, magnitude, mono):
    factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(XYZ, mono) if e]
    if magnitude.denominator != 1:
        scale = draw(st.integers(1, 3))  # p/q need not be in lowest terms
        factors.insert(0, f"{magnitude.numerator * scale}/{magnitude.denominator * scale}")
    elif magnitude != 1 or not factors or draw(st.booleans()):
        factors.insert(0, str(magnitude.numerator))
    return _joined(draw, factors)


def _terms_text(draw, terms, first=True):
    return "".join(draw(SIGNS[c < 0, first and i == 0]) + _term_text(draw, abs(c), mono)
                   for i, (c, mono) in enumerate(terms))


def _term_value(c, mono):
    value = Polynomial.constant(XYZ, c)
    for v, e in zip(XYZ, mono):
        value = value * Polynomial.variable(XYZ, v) ** e
    return value


@st.composite
def rendered_polynomials(draw):
    """(text, value): random groups of terms, each written out or wrapped in
    parentheses with an optional exponent, and the value of the same
    groups built with Polynomial arithmetic."""
    groups = draw(st.lists(st.tuples(st.lists(TERMS, min_size=1, max_size=4),
                                     st.booleans(), EXPONENTS),
                           min_size=1, max_size=4))
    text, value = "", Polynomial.zero(XYZ)
    for i, (terms, wrapped, e) in enumerate(groups):
        terms = draw(st.permutations(terms))
        inner = Polynomial.zero(XYZ)
        for c, mono in terms:
            inner = inner + _term_value(c, mono)
        if not wrapped:
            text += _terms_text(draw, terms, first=i == 0)
            value = value + inner
            continue
        negative = draw(st.booleans())
        power = "" if e is None else f"^{e}"
        text += draw(SIGNS[negative, i == 0]) + "(" + _terms_text(draw, terms) + ")" + power
        inner = inner ** (1 if e is None else e)
        value = value - inner if negative else value + inner
    return text, value


@settings(max_examples=200, deadline=None)
@given(rendered_polynomials())
def test_parse_matches_polynomial_arithmetic(case):
    text, value = case
    assert parse_polynomial(text, XYZ) == value


@pytest.mark.parametrize("text, message, expected, span", [
    ("x^2 + w", "unknown variable 'w'", "one of x, y", (6, 7)),
    ("0.5 x", "decimal literals are not accepted; use exact p/q rationals", "", (1, 2)),
    ("x^", "unexpected end of input", "a non-negative integer exponent", (2, 2)),
    ("x^^2", "unexpected token '^'", "a non-negative integer exponent", (2, 3)),
    ("(x+y", "unbalanced parentheses", "')'", (0, 1)),
    ("x)", "unexpected token ')'", "'+', '-' or end of input", (1, 2)),
    ("2^3", "unexpected token '^'", "'+', '-' or end of input", (1, 2)),
    ("1/0 x", "malformed rational: zero denominator", "", (2, 3)),
    ("x +", "unexpected end of input", "a rational, a variable, or '('", (3, 3)),
    ("1" * 4301, "integer literal longer than 4300 digits", "", (0, 4301)),
    ("x # y", "unexpected character '#'", "", (2, 3)),
    ("(" * 201 + "x" + ")" * 201, "parentheses nested deeper than 200", "", (200, 201)),
    ("(x+y)^1000", "a power that may expand to more than 1000 terms", "", (6, 10)),
    ("(x+y+1)^44", "a power that may expand to more than 1000 terms", "", (8, 10)),
    ("(x+y+1)^20*(x+y+1)^20", "a product that may expand to more than 1000 terms", "",
     (11, 21)),
    ("(x+y)^40*(x+y)^40", "a product that may expand to more than 1000 terms", "", (9, 17)),
    ("2*(x+y)^40 x (x-y)^40", "a product that may expand to more than 1000 terms", "",
     (13, 21)),
])
def test_malformed_input_errors(text, message, expected, span):
    with pytest.raises(ParseError) as err:
        parse_polynomial(text, XY)
    assert (err.value.message, err.value.expected, err.value.span) == (message, expected, span)


def test_a_product_within_the_term_bound_is_expanded():
    # 31 * 31 = 961 term pairs, at most 1000.
    assert parse_polynomial("(x+y)^30*(x+y)^30", XY) == parse_polynomial("(x+y)^60", XY)


# -- rationals ----------------------------------------------------------------

def test_parse_rational():
    assert parse_rational("9/10") == F(9, 10)
    assert parse_rational("-3/2") == F(-3, 2)
    assert parse_rational("7") == 7
    with pytest.raises(ParseError):
        parse_rational("1/0")
    with pytest.raises(ParseError):
        parse_rational("0.5")


# -- divisor documents ----------------------------------------------------------

def test_parse_divisor_single_component():
    d = parse_divisor({"vars": ["x", "y"],
                       "components": [{"f": "x^2+y^3", "alpha": "9/10"}]})
    assert d.alphas == (F(9, 10),)
    assert d.factors[0] == parse_polynomial("x^2 + y^3", XY)


def test_parse_divisor_snc():
    d = parse_divisor({"vars": ["x", "y"],
                       "components": [{"f": "x", "alpha": "3/2"},
                                      {"f": "y", "alpha": "1/2"}]})
    assert d.alphas == (F(3, 2), F(1, 2))


def test_parse_divisor_task_style_nesting():
    d = parse_divisor({"vars": ["x", "y"],
                       "divisor": {"components": [{"f": "x", "alpha": "1"}]}})
    assert d.alphas == (F(1),)


def test_parse_divisor_rejects_nonpositive_alpha():
    # QDivisor decides the sign; its InputError reaches the caller as raised.
    with pytest.raises(InputError, match="^component 0: alpha must be positive, got 0$"):
        parse_divisor({"vars": ["x"], "components": [{"f": "x", "alpha": "0"}]})
    with pytest.raises(InputError, match="^component 0: alpha must be positive, got -1/2$"):
        parse_divisor({"vars": ["x"], "components": [{"f": "x", "alpha": "-1/2"}]})


# -- resolution data ---------------------------------------------------------------

def test_parse_resolution_data_cusp():
    records = parse_resolution_data({"exceptional": [{"a": [2], "b": 1}, {"a": [3], "b": 2},
                                                     {"a": [6], "b": 4}],
                                     "strict_transform_smooth": True})
    assert [(e.total, e.b) for e in records] == [(2, 1), (3, 2), (6, 4)]


def test_parse_resolution_data_refuses_a_singular_strict_transform():
    with pytest.raises(ParseError) as err:
        parse_resolution_data({"exceptional": [{"a": [2], "b": 1}],
                               "strict_transform_smooth": False})
    assert str(err.value) == "the triviality criterion needs a smooth strict transform"


def test_parse_resolution_data_rejects_zero_pullback():
    with pytest.raises(ParseError) as err:
        parse_resolution_data({"exceptional": [{"a": [0], "b": 1}]})
    assert str(err.value) == ("exceptional record 0: pullback coefficients must be >= 0 "
                              "with positive total, got (0,)")


def test_parse_resolution_data_empty_is_smooth_case():
    assert parse_resolution_data({"exceptional": []}) == ()


def test_parse_resolution_data_rejects_negative_and_non_integer():
    with pytest.raises(ParseError):
        parse_resolution_data({"exceptional": [{"a": [2], "b": -1}]})
    with pytest.raises(ParseError):
        parse_resolution_data({"exceptional": [{"a": [2.5], "b": 1}]})
