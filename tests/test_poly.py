"""Core arithmetic: exact rationals, exponent vectors, orders, calculus."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgeideals import GREVLEX, GRLEX, LEX, MonomialOrder, Polynomial
from hodgeideals.parser import parse_polynomial
from hodgeideals.poly import AmbientMismatchError, _Codec

from oracles import polynomial_text, product_terms

XY = ("x", "y")
XYZ = ("x", "y", "z")


def p(text, variables=XY):
    return parse_polynomial(text, variables)


# -- addition / multiplication ------------------------------------------------

def test_additive_inverse_cancels():
    assert p("x") + (-p("x")) == Polynomial.zero(XY)
    assert not (p("x") - p("x"))


def test_like_terms_collect():
    assert p("x^2 + y^3") + p("y^3") == p("x^2 + 2y^3")


def test_exact_rational_addition():
    assert F(1, 2) * p("x") + F(1, 3) * p("x") == p("5/6 x")


def test_products():
    assert p("x") * p("y") == p("x y")
    assert p("x + y") * p("x - y") == p("x^2 - y^2")
    assert p("x^2 + y^3") * Polynomial.one(XY) == p("x^2 + y^3")


def test_ambient_mismatch_rejected():
    with pytest.raises(AmbientMismatchError):
        p("x") + p("x", XYZ)
    with pytest.raises(AmbientMismatchError):
        p("x") * p("x", XYZ)


def test_power():
    assert p("x + y") ** 2 == p("x^2 + 2x y + y^2")
    assert p("x") ** 0 == Polynomial.one(XY)
    with pytest.raises(ValueError):
        p("x") ** (-1)


# -- partial derivatives -------------------------------------------------------

def test_partial_derivatives():
    f = p("x^2 + y^3")
    assert f.diff(0) == p("2x")
    assert f.diff(1) == p("3y^2")
    assert p("y^3").diff(0) == Polynomial.zero(XY)


def test_partial_derivative_index_out_of_range():
    with pytest.raises(IndexError):
        p("x").diff(2)


# -- substitution ----------------------------------------------------------------

def test_substitute_coordinate_hyperplane():
    f = p("x^2 + y^3 + z^2", XYZ)
    assert f.substitute(2, Polynomial.zero(XY)) == p("x^2 + y^3")


def test_substitute_linear_form():
    f = p("x z", XYZ)
    assert f.substitute(2, p("x + y")) == p("x^2 + x y")


def test_substitute_scaled_variable():
    f = p("x^2 + y^3")
    assert f.substitute(0, p("2y", ("y",))) == p("4y^2 + y^3", ("y",))


def test_substitute_rejects_wrong_ambient():
    f = p("x z", XYZ)
    with pytest.raises(AmbientMismatchError):
        f.substitute(2, p("z", XYZ))


# -- degrees ---------------------------------------------------------------------

def test_order_at_origin():
    assert p("x^2 + y^3").order_at_origin() == 2
    assert p("1 + x").order_at_origin() == 0
    assert p("y^4 - 5/2 x^2 y").order_at_origin() == 3


def test_order_of_zero_is_signalled():
    with pytest.raises(ValueError):
        Polynomial.zero(XY).order_at_origin()


def test_total_degree():
    assert p("x^2 + y^3").total_degree() == 3
    assert Polynomial.zero(XY).total_degree() is None


# -- monomial orders ---------------------------------------------------------------

def test_order_comparisons():
    x2yz, xy3 = (2, 1, 1), (1, 3, 0)
    assert GREVLEX.key(xy3) > GREVLEX.key(x2yz)
    assert GRLEX.key(x2yz) > GRLEX.key(xy3)
    assert LEX.key(x2yz) > LEX.key(xy3)


def test_orders_by_name():
    for order in (GREVLEX, LEX, GRLEX):
        assert MonomialOrder.from_name(order.name) is order
    with pytest.raises(ValueError, match="revlex"):
        MonomialOrder.from_name("revlex")


def test_one_is_minimal():
    for order in (GREVLEX, GRLEX, LEX):
        assert order.key((0, 0)) < order.key((1, 0))
        assert order.key((0, 0)) < order.key((0, 1))


def test_order_compatible_with_multiplication():
    a, b, c = (2, 0, 1), (0, 3, 0), (1, 1, 1)
    for order in (GREVLEX, GRLEX, LEX):
        assert order.key(a) > order.key(b) or order.key(b) > order.key(a)
        if order.key(a) > order.key(b):
            shifted_a = tuple(x + y for x, y in zip(a, c))
            shifted_b = tuple(x + y for x, y in zip(b, c))
            assert order.key(shifted_a) > order.key(shifted_b)


# -- canonical printing --------------------------------------------------------------

def test_canonical_form_descending_grevlex():
    assert str(p("x^2 + y^3")) == "y^3 + x^2"
    assert str(p("y^4 - 5/2 x^2 y")) == "y^4 - 5/2*x^2*y"
    assert str(Polynomial.zero(XY)) == "0"
    assert str(Polynomial.constant(XY, F(-1, 3))) == "-1/3"


printed_coeffs = st.one_of(st.sampled_from([F(1), F(-1)]),
                           st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 5)))


@st.composite
def printed_polys(draw):
    """1-4 variables, constant terms allowed, coefficients of either sign,
    +-1 and non-integers among them."""
    n = draw(st.integers(1, 4))
    monos = st.tuples(*([st.integers(0, 3)] * n))
    terms = draw(st.dictionaries(monos, printed_coeffs, max_size=6))
    return Polynomial(("x", "y", "z", "w1")[:n], terms)


@settings(max_examples=200)
@given(printed_polys(), st.sampled_from([GREVLEX, LEX, GRLEX]))
def test_printing_matches_the_sorted_fraction_formatter(f, order):
    assert f.to_str(order) == polynomial_text(f, order)


def test_constant_checks_its_variables_and_scalar():
    assert Polynomial.constant(XY, 0) == Polynomial.zero(XY)
    assert not Polynomial.constant(XY, F(0))
    assert Polynomial.constant(XY, 3).terms == {(0, 0): F(3)}
    assert type(Polynomial.one(XY).terms[(0, 0)]) is F
    for variables in ((), ("x", "x")):
        with pytest.raises(ValueError):
            Polynomial.constant(variables, 1)
        with pytest.raises(ValueError):
            Polynomial.one(variables)
    with pytest.raises(TypeError):
        Polynomial.constant(XY, 0.5)


# -- ambient extension -----------------------------------------------------------------

def test_extend_maps_variables_by_name():
    f = p("x^2 + y^3")
    g = f.extend(("z", "y", "x"))
    assert g == parse_polynomial("x^2 + y^3", ("z", "y", "x"))
    assert g.terms[(0, 0, 2)] == 1
    assert g.terms[(0, 3, 0)] == 1
    with pytest.raises(ValueError):
        f.extend(("x", "z"))


def test_extend_drops_only_unused_variables():
    f = p("x^2 + x*z", XYZ)
    assert f.extend(("z", "x")) == parse_polynomial("x^2 + x*z", ("z", "x"))
    with pytest.raises(ValueError, match="must contain 'z'"):
        f.extend(XY)


# -- hypothesis: ring axioms and calculus properties -----------------------------------

coeffs = st.builds(F, st.integers(-6, 6).filter(bool), st.integers(1, 4))


def polys(nvars=3, max_deg=4, max_terms=5):
    variables = XYZ[:nvars]
    monos = st.tuples(*([st.integers(0, max_deg)] * nvars)).filter(
        lambda m: sum(m) <= max_deg)
    return st.dictionaries(monos, coeffs, max_size=max_terms).map(
        lambda terms: Polynomial(variables, terms))


@settings(max_examples=60)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60)
@given(polys())
def test_string_round_trip_is_identity(f):
    assert parse_polynomial(str(f), XYZ) == f


@settings(max_examples=60)
@given(polys(), polys(), st.integers(0, 2))
def test_leibniz_rule(f, g, i):
    assert (f * g).diff(i) == f.diff(i) * g + g.diff(i) * f


@settings(max_examples=60)
@given(polys().filter(bool), polys().filter(bool))
def test_order_at_origin_is_additive(f, g):
    assert (f * g).order_at_origin() == f.order_at_origin() + g.order_at_origin()


@settings(max_examples=40)
@given(polys(), polys(), polys(nvars=2, max_deg=2, max_terms=3))
def test_substitution_is_a_ring_map(f, g, repl):
    # replacement lives over (x, y); eliminate z.
    assert (f + g).substitute(2, repl) == f.substitute(2, repl) + g.substitute(2, repl)
    assert (f * g).substitute(2, repl) == f.substitute(2, repl) * g.substitute(2, repl)


# -- short paths: one-term products and unused-variable substitution ---------------------

def one_terms(nvars=3, max_deg=4):
    """A single term c*x^a, with c = 1 as often as not; the constant
    monomial is drawn on its own as well."""
    monos = st.one_of(st.just((0,) * nvars),
                      st.tuples(*([st.integers(0, max_deg)] * nvars)))
    return st.builds(lambda m, c: Polynomial(XYZ[:nvars], {m: c}),
                     monos, st.one_of(st.just(F(1)), coeffs))


@settings(max_examples=150)
@given(polys(), one_terms())
def test_product_with_one_term_is_the_accumulated_product(f, t):
    # The terms and their order are those of the pairwise accumulation.
    assert list((f * t).terms.items()) == list(product_terms(f, t).items())
    assert list((t * f).terms.items()) == list(product_terms(t, f).items())


@settings(max_examples=100)
@given(polys(nvars=2), polys(nvars=2, max_deg=3), st.integers(0, 2))
def test_substituting_an_unused_variable_drops_its_exponent(f, repl, index):
    # f over (x, y) viewed with z inserted at `index`; any replacement.
    ambient = XY[:index] + ("z",) + XY[index:]
    image = f.extend(ambient).substitute(index, repl)
    assert image.vars == XY
    assert list(image.terms.items()) == list(f.terms.items())


@settings(max_examples=100)
@given(polys(), st.permutations(("x", "y", "z", "w")))
def test_extend_round_trips_through_any_ambient_holding_the_used_variables(f, wide):
    # Out to four variables in any order and back; and down to each
    # ambient of the variables f uses, in their order, and back.
    assert f.extend(wide).extend(XYZ) == f
    used = [v for i, v in enumerate(XYZ) if f.uses_variable(i)]
    narrow = tuple(v for v in wide if v in used)
    assert f.extend(narrow).extend(wide).extend(XYZ) == f


@settings(max_examples=100)
@given(polys(), st.integers(0, 2))
def test_extend_refuses_to_drop_a_used_variable(f, index):
    rest = XYZ[:index] + XYZ[index + 1:]
    if f.uses_variable(index):
        with pytest.raises(ValueError, match=f"must contain {XYZ[index]!r}"):
            f.extend(rest)
    else:
        assert f.extend(rest).extend(XYZ) == f


# -- the packed monomials of the graded engine --------------------------------------------

ORDERS = [GREVLEX, LEX, GRLEX]


@st.composite
def codec_monomials(draw, count):
    """(codec, monomials): a codec of 1-4 variables with weights 1-5 and a
    field width of 1-8 bits, and ``count`` monomials whose total degrees
    sum to less than 2^width, so that their product fits too."""
    n = draw(st.integers(1, 4))
    weights = draw(st.tuples(*[st.integers(1, 5)] * n))
    width = draw(st.integers(1, 8))
    budget = (1 << width) - 1
    monomials = []
    for _ in range(count):
        m = tuple(draw(st.lists(st.integers(0, budget), min_size=n, max_size=n)))
        while sum(m) > budget:
            m = tuple(e // 2 for e in m)
        budget -= sum(m)
        monomials.append(m)
    order = draw(st.sampled_from(ORDERS))
    return _Codec(weights, order, width), monomials


@given(codec_monomials(2))
def test_packed_monomials_are_additive_and_decode_back(case):
    codec, (a, b) = case
    ka, kb = codec.encode(a), codec.encode(b)
    assert codec.decode(ka) == a and codec.decode(kb) == b
    product = tuple(x + y for x, y in zip(a, b))
    assert ka + kb - codec.base == codec.encode(product)
    # The weighted degree is the top field.
    assert ka >> codec.top == sum(e * w for e, w in zip(a, codec.weights))
    # Wider fields take every key over as the key of the same monomial.
    wider = _Codec(codec.weights, codec.order, codec.width + 3)
    assert codec.pack([{a: 1}]).on(wider) == [{wider.encode(a): 1}]
    for i, step in enumerate(codec.steps):
        if sum(a) + 1 < 1 << codec.width:
            shifted = a[:i] + (a[i] + 1,) + a[i + 1:]
            assert ka + step == codec.encode(shifted)


@given(codec_monomials(2))
def test_packed_monomials_compare_as_the_order_within_a_weighted_degree(case):
    codec, (a, b) = case
    key = codec.order.key
    ka, kb = codec.encode(a), codec.encode(b)
    # The fields below the weighted degree compare as the order in every degree.
    assert ((ka & codec.low) < (kb & codec.low)) == (key(a) < key(b))
    if ka >> codec.top == kb >> codec.top:
        assert (ka < kb) == (key(a) < key(b))
        assert (ka == kb) == (a == b)


@pytest.mark.parametrize("order", ORDERS, ids=lambda order: order.name)
@given(n=st.integers(1, 4), width=st.integers(1, 8), data=st.data())
def test_a_monomial_too_wide_for_its_fields_is_refused(order, n, width, data):
    codec = _Codec((1,) * n, order, width)
    widest = (1 << width) - 1
    i = data.draw(st.integers(0, n - 1))
    # The largest exponent that fits decodes back; one more would carry into
    # the next field, and is refused instead.
    m = tuple(widest * (j == i) for j in range(n))
    assert codec.decode(codec.encode(m)) == m
    extra = data.draw(st.integers(1, 3))
    for wide in (tuple(e + extra * (j == i) for j, e in enumerate(m)),
                 tuple(e + extra * (j == (i + 1) % n) for j, e in enumerate(m))):
        with pytest.raises(OverflowError, match=f"does not fit in {width}-bit fields"):
            codec.encode(wide)
