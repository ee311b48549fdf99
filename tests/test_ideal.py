"""Groebner engine: reduced bases, normal forms, and ideal algebra."""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hodgeideals.ideal
from hodgeideals import GREVLEX, GRLEX, LEX, Ideal, Polynomial, groebner_basis, normal_form
from hodgeideals.ideal import graded_basis
from hodgeideals.parser import parse_polynomial
from hodgeideals.poly import _Codec, integer_terms

from helpers import packed_rows, spanned_by, term_dicts
from oracles import linear_membership, log_terms

XY = ("x", "y")
XYZ = ("x", "y", "z")


def p(text, variables=XY):
    return parse_polynomial(text, variables)


def ideal(*texts, variables=XY):
    return spanned_by(variables, texts)


def mono_div(a, b):
    """Componentwise quotient a/b, or None when b does not divide a."""
    if any(x < y for x, y in zip(a, b)):
        return None
    return tuple(x - y for x, y in zip(a, b))


# -- Buchberger golden cases ---------------------------------------------------

def test_principal_ideal():
    assert groebner_basis([p("x")]) == (p("x"),)


def test_redundant_generator_dropped():
    gb = groebner_basis([p("x^2"), p("x y"), p("y^3"), p("x y^2")])
    assert set(gb) == {p("x^2"), p("x y"), p("y^3")}
    # independent confirmation that x*y^2 was redundant
    assert linear_membership(p("x y^2"), [p("x^2"), p("x y"), p("y^3")])


def test_linear_span():
    assert set(groebner_basis([p("x + y"), p("x - y")])) == {p("x"), p("y")}


def test_unit_ideal_collapses():
    assert groebner_basis([p("x"), p("1 - x")]) == (Polynomial.one(XY),)


def test_zero_ideal():
    assert groebner_basis([]) == ()
    assert groebner_basis([Polynomial.zero(XY)]) == ()


# -- normal forms ----------------------------------------------------------------

def test_normal_form_member_reduces_to_zero():
    basis = ideal("x^2", "x y", "y^3").groebner()
    assert not normal_form(p("x y^2"), basis)
    assert linear_membership(p("x y^2"), list(basis))


def test_normal_form_nonmember_unchanged():
    basis = ideal("x^2", "x y", "y^3").groebner()
    assert normal_form(p("y^2"), basis) == p("y^2")
    assert not linear_membership(p("y^2"), list(basis))


def test_normal_form_of_zero():
    assert not normal_form(Polynomial.zero(XY), ideal("x^2", "x y", "y^3").groebner())


# -- membership and containment ----------------------------------------------------

def test_contains_poly():
    assert not normal_form(p("x^2 + y^3"), ideal("x", "y").groebner())
    assert normal_form(p("y^2"), ideal("x^2", "x y", "y^3").groebner())
    assert not normal_form(p("y^4 - 5/2 x^2 y"), ideal("1").groebner())


def test_contains_ideal():
    big = ideal("x", "y")
    small = ideal("x^2", "x y", "y^3")
    assert big.contains_ideal(small)
    assert not small.contains_ideal(big)
    assert small.contains_ideal(small)


# Ideals whose reduced basis is all monomials: the zero and the unit
# ideal, one given by non-monomial generators, and two with a binomial
# generator that the basis reduces away.
MONOMIAL_BASES = [(), ("1",), ("x + y", "y"), ("x^2", "x y", "y^3"),
                  ("x^3 + x y", "x y", "y^4")]
# Queries whose generators have every term inside, some outside, or both.
QUERIES = [(), ("x^2 + y^3",), ("x y - 3 y^5",), ("x^2 + 1/2 y",), ("x + 1",),
           ("x^3", "x y^2 + y^4"), ("x^4 y", "y")]


@pytest.mark.parametrize("gens", MONOMIAL_BASES)
def test_contains_ideal_on_a_monomial_basis_agrees_with_the_oracle(gens, normal_form_calls):
    big = ideal(*gens)
    assert all(len(g.terms) == 1 for g in big.groebner())
    normal_form_calls.clear()
    for texts in QUERIES:
        small = ideal(*texts)
        want = all(linear_membership(g, big.generators) for g in small.generators)
        assert big.contains_ideal(small) == want, texts
    # Divisibility decides it: no normal form is taken.
    assert not normal_form_calls


def test_contains_ideal_reads_every_term_against_a_monomial_basis():
    m = ideal("x^2", "x y", "y^3")
    assert m.contains_ideal(ideal("x^2 + y^3 - 2 x y^5"))
    assert not m.contains_ideal(ideal("x^2 + y^2"))
    assert not m.contains_ideal(ideal("x^2", "y"))
    assert ideal("x + y", "y").contains_ideal(ideal("x^2 + 1/2 y"))
    assert ideal("1").contains_ideal(ideal("x + 1"))
    assert not Ideal.zero(XY).contains_ideal(ideal("x"))
    assert Ideal.zero(XY).contains_ideal(Ideal.zero(XY))


def test_contains_ideal_on_random_monomial_ideals_agrees_with_the_oracle():
    rng = random.Random(25)
    for _ in range(40):
        big = Ideal(XY, [Polynomial(XY, {(rng.randint(0, 3), rng.randint(0, 3)): 1})
                         for _ in range(rng.randint(1, 3))])
        small = Ideal(XY, [Polynomial(XY, {(rng.randint(0, 4), rng.randint(0, 4)):
                                           F(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 3))
                                           for _ in range(rng.randint(1, 3))})
                           for _ in range(rng.randint(1, 2))])
        want = all(linear_membership(g, big.generators) for g in small.generators)
        assert big.contains_ideal(small) == want


def test_contains_ideal_on_a_non_monomial_basis_takes_normal_forms(normal_form_calls):
    big = ideal("x^2 + y^3", "x y")
    assert any(len(g.terms) > 1 for g in big.groebner())
    for texts in (("x^3", "x^2 y + x y^2"), ("x^2",)):
        normal_form_calls.clear()
        small = ideal(*texts)
        want = all(linear_membership(g, big.generators) for g in small.generators)
        assert big.contains_ideal(small) == want
        assert normal_form_calls


def test_ideal_equality():
    assert ideal("x", "y").equals(ideal("x + y", "x - y"))
    assert not ideal("x^2", "x y", "y^3").equals(ideal("x^2", "x y", "y^2"))
    assert ideal("1").equals(ideal("x", "1 - x"))


def test_equality_is_an_equivalence_and_containment_a_partial_order():
    family = [ideal("x", "y"), ideal("x + y", "x - y"), ideal("x^2", "x y", "y^3"),
              ideal("x^2", "x y", "y^2"), ideal("1"), Ideal.zero(XY)]
    for a in family:
        assert a.equals(a)
        for b in family:
            assert a.equals(b) == b.equals(a)
            if a.contains_ideal(b) and b.contains_ideal(a):
                assert a.equals(b)
            for c in family:
                if a.equals(b) and b.equals(c):
                    assert a.equals(c)
                if a.contains_ideal(b) and b.contains_ideal(c):
                    assert a.contains_ideal(c)


# -- sums, products, powers ----------------------------------------------------------

def test_ideal_sum():
    assert (ideal("x") + ideal("y")).equals(ideal("x", "y"))


def test_zero_ideal_is_sum_identity_and_product_annihilator():
    i = ideal("x^2", "y")
    assert (i + Ideal.zero(XY)).equals(i)
    assert (i * Ideal.zero(XY)).is_zero()


# -- order at the origin ---------------------------------------------------------------

def test_ideal_order_at_origin():
    assert ideal("x^2", "x y", "y^3").order_at_origin() == 2
    assert Ideal.unit(XY).order_at_origin() == 0
    assert ideal("x^3", "x^2 y^2", "x y^3", "y^4 - 5/2 x^2 y").order_at_origin() == 3


def test_order_at_origin_multiplicative():
    a = ideal("x^2", "x y", "y^3")
    b = ideal("x", "y^2")
    assert (a * b).order_at_origin() == a.order_at_origin() + b.order_at_origin()


# -- ambient extension -------------------------------------------------------------------

def test_extend_ambient():
    xyz = ("x", "y", "z")
    assert ideal("x", "y").extend(xyz).equals(spanned_by(xyz, ["x", "y"]))
    assert Ideal.unit(XY).extend(xyz).equals(Ideal.unit(xyz))
    ext = ideal("x^2", "x y", "y^3").extend(xyz)
    assert ext.equals(spanned_by(xyz, ["x^2", "x y", "y^3"]))
    assert normal_form(parse_polynomial("z", xyz), ext.groebner())


def test_extending_a_presented_basis_extends_it_once(monkeypatch, groebner_calls):
    # Each kept basis element goes through the extension map once, and the
    # extended basis is kept: it is not computed again.
    xyz = ("x", "y", "z")
    basis = ideal("x^2", "x y", "y^3").groebner()
    extended = []
    real = hodgeideals.ideal.extension

    def counted(old, new):
        extend = real(old, new)

        def each(g):
            extended.append(g)
            return extend(g)
        return each

    monkeypatch.setattr(hodgeideals.ideal, "extension", counted)
    groebner_calls.clear()
    ext = Ideal.from_basis(XY, basis).extend(xyz)
    assert extended == list(basis) and len(basis) == 3
    assert ext.groebner() == tuple(g.extend(xyz) for g in basis)
    assert groebner_calls == []
    assert ext.equals(spanned_by(xyz, ["x^2", "x y", "y^3"]))


def test_extend_drops_a_variable_only_through_the_kept_basis():
    # (x, x*z) is extended from x, y, and its reduced basis (x) shows it;
    # (x*z + y, y + x^2) is not, and its reduced basis uses z.
    cylinder = spanned_by(XYZ, ["x", "x z"])
    with pytest.raises(ValueError, match="must contain 'z'"):
        cylinder.extend(XY)
    cylinder.groebner()
    assert cylinder.extend(XY).groebner() == (p("x"),)
    assert cylinder.extend(XY).extend(XYZ).equals(cylinder)
    assert cylinder.extend(("z", "x")).groebner() == (p("x", ("z", "x")),)
    other = spanned_by(XYZ, ["x z + y", "y + x^2"])
    other.groebner()
    with pytest.raises(ValueError, match="must contain 'z'"):
        other.extend(XY)


# -- bases for other orders ---------------------------------------------------------------

def test_another_order_computes_only_a_kept_basis_that_is_not_monomial(groebner_calls):
    # Minimal monomials of degrees 3, 4 and 5, which lex lists in another
    # order than grevlex; the unit ideal; a principal ideal, whose
    # generator lex and grlex make monic by different terms; a basis with
    # a binomial, kept as it is and as graded_basis keeps it, with its
    # weights and rows, which a basis for another order is read from.
    binomial = [p("x^2 + y^3"), p("x y")]
    for texts, calls in ((["x^3", "x^2 y^2", "x y^3", "y^5", "x^3 y"], 0), (["1"], 0),
                         (["2 x^2 + 3 y^3"], 0), (["x^2 + y^3", "x y"], 1)):
        gens = [p(t) for t in texts]
        kept = Ideal.from_basis(XY, groebner_basis(gens))
        for order in (LEX, GRLEX):
            want = groebner_basis(gens, order)
            groebner_calls.clear()
            assert kept.groebner(order) == want
            assert len(groebner_calls) == calls
    kept = Ideal.from_basis(XY, graded_basis(packed_rows(binomial, (3, 2)), XY))
    for order in (LEX, GRLEX):
        want = groebner_basis(binomial, order)
        groebner_calls.clear()
        assert kept.groebner(order) == want
        assert groebner_calls == []


# -- canonical text form ----------------------------------------------------------------

def test_ideal_text_form_uses_reduced_basis_descending():
    assert ideal("x + y", "x - y").to_str() == "ideal(x, y)"
    assert ideal("x^2", "x y", "y^3", "x y^2").to_str() == "ideal(y^3, x^2, x*y)"
    assert Ideal.zero(XY).to_str() == "ideal()"


@pytest.mark.parametrize("gens,variables,expected", [
    (["x^2", "y^3"], ("x", "y"), True),
    (["x^2 + y^2", "x y"], ("x", "y"), True),
    (["x y"], ("x", "y"), False),
    (["1"], ("x", "y"), True),
    ([], ("x", "y"), False),
    (["3x^2 + y z", "3y^2 + x z", "x y"], ("x", "y", "z"), False),
    (["x^2", "y^2", "z^2"], ("x", "y", "z"), True),
])
def test_is_zero_dimensional(gens, variables, expected):
    assert spanned_by(variables, gens).is_zero_dimensional() is expected


def test_graded_basis_on_small_inputs():
    # (x^2 + y^3, x y) with weights (3, 2): m-primary, and the x^3 it needs
    # comes from a syzygy, x*(x^2 + y^3) - y^2*(x y).
    gens = [p("x^2 + y^3"), p("x y")]
    assert graded_basis(packed_rows(gens, (3, 2)), XY) == groebner_basis(gens) \
        == tuple(p(t) for t in ("x^3", "x^2 + y^3", "x y"))
    assert graded_basis(packed_rows([p("x^2"), p("3"), p("y^5")], (3, 2)), XY) == (p("1"),)
    assert graded_basis(packed_rows([p("0")], (1, 1)), XY) == ()
    assert p("x^2 + y^3").weighted_degree((3, 2)) == 6
    assert p("x^2 + y").weighted_degree((3, 2)) is None


def test_graded_basis_scales_fractions_and_drops_zero_generators():
    # Rational coefficients scaled to integer rows, whose leading
    # coefficients are not 1 (7 x^2 + 6 y^3 and 2 x y), and the empty row of
    # a zero generator, which spans nothing.
    gens = [p("1/2 x^2 + 3/7 y^3"), p("0"), p("2/3 x y")]
    graded = graded_basis(packed_rows(gens, (3, 2)), XY)
    assert graded == groebner_basis(gens)
    assert term_dicts(graded.packed) == tuple(integer_terms((w,))[1][0] for w in graded)


@st.composite
def weighted_m_primary(draw):
    """(variables, weights, generators): up to three binomials of one
    weighted degree D plus a pure power of every variable, integer
    weights.  A pure power either divides no term of the binomials, so
    their tails last until the syzygies past the last generator degree,
    or is drawn freely, so that some tails vanish early."""
    n = draw(st.integers(2, 3))
    variables = ("x", "y", "z")[:n]
    weights = draw(st.tuples(*[st.integers(1, 4)] * n))
    degree = draw(st.integers(1, 16))
    same = [m for m in itertools.product(range(degree + 1), repeat=n)
            if sum(a * w for a, w in zip(m, weights)) == degree]
    coefficient = st.integers(-3, 3).filter(bool)
    gens = []
    if len(same) >= 2:
        for _ in range(draw(st.integers(0, 3))):
            a, b = draw(st.lists(st.sampled_from(same), min_size=2, max_size=2, unique=True))
            gens.append(Polynomial(variables, {a: draw(coefficient), b: draw(coefficient)}))
    for i in range(n):
        above = 1 + max((m[i] for g in gens for m in g.terms), default=0)
        e = draw(st.one_of(st.just(above), st.integers(1, 6)))
        gens.append(Polynomial(variables, {tuple(e * (i == j) for j in range(n)): 1}))
    return variables, weights, gens


@settings(deadline=None)
# The binomial's tail y^2 is reduced away at once by the pure power y:
# no row keeps a tail past degree 2.
@example((("x", "y"), (1, 1), [p("x^3"), p("y"), p("x^2 + y^2")]))
# A tail that lasts: x*y - y^2 needs the pure powers to end it.
@example((("x", "y"), (1, 1), [p("x^4"), p("y^5"), p("x y - y^2")]))
# No pure power: x^3 and y^4 both come after the last generator degree.
@example((("x", "y"), (3, 2), [p("x^2 + y^3"), p("x y")]))
# Basis elements 4 and 8 degrees past the last generator degree.
@example((XYZ, (3, 2, 4), [p("x y^5 + x y z^2", XYZ), p("x^3 y^2 - x^3 z", XYZ),
                           p("x^4", XYZ), p("y^3", XYZ), p("z^3", XYZ)]))
@example((XYZ, (3, 4, 1), [p("3 x y z^8 + 2 y^2 z^7", XYZ), p("2 x z^12 - 3 y^3 z^3", XYZ),
                           p("3 z^15 + x z^12", XYZ), p("x^4", XYZ), p("y^4", XYZ),
                           p("z^16", XYZ)]))
@given(weighted_m_primary())
def test_graded_basis_is_groebner_basis_on_weighted_m_primary_inputs(case):
    variables, weights, gens = case
    graded = graded_basis(packed_rows(gens, weights), variables)
    assert graded == groebner_basis(gens)
    assert graded.packed.codec.weights == weights
    assert term_dicts(graded.packed) == tuple(integer_terms((w,))[1][0] for w in graded)


@pytest.mark.parametrize("order", [LEX, GRLEX], ids=lambda order: order.name)
@settings(deadline=None)
@example((("x", "y"), (3, 2), [p("x^2 + y^3"), p("x y")]))
# Grevlex leads with y^2, grlex and lex with x*z.
@example((XYZ, (1, 1, 1), [p("x z - y^2", XYZ), p("x^3", XYZ), p("y^3", XYZ), p("z^3", XYZ)]))
@example((XYZ, (3, 2, 4), [p("x y^5 + x y z^2", XYZ), p("x^3 y^2 - x^3 z", XYZ),
                           p("x^4", XYZ), p("y^3", XYZ), p("z^3", XYZ)]))
@given(weighted_m_primary())
def test_graded_basis_in_lex_and_grlex_is_groebner_basis(order, case):
    variables, weights, gens = case
    graded = graded_basis(packed_rows(gens, weights, order), variables)
    assert graded == groebner_basis(gens, order)
    # Rebuilt from the integer rows of the grevlex basis, as a print does.
    kept = graded_basis(packed_rows(gens, weights), variables).packed
    assert graded_basis(kept.on(_Codec(weights, order, kept.codec.width)), variables) == graded


def test_graded_basis_widens_its_fields_when_a_degree_crosses_them():
    # The generators have weighted degree at most 6 for (3, 2), so total
    # degree at most 3: 2-bit fields hold them, and every degree below 8.
    # The loop goes on to x^3 in degree 9, so from degree 8 on (y^4) it
    # starts over on wider fields.
    gens = [p("x^2 + y^3"), p("x y")]
    for order in (GREVLEX, LEX, GRLEX):
        packed = _Codec((3, 2), order, 2).pack(integer_terms(gens)[1])
        assert packed.codec.limit == 8
        graded = graded_basis(packed, XY)
        assert graded == groebner_basis(gens, order)
        assert graded.packed.codec.width > 2 and graded.packed.codec.order is order
        assert term_dicts(graded.packed) == tuple(integer_terms((w,))[1][0] for w in graded)


def test_graded_basis_reads_its_weights_and_order_off_the_codec(groebner_calls):
    # Grevlex leads with y^2, grlex and lex with x*z: the same rows laid
    # out for each order give that order's basis, and no Buchberger basis
    # is computed on the way.
    gens = [p("x z - y^2", XYZ), p("x^3", XYZ), p("y^3", XYZ), p("z^3", XYZ)]
    want = {order: groebner_basis(gens, order) for order in (GREVLEX, LEX, GRLEX)}
    groebner_calls.clear()
    for order, basis in want.items():
        graded = graded_basis(packed_rows(gens, (1, 1, 1), order), XYZ)
        assert graded == basis
        assert graded.packed.codec.weights == (1, 1, 1) and graded.packed.codec.order is order
    assert groebner_calls == []


@pytest.mark.parametrize("gens,weights", [
    (["x^2 y", "x y^2", "y^3"], (3, 2)),  # no power of x; every row a monomial
    (["x^2 - x y", "x y"], (1, 1)),        # tails that vanish, leads x^2 and x y
])
def test_graded_basis_refuses_an_ideal_that_is_not_m_primary(gens, weights):
    # The loop stops on these rows, and the leads it found are refused.  In
    # a child process, so that an engine that never stops fails the test
    # after 5 s instead of hanging it.
    script = ("import sys\n"
              "from helpers import packed_rows\n"
              "from hodgeideals import parse_polynomial\n"
              "from hodgeideals.ideal import graded_basis\n"
              f"gens = [parse_polynomial(t, ('x', 'y')) for t in {gens!r}]\n"
              "try:\n"
              f"    graded_basis(packed_rows(gens, {weights!r}), ('x', 'y'))\n"
              "except ValueError as exc:\n"
              "    sys.exit(str(exc))\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=5, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert done.returncode == 1
    assert done.stderr.startswith("the ideal is not m-primary")


# -- structural properties of reduced bases -------------------------------------------------

SAMPLE_IDEALS = [
    ["x^2 + y", "x y - 1"],
    ["x^3 - 2 x y", "x^2 y - 2 y^2 + x"],
    ["x + y", "x^2 - y^2", "y^3"],
    ["x^2", "x y", "y^3", "x y^2"],
    ["2x^2 - y", "3y^2 - x"],
]


@pytest.mark.parametrize("gens", SAMPLE_IDEALS)
def test_reduced_basis_is_reduced_and_monic(gens):
    basis = groebner_basis([p(t) for t in gens])
    leads = [g.leading_monomial() for g in basis]
    for i, g in enumerate(basis):
        assert g.leading(GREVLEX)[1] == 1
        for mono in g.terms:
            for j, lead in enumerate(leads):
                if j != i:
                    assert mono_div(mono, lead) is None


@pytest.mark.parametrize("gens", SAMPLE_IDEALS)
def test_every_s_polynomial_reduces_to_zero(gens):
    from hodgeideals.ideal import s_polynomial
    basis = groebner_basis([p(t) for t in gens])
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            assert not normal_form(s_polynomial(basis[i], basis[j]), basis)


@pytest.mark.parametrize("gens", SAMPLE_IDEALS)
def test_groebner_is_idempotent(gens):
    basis = groebner_basis([p(t) for t in gens])
    assert groebner_basis(basis) == basis


# Generators added on top of a known basis: none, one, two, one of high degree.
EXTRA_GENERATORS = [[], ["x + y^2"], ["x y - 1", "y^2"], ["x^4 - y"]]


@pytest.mark.parametrize("order", [GREVLEX, LEX, GRLEX], ids=lambda o: o.name)
@pytest.mark.parametrize("gens", SAMPLE_IDEALS)
def test_known_basis_gives_the_same_reduced_basis(gens, order):
    reduced = groebner_basis([p(t) for t in gens], order)
    # h * G is a Groebner basis but not a reduced one.
    scaled = [p("x - 2y + 3") * g for g in reduced]
    for known in (list(reduced), scaled):
        for extra in EXTRA_GENERATORS:
            extra = [p(t) for t in extra]
            assert groebner_basis(extra, order, known=known) == \
                groebner_basis(known + extra, order)


def _no_pairs(*args):
    raise AssertionError("an S-pair was formed")


def test_known_reduced_basis_forms_no_pairs(monkeypatch):
    import hodgeideals.ideal
    basis = groebner_basis([p(t) for t in SAMPLE_IDEALS[1]])
    monkeypatch.setattr(hodgeideals.ideal, "s_polynomial", _no_pairs)
    assert groebner_basis([], GREVLEX, known=basis) == basis


@pytest.mark.parametrize("order", [GREVLEX, LEX, GRLEX], ids=lambda o: o.name)
def test_monomial_ideal_forms_no_pairs(order, monkeypatch):
    import hodgeideals.ideal
    monkeypatch.setattr(hodgeideals.ideal, "s_polynomial", _no_pairs)
    gens = [p("3 x^2 y"), p("x y^3"), p("-x^3"), p("x^2 y^2"), p("y^4"), p("x y^3")]
    basis = groebner_basis(gens, order)
    assert set(basis) == {p("x^2 y"), p("x y^3"), p("x^3"), p("y^4")}
    keys = [order.key(g.leading_monomial(order)) for g in basis]
    assert keys == sorted(keys, reverse=True)
    assert groebner_basis([p("x^2"), p("5")], order) == (Polynomial.one(XY),)


@pytest.mark.parametrize("order", [GREVLEX, LEX, GRLEX], ids=lambda o: o.name)
def test_monomial_inputs_are_read_as_given(order, monkeypatch):
    def refuse(*args):
        raise AssertionError("a monomial input was normalised as a polynomial")

    gens = [p("3 x^2 y"), p("x y^3"), p("-x^3"), p("x y^3"), p("y^4")]
    with monkeypatch.context() as m:
        m.setattr(Polynomial, "monic", refuse)
        m.setattr(Polynomial, "__hash__", refuse)
        basis = groebner_basis(gens, order, known=[p("x^2 y^2")])
        unit = groebner_basis([p("x^2"), p("-5")], order)
    assert set(basis) == {p("x^2 y"), p("x y^3"), p("x^3"), p("y^4")}
    assert unit == (Polynomial.one(XY),)


def test_a_duplicated_input_forms_no_extra_pair(monkeypatch):
    import hodgeideals.ideal
    pairs = []
    real = hodgeideals.ideal.s_polynomial

    def counted(*args):
        pairs.append(args)
        return real(*args)

    monkeypatch.setattr(hodgeideals.ideal, "s_polynomial", counted)
    # f and g share their leading monomial x^2 in every order.
    f, g, h = p("x^2 + y"), p("x^2 + x y"), p("y^3 + x")
    for order in (GREVLEX, LEX, GRLEX):
        pairs.clear()
        basis = groebner_basis([f, g, h], order)
        once = len(pairs)
        pairs.clear()
        assert groebner_basis([f, g, 2 * f, h, g, -3 * g, f, h], order) == basis
        assert once > 0 and len(pairs) == once


# The orders by their textbook definitions, as nested sort keys.
REFERENCE_KEYS = {
    "grevlex": lambda m: (sum(m), tuple(-e for e in reversed(m))),
    "grlex": lambda m: (sum(m), m),
    "lex": lambda m: m,
}


@pytest.mark.parametrize("order", [GREVLEX, LEX, GRLEX], ids=lambda o: o.name)
def test_flat_keys_sort_like_the_order(order):
    from itertools import product
    monos = list(product(range(4), repeat=3))
    expected = sorted(monos, key=REFERENCE_KEYS[order.name])
    assert sorted(monos, key=order.key) == expected
    assert sorted(monos, key=order.desc) == expected[::-1]


def _old_normal_form(f, basis, order):
    """Division as the engine did it before its working terms moved to a
    heap: a rescan for the largest term, the first dividing basis element
    in list order."""
    divisors = [(g.leading(order), g) for g in basis if g]
    work = dict(f.terms)
    remainder = {}
    while work:
        m = max(work, key=order.key)
        c = work.pop(m)
        for (lm, lc), g in divisors:
            q = mono_div(m, lm)
            if q is not None:
                for gm, gc in g.terms.items():
                    if gm != lm:
                        t = tuple(a + b for a, b in zip(gm, q))
                        nc = work.get(t, 0) - c / lc * gc
                        if nc:
                            work[t] = nc
                        else:
                            work.pop(t, None)
                break
        else:
            remainder[m] = c
    return Polynomial(f.vars, remainder)


@pytest.mark.parametrize("order", [GREVLEX, LEX, GRLEX], ids=lambda o: o.name)
def test_normal_form_matches_plain_division(order):
    # Arbitrary divisor lists (not Groebner bases, not monic), so the
    # remainder depends on the term order and on the divisor order.
    rng = random.Random(17)
    for _ in range(40):
        f, gens = random_membership_instance(rng)
        divisors = [g * rng.choice([1, F(-2, 3), 5]) for g in gens]
        rng.shuffle(divisors)
        f = f + gens[0] * gens[-1]
        assert normal_form(f, divisors, order) == _old_normal_form(f, divisors, order)


def _derivation_step_inputs(f, alpha, k_max):
    """The generators of each derivation step along the chain of the
    diagonal divisor ``alpha * (f = 0)``, built from the reduced basis G of
    each level: g*w for w in G, then g*d_l(w) - w*h_l for each w and l."""
    from hodgeideals import classify, derivation_step, i0_seed, parse_divisor
    d = parse_divisor({"vars": ["x", "y", "z"], "components": [{"f": f, "alpha": alpha}]})
    r = classify(d)
    g = r.reduced.support_equation
    current = i0_seed(r)
    inputs = []
    for k in range(k_max):
        basis = current.groebner()
        h = log_terms(r.reduced, k)
        inputs.append(tuple(g * w for w in basis) +
                      tuple(g * w.diff(ell) - w * h[ell] for w in basis for ell in range(3)))
        current = derivation_step(current, r.reduced, k)
    return inputs


@pytest.mark.parametrize("f,alpha,k_max", [("x^2+y^2+z^2", "3/4", 4), ("x^2+y^3+z^5", "1", 3)])
def test_groebner_basis_ignores_generator_order(f, alpha, k_max):
    from hodgeideals.ideal import s_polynomial
    inputs = _derivation_step_inputs(f, alpha, k_max)
    assert len(inputs) == k_max
    rng = random.Random(5)
    for gens in inputs:
        for order in (GREVLEX, LEX, GRLEX):
            basis = groebner_basis(gens, order)
            for _ in range(2):
                shuffled = list(gens)
                rng.shuffle(shuffled)
                assert groebner_basis(shuffled, order) == basis
            assert groebner_basis(gens[::-1], order) == basis
            for i in range(len(basis)):
                for j in range(i + 1, len(basis)):
                    assert not normal_form(s_polynomial(basis[i], basis[j], order), basis, order)


def test_normal_form_remainder_is_fully_reduced():
    rng = random.Random(41)
    for _ in range(40):
        f, gens = random_membership_instance(rng)
        basis = groebner_basis(gens)
        if not basis:
            continue
        rem = normal_form(f, basis)
        leads = [g.leading_monomial() for g in basis]
        for mono in rem.terms:
            assert all(mono_div(mono, lead) is None for lead in leads)


def test_random_bases_are_groebner():
    # the pair-elimination criteria must never skip a needed reduction
    from hodgeideals.ideal import s_polynomial
    rng = random.Random(99)
    for _ in range(60):
        _, gens = random_membership_instance(rng)
        basis = groebner_basis(gens)
        if basis == (Polynomial.one(gens[0].vars),):
            continue
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                assert not normal_form(s_polynomial(basis[i], basis[j]), basis)
        for g in gens:
            assert not normal_form(g, basis)


# -- agreement with the degree-truncated linear-algebra oracle -------------------------------

def _random_poly(rng, variables, max_deg, max_terms=4, vanish_at_origin=False):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = [0] * len(variables)
        low = 1 if vanish_at_origin else 0
        for _ in range(rng.randint(low, max_deg)):
            mono[rng.randrange(len(variables))] += 1
        if vanish_at_origin and sum(mono) == 0:
            mono[rng.randrange(len(variables))] = 1
        terms[tuple(mono)] = F(rng.randint(-5, 5) or 1, rng.randint(1, 3))
    return Polynomial(variables, terms)


def random_membership_instance(rng):
    """One seeded instance: <= 3 vars, <= 3 generators, degree <= 3, with a
    mix of engineered members and arbitrary query polynomials.  Most
    generators vanish at the origin so the resulting ideals are rarely
    trivial."""
    nvars = rng.randint(1, 3)
    variables = ("x", "y", "z")[:nvars]
    gens = [_random_poly(rng, variables, rng.randint(1, 3),
                         vanish_at_origin=rng.random() < 0.85)
            for _ in range(rng.randint(1, 3))]
    gens = [g for g in gens if g] or [Polynomial.variable(variables, "x")]
    if rng.random() < 0.4:
        f = Polynomial.zero(variables)
        for g in gens:
            room = 3 - (g.total_degree() or 0)
            if room < 0:
                continue
            q = _random_poly(rng, variables, max(room, 0), max_terms=2)
            f = f + q * g
        if f and (f.total_degree() or 0) <= 3:
            return f, gens
    return _random_poly(rng, variables, 3), gens


def test_membership_matches_linear_algebra_oracle_sample():
    rng = random.Random(13)
    for _ in range(25):
        f, gens = random_membership_instance(rng)
        via_groebner = not normal_form(f, Ideal(gens[0].vars, gens).groebner())
        assert via_groebner == linear_membership(f, gens)
