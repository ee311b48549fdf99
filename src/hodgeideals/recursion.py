"""The derivation-closure step and its iteration into Hodge-ideal chains.

One step applies the order-one differential operators to a known
filtration level: from (a lower bound for) I_k it produces the ideal
spanned by g*w and the numerators g*dw - w*h of the derivatives of
w / prod f_i^(k + alpha_i), which is always contained in I_(k+1) and
equals it once the filtration is generated at level <= k.  Exactness
accounting is explicit and never promotes a lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from .closed_forms import Regime, diagonal_multiplier_i0, generation_level
from .divisor import HodgeIdealResult, Provenance, QDivisor
from .ideal import Ideal, graded_basis, groebner_basis
from .poly import (GREVLEX, InputError, Monomial, Polynomial, _Codec, _codec, _PackedRows,
                   integer_terms)

CERTIFICATE_SOURCES = ("node-example", "quasihomogeneous-formula", "universal-bound",
                       "user-asserted")


class MethodUnavailableError(ValueError):
    """No computation method applies to the divisor as requested."""


@dataclass(frozen=True)
class GenerationCertificate:
    """A certified generation level for the Hodge filtration of a divisor.

    The filtration is always generated at level n-1; a level above it is
    kept as given, and ``hodge_chain`` uses min(level, n-1).  ``source``
    records where the certificate came from.
    """

    level: int
    source: str

    def __post_init__(self):
        if self.level < 0:
            raise InputError(f"generation level must be >= 0, got {self.level}")
        if self.source not in CERTIFICATE_SOURCES:
            raise ValueError(f"unknown certificate source {self.source!r}; "
                             f"expected one of {CERTIFICATE_SOURCES}")


@dataclass(frozen=True)
class ChainResult:
    """Per-k Hodge ideal results from iterating the derivation step."""

    results: tuple[HodgeIdealResult, ...]


def _grading(ideal: Ideal, divisor: QDivisor) -> Optional[tuple[int, ...]]:
    """Integer weights for ``graded_basis`` when the step's output is sure
    to be m-primary or (1); None otherwise.

    That holds when g is weighted-homogeneous with an isolated singularity
    and the reduced basis of the input is weighted-homogeneous and
    zero-dimensional or (1): the input is then m-primary or (1), and at a
    point p != 0 of Z some w in it has w(p) != 0, where g*d_l(w) - w*h_l
    takes the value -w(p)*h_l(p), nonzero for some l because Z is smooth
    at p.  Off Z, g*w does not vanish at p; it lies in the output even
    where ``_step_rows`` leaves its row out.

    So the output of a graded step qualifies again, and a chain decides
    its grading once: the divisor decides and keeps its integer weights
    (``QDivisor.grading``) on its first step, a basis that
    ``graded_basis`` returned keeps its rows packed on a codec of the
    weights it was reduced for (it raises ``ValueError`` on an output
    that is not m-primary or (1)), and a basis packed for these weights
    is taken as it stands, with no degree or dimension check.
    """
    grading = divisor.grading
    if grading is None:
        return None
    basis = ideal.groebner()
    packed = getattr(basis, "packed", None)
    if packed is not None and packed.codec.weights == grading:
        return grading
    if all(w.weighted_degree(grading) is not None for w in basis) \
            and ideal.is_zero_dimensional():
        return grading
    return None


@dataclass(frozen=True, eq=False)
class StepData:
    """The integer data of the derivation steps of a divisor, decided once
    per divisor (kept by ``QDivisor.step_data``).

    ``g_terms`` (G = c_g*g) and ``rows`` (c^r*P_(i,l)) are the support's
    record ``QDivisor._derivatives``.  With den the least common
    denominator of the alpha_i, k + alpha_i = (k*den + shifts[i])/den,
    ``gh`` = lambda*g for lambda = den*c^r and ``log_rows(k, rows)[l]`` =
    -sum_i (k*den + shifts[i])*rows[i][l] = -lambda*h_l, where h_l =
    sum_i (k + alpha_i)*P_(i,l).  ``reduced`` is ``is_reduced_regime``;
    with a grading, ``resonance`` = (den*deg g, sum_i shifts[i]*deg f_i).

    These are term dicts {exponent tuple: int}.  ``packed(codec)`` gives
    the same data on a codec's packed monomials, ready for the products
    of ``_step_rows``.  One packed copy is kept, for the last codec
    asked: a chain keeps one codec until its degrees outgrow it.
    """

    g_terms: dict[Monomial, int]
    gh: dict[Monomial, int]
    den: int
    shifts: tuple[int, ...]
    rows: tuple[tuple[dict[Monomial, int], ...], ...]
    reduced: bool
    resonance: Optional[tuple[int, int]]
    _packed: list = field(default_factory=lambda: [None, None], repr=False)  # [codec, data]

    @classmethod
    def of(cls, divisor: QDivisor) -> "StepData":
        big_g, scale, rows = divisor._derivatives
        den = math.lcm(*(alpha.denominator for alpha in divisor.alphas))
        shifts = tuple(alpha.numerator * (den // alpha.denominator) for alpha in divisor.alphas)
        degrees = divisor.grading and [f.weighted_degree(divisor.grading) for f in divisor.factors]
        return cls(g_terms=big_g, gh={m: den * scale * c for m, c in big_g.items()}, den=den,
                   shifts=shifts, rows=rows, reduced=divisor.is_reduced_regime(),
                   resonance=degrees and (den * sum(degrees), sum(map(mul, shifts, degrees))))

    def log_rows(self, k: int, rows) -> list[dict]:
        """-lambda*h_l for each variable index l, as integer rows: the
        combinations of ``rows``, this data's ``rows`` as term dicts or
        packed (``packed``)."""
        scalars = [-k * self.den - a for a in self.shifts]
        if len(rows) == 1:  # one factor: its rows times one nonzero scalar
            return [{m: scalars[0] * c for m, c in row.items()} for row in rows[0]]
        out = []
        for ell in range(len(rows[0])):
            h: dict = {}
            for s, rows_i in zip(scalars, rows):
                for m, c in rows_i[ell].items():
                    h[m] = h.get(m, 0) + s * c
            out.append({m: c for m, c in h.items() if c})
        return out

    def packed(self, codec: _Codec):
        """(G, gh shifted down by each x_l, the rows) on ``codec``'s keys,
        each key less the codec's ``base``: a packed monomial plus such a
        key is the key of their product, and gh's l-th copy multiplies
        d_l(w) term by term from the keys of w."""
        kept = self._packed
        if kept[0] is not codec:
            encode, base = codec.encode, codec.base

            def pack(row, offset=0):
                return {encode(m) - base - offset: c for m, c in row.items()}

            kept[:] = codec, (pack(self.g_terms), [pack(self.gh, s) for s in codec.steps],
                              [[pack(row) for row in rows] for rows in self.rows])
        return kept[1]


def _step_rows(basis: Sequence[Polynomial], divisor: QDivisor, k: int,
               grading: Optional[tuple[int, ...]] = None):
    """The generators of step k as packed integer rows (``_PackedRows``):
    a positive integer multiple of each, which spans the same ideal, as
    the pair (the g*w rows, the derivative rows).

    With the integer ``StepData`` of the divisor, G = c_g*g, gh = lambda*g
    and ``log_rows(k)`` = -lambda*h_l, and each w = W/c_w, W integral, the
    rows are G*W = c_g*c_w * g*w, then gh*d_l(W) + W*log_rows(k)[l] =
    lambda*c_w * (g*d_l(w) - w*h_l) for each w and l.  Every product is
    of ``int``s, on packed monomials: a product's key is a sum of keys,
    and d_l(W) reads each exponent of x_l from its key.  W is read packed
    off ``basis.packed`` when ``graded_basis`` returned the basis for
    these weights, and built by ``integer_terms`` and packed otherwise.
    The basis's own fields are kept while they hold the step's largest
    product, g*w; otherwise the rows go onto the fields ``_codec`` picks
    for its degree.  The weights are the ``grading``, or the basis's own
    or all 1 without one.

    With a ``grading`` u_l for which g and every w are weighted-homogeneous
    (the graded path), deg taken for it, the Euler identity

        sum_l u_l*x_l*(g*d_l(w) - w*h_l) = (deg w - sum_i (k + alpha_i)*deg f_i)*g*w

    puts g*w in the ideal of the derivative rows unless the factor
    vanishes, so the g*w row is left out then.  Each f_i is
    weighted-homogeneous, because g is, so with ``StepData.resonance``
    = (a, b) the row is kept exactly when den*deg w = k*a + b.
    """
    data = divisor.step_data
    rows = getattr(basis, "packed", None)
    if rows is not None and grading in (None, rows.codec.weights):
        weights = rows.codec.weights
        # A graded basis's rows are weighted-homogeneous: any key gives the degree.
        degree = max(next(iter(row)) >> rows.codec.top for row in rows)
    else:
        rows = None
        weights = grading or (1,) * len(divisor.vars)
        terms = [integer_terms((w,))[1][0] for w in basis]
        degree = max((sum(map(mul, m, weights)) for row in terms for m in row), default=0)
    degree += max(sum(map(mul, m, weights)) for m in data.g_terms)
    if rows is None:
        rows = _codec(weights, GREVLEX, degree).pack(terms)
    elif degree >= rows.codec.limit:
        rows = rows.on(_codec(weights, GREVLEX, degree))
    codec = rows.codec
    big_g, gh, p_rows = data.packed(codec)
    hg = data.log_rows(k, p_rows)
    top, mask, places = codec.top, codec.mask, codec.places
    if grading is not None:
        resonant = k * data.resonance[0] + data.resonance[1]
    known, derived = _PackedRows(codec), _PackedRows(codec)
    for big_w in rows:
        if grading is None or data.den * (next(iter(big_w)) >> top) == resonant:
            row: dict[int, int] = {}
            for m1, c1 in big_w.items():
                for m2, c2 in big_g.items():
                    m = m1 + m2
                    c = row.get(m, 0) + c1 * c2
                    if c:
                        row[m] = c
                    else:
                        del row[m]
            known.append(row)
        for (at, flip), ghl, hl in zip(places, gh, hg):
            row = {}
            for m1, c1 in big_w.items():
                e = m1 >> at & mask ^ flip
                if e:
                    c1e = c1 * e
                    for m2, c2 in ghl.items():
                        m = m1 + m2
                        c = row.get(m, 0) + c1e * c2
                        if c:
                            row[m] = c
                        else:
                            del row[m]
                for m2, c2 in hl.items():
                    m = m1 + m2
                    c = row.get(m, 0) + c1 * c2
                    if c:
                        row[m] = c
                    else:
                        del row[m]
            derived.append(row)
    return known, derived


def derivation_step(ideal: Ideal, divisor: QDivisor, k: int) -> Ideal:
    """Apply the order-one operators to (a lower bound for) I_k(B).

    Requires the reduced regime ceil(B) = Z (run periodic_reduce first).
    Returns the Groebner-canonicalized ideal spanned by, for each
    generator w and each variable index l,

        g*w   and   g*d_l(w) - w*h_l,   h_l = sum_i (k + alpha_i)*d_l(f_i)*prod_(j!=i) f_j,

the second being the numerator of d_l(w / prod_i f_i^(k + alpha_i)) over
g * prod_i f_i^(k + alpha_i).
    The result is always contained in I_(k+1)(B) and equals it when the
    filtration is generated at level <= k.

    The generators are built once, as packed integer rows
    (``_step_rows``), from the divisor's ``StepData``, kept from its first
    step, so a step only scales by k + alpha_i.  When g is weighted-homogeneous
    with an isolated singularity (``QDivisor.grading``, decided once per
    support) and the input is weighted-homogeneous and m-primary or (1),
    so is the result, and ``graded_basis`` row-reduces those rows in
    integers to its reduced basis.  There the rows g*w that the Euler
    identity already places in the span of the derivative rows are left
    out, which leaves the spanned ideal as it is.  That basis records its
    weights and keeps its integer rows packed, so the later steps of the
    chain are graded without checking their input again (``_grading``)
    and without packing it again.
    Every other step goes to Buchberger (``groebner_basis``) with g*G as
    its known Groebner basis, on the same rows unpacked into ``Fraction``
    polynomials: positive multiples of g*w and g*d_l(w) - w*h_l, which it
    makes monic.  Both give the same reduced basis.
    """
    if not divisor.step_data.reduced:
        raise ValueError("derivation step wants ceil(D) = Z; apply periodic_reduce first")
    if ideal.vars != divisor.vars:
        raise ValueError(f"ideal over {ideal.vars}, divisor over {divisor.vars}")
    # The spanned ideal does not depend on the generators chosen for I_k
    # (the operator sends a*w to a times its image of w plus (g*w)*d_l(a)),
    # so take the reduced basis G.  g*G is then a Groebner basis as it
    # stands, since LT(g*w) = LT(g)*LT(w), and Buchberger pairs only the
    # derivative generators with it.
    variables = divisor.vars
    grading = _grading(ideal, divisor)
    known, derived = _step_rows(ideal.groebner(), divisor, k, grading)
    if grading is not None:
        known.extend(derived)
        basis = graded_basis(known, variables, grading)
    else:
        decode = known.codec.decode
        known, derived = ([Polynomial._raw(variables, {decode(t): Fraction(a)
                                                       for t, a in row.items()})
                           for row in rows] for rows in (known, derived))
        basis = groebner_basis(derived, known=known)
    return Ideal.from_basis(variables, basis)


def hodge_chain(regime: Regime, k_max: int, seed: Ideal, cert: GenerationCertificate,
                k0: int = 0) -> ChainResult:
    """Iterate the derivation step from I_(k0)(B) = ``seed`` up to k_max.

    The seed is taken as the exact I_(k0) of the reduced divisor B, as
    ``cert`` is taken as given.  Every result records the certificate's
    source, the level the chain uses, min(cert.level, n-1), and k0, from
    which ``HodgeIdealResult.exact`` decides each level.  The results are
    I_k(B); ``compute_chain`` multiplies the twist back in.
    """
    divisor = regime.reduced
    if seed.vars != divisor.vars:
        raise ValueError(f"seed over {seed.vars}, divisor over {divisor.vars}")
    if k0 < 0:
        raise ValueError(f"seed level must be >= 0, got {k0}")
    if k0 > k_max:
        raise ValueError(f"seed level {k0} exceeds k_max = {k_max}")
    provenance = Provenance(source=cert.source, level=min(cert.level, len(divisor.vars) - 1),
                            k0=k0)
    ideal = seed
    results = []
    for k in range(k0, k_max + 1):
        results.append(HodgeIdealResult(k=k, ideal=ideal, method="recursion",
                                        provenance=provenance))
        if k < k_max:
            ideal = derivation_step(ideal, divisor, k)
    return ChainResult(results=tuple(results))


def i0_seed(regime: Regime) -> Ideal:
    """The I_0(B) of the reduced divisor B in the computable regimes.

    Recognized regimes, every closed-form regime among them: a hyperplane
    or squarefree-monomial (SNC) support, where I_0(B) is trivial, and a
    single diagonal component sum c_i x_i^(d_i) through the standard
    multiplier-ideal computation (trivial iff alpha <= sum 1/d_i;
    maximal-ideal power ceil(alpha*m) - n for a cone).  Any other divisor
    raises ``MethodUnavailableError``.
    """
    variables = regime.reduced.vars
    if regime.linear or regime.positions is not None:
        return Ideal.unit(variables)
    if regime.diagonal is not None:
        return diagonal_multiplier_i0(regime.diagonal, regime.alpha, variables)
    raise MethodUnavailableError(
        "no computable I_0 regime recognized (a hyperplane, SNC coordinates or a single "
        "diagonal equation); supply a seed ideal explicitly")


def certificate_for(regime: Regime) -> GenerationCertificate:
    """Best available generation-level certificate for the divisor.

    Tries the quasi-homogeneous formula floor(n - alpha_tilde - alpha)
    on the support equation g, issued only when g has an integer grading
    u (``QDivisor.grading``): its weights are unique, inferred exactly,
    and its singularity is isolated, as its Jacobian ideal is
    zero-dimensional, which for a weighted-homogeneous g is the same
    check globally as at the origin.  Then alpha_tilde = sum u_i / deg_u(g).
    Then, for a plane curve, level 0 (the node example) when every
    singular point of {g = 0} is a node (``QDivisor.nodal``): a node is
    locally a normal crossing and Hodge ideals are local.  Otherwise the
    universal n-1 bound.
    """
    n = len(regime.reduced.vars)
    if regime.alpha is not None:
        g = regime.reduced.support_equation
        grading = regime.reduced.grading
        if grading is not None:
            return GenerationCertificate(
                level=generation_level(n, Fraction(sum(grading), g.weighted_degree(grading)),
                                       regime.alpha),
                source="quasihomogeneous-formula")
        if regime.reduced.nodal:
            return GenerationCertificate(level=0, source="node-example")
    return GenerationCertificate(level=n - 1, source="universal-bound")
