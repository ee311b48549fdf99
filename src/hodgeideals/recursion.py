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
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Optional, Sequence

from .closed_forms import Regime, diagonal_multiplier_i0, generation_level
from .divisor import HodgeIdealResult, QDivisor, StepData, apply_twist
from .ideal import GroebnerBasis, Ideal, graded_basis
from .poly import GREVLEX, Monomial, Polynomial, integer_terms

CERTIFICATE_SOURCES = ("node-example", "quasihomogeneous-formula", "universal-bound",
                       "user-asserted")


class MethodUnavailableError(ValueError):
    """No computation method applies to the divisor as requested."""


@dataclass(frozen=True)
class GenerationCertificate:
    """A certified generation level for the Hodge filtration of a divisor.

    The filtration is always generated at level n-1, so levels are
    clamped there by construction sites; ``source`` records where the
    certificate came from.
    """

    level: int
    source: str

    def __post_init__(self):
        if self.level < 0:
            raise ValueError(f"generation level must be >= 0, got {self.level}")
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
    at p.  Off Z, g*w does not vanish at p.

    So the output of a graded step qualifies again, and a chain decides
    its grading once: a basis that ``graded_basis`` returned records the
    weights it was reduced for, and a basis recording these weights is
    taken as it stands, with no degree or dimension check.
    """
    weights = divisor.isolated_weights
    if weights is None:
        return None
    scale = math.lcm(*(w.denominator for w in weights))
    integral = [w.numerator * (scale // w.denominator) for w in weights]
    common = math.gcd(*integral)
    grading = tuple(w // common for w in integral)
    basis = ideal.groebner().basis
    if getattr(basis, "weights", None) == grading:
        return grading
    if all(w.weighted_degree(grading) is not None for w in basis) \
            and ideal.is_zero_dimensional():
        return grading
    return None


def _mul_into(out: dict[Monomial, int], a: dict[Monomial, int],
              b: dict[Monomial, int]) -> None:
    """out += a*b, on integer term dicts."""
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(map(add, m1, m2))
            c = out.get(m, 0) + c1 * c2
            if c:
                out[m] = c
            else:
                del out[m]


def _step_rows(basis: Sequence[Polynomial], data: StepData, k: int):
    """The generators of step k as integer rows, each with the positive
    integer it is scaled by.

    The divisor's ``StepData`` holds g = G/c_g and the rows that give
    h_l = H_l(k)/c_h (one c_h for all l), where G and H_l(k) have integer
    coefficients; only H_l(k) is formed here, as integer combinations of
    the kept rows.  With each w = W/c_w, W integral, the rows are
    G*W = c_g*c_w * g*w, then c_h*G*d_l(W) - c_g*W*H_l(k) =
    c_g*c_h*c_w * (g*d_l(w) - w*h_l) for each w and l.  Every product is
    of ``int``s; a nonzero multiple spans the same ideal.
    """
    c_g, big_g, c_h = data.g_scale, data.g_terms, data.h_scale
    # c_h*G and -c_g*H_l(k), so that each row is two products added up.
    gh = {m: c_h * c for m, c in big_g.items()}
    hg = [{m: -c_g * c for m, c in hl.items()} for hl in data.log_rows(k)]
    known, derived = [], []
    for w in basis:
        c_w, (big_w,) = integer_terms((w,))
        row: dict[Monomial, int] = {}
        _mul_into(row, big_g, big_w)
        known.append((c_g * c_w, row))
        for ell, hl in enumerate(hg):
            dw = {m[:ell] + (m[ell] - 1,) + m[ell + 1:]: c * m[ell]
                  for m, c in big_w.items() if m[ell]}
            row = {}
            _mul_into(row, gh, dw)
            _mul_into(row, big_w, hl)
            derived.append((c_g * c_h * c_w, row))
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

    The generators are built once, as integer rows (``_step_rows``), from
    the divisor's ``StepData``: G and the rows of every h_l are built on
    the divisor's first step and kept, so a step only scales them by
    k + alpha_i.  When g is weighted-homogeneous with an isolated
    singularity (``QDivisor.isolated_weights``, decided once per divisor)
    and the input is weighted-homogeneous and m-primary or (1), so is the
    result, and ``graded_basis`` row-reduces those rows in integers to its
    reduced basis.  That basis records its weights, so the later steps of
    the chain are graded without checking their input again (``_grading``).
    Every other step goes to Buchberger (``groebner_basis``) with g*G as
    its known Groebner basis, on the same rows divided by their scales:
    ``Fraction`` polynomials equal to g*w and g*d_l(w) - w*h_l.  Both give
    the same reduced basis.
    """
    if not divisor.is_reduced_regime():
        raise ValueError("derivation step wants ceil(D) = Z; apply periodic_reduce first")
    if ideal.vars != divisor.vars:
        raise ValueError(f"ideal over {ideal.vars}, divisor over {divisor.vars}")
    # The spanned ideal does not depend on the generators chosen for I_k
    # (the operator sends a*w to a times its image of w plus (g*w)*d_l(a)),
    # so take the reduced basis G.  g*G is then a Groebner basis as it
    # stands, since LT(g*w) = LT(g)*LT(w), and Buchberger pairs only the
    # derivative generators with it.
    basis = ideal.groebner().basis
    known, derived = _step_rows(basis, divisor.step_data, k)
    variables = divisor.vars
    grading = _grading(ideal, divisor)
    if grading is not None:
        gb = GroebnerBasis(graded_basis([row for _, row in known + derived], variables,
                                        grading), GREVLEX, variables)
    else:
        def unscaled(rows):
            return [Polynomial._raw(variables, {m: Fraction(a, c) for m, a in row.items()})
                    for c, row in rows]
        gb = GroebnerBasis.compute(unscaled(derived), variables, known=unscaled(known))
    return Ideal.from_groebner(gb)


def hodge_chain(regime: Regime, k_max: int, seed: HodgeIdealResult,
                cert: GenerationCertificate) -> ChainResult:
    """Iterate the derivation step from an exact seed I_(k0)(B) up to k_max.

    Steps are exact while the running index stays at or above
    min(cert.level, n-1) and the input is itself exact; a lower-bound
    result is never promoted back to exact.  The integral twist from
    periodic reduction is multiplied back in at the end (``apply_twist``),
    so the returned ideals are I_k(D).
    """
    if not seed.exact:
        raise ValueError("chain seed must be an exact Hodge ideal")
    divisor = regime.divisor
    if seed.ideal.vars != divisor.vars:
        raise ValueError(f"seed over {seed.ideal.vars}, divisor over {divisor.vars}")
    effective_level = min(cert.level, len(divisor.vars) - 1)
    k0 = seed.k
    if k0 > k_max:
        raise ValueError(f"seed level {k0} exceeds k_max = {k_max}")

    exact_note = f"derivation-closure chain from k0={k0}; certificate {cert.source} " \
                 f"level {cert.level}"
    bound_note = (f"lower bound only: step index below certificate level {cert.level} "
                  f"({cert.source}); the true ideal contains this one")
    ideal, exact = seed.ideal.canonical(), True
    results = []
    for k in range(k0, k_max + 1):
        results.append(apply_twist(regime.twist, HodgeIdealResult(
            k=k, ideal=ideal, method="recursion", exact=exact,
            notes=exact_note if exact else bound_note)))
        if k < k_max:
            ideal = derivation_step(ideal, regime.reduced, k)
            exact = exact and k >= effective_level
    return ChainResult(results=tuple(results))


def i0_seed(regime: Regime, user_ideal: Optional[Ideal] = None) -> HodgeIdealResult:
    """An exact I_0(B) of the reduced divisor B in the computable regimes.

    Recognized regimes: squarefree-monomial (SNC) support, where I_0(B)
    is trivial, and a single diagonal component sum c_i x_i^(d_i) through
    the standard multiplier-ideal computation (trivial iff alpha <= sum
    1/d_i; maximal-ideal power ceil(alpha*m) - n for a cone).  A
    user-supplied ideal is trusted, and its note says so; ``hodge_chain``
    writes the notes of every level it returns.  Any other divisor raises
    ``MethodUnavailableError``.
    """
    variables = regime.divisor.vars
    if user_ideal is not None:
        if user_ideal.vars != variables:
            raise ValueError("user-supplied I_0 lives in the wrong ring")
        return HodgeIdealResult(k=0, ideal=user_ideal, method="recursion", exact=True,
                                notes="I_0 supplied by caller (trusted)")
    if regime.monomial:
        ideal = Ideal.unit(variables)
    elif regime.diagonal is not None:
        ideal = diagonal_multiplier_i0(regime.diagonal, regime.alpha, variables)
    else:
        raise MethodUnavailableError(
            "no computable I_0 regime recognized (SNC coordinates or a single diagonal "
            "equation); supply a seed ideal explicitly")
    return HodgeIdealResult(k=0, ideal=ideal, method="recursion", exact=True)


def certificate_for(regime: Regime) -> GenerationCertificate:
    """Best available generation-level certificate for the divisor.

    Tries the quasi-homogeneous formula floor(n - alpha_tilde - alpha)
    on the support equation g (weights inferred exactly), issued only
    when the singularity is isolated: the Jacobian ideal of g must be
    zero-dimensional, which for a weighted-homogeneous g is the same
    check globally as at the origin.  Then the surface-node example,
    then the universal n-1 bound.
    """
    n = len(regime.divisor.vars)
    g = regime.divisor.support_equation
    if regime.alpha is not None:
        # B has the support of D; the chain's derivation steps read B's answer.
        weights = regime.reduced.isolated_weights
        if weights is not None:
            tilde = sum(weights, Fraction(0))
            return GenerationCertificate(
                level=generation_level(n, tilde, regime.alpha),
                source="quasihomogeneous-formula")
        # A node: nondegenerate quadratic part.
        if n == 2 and g.order_at_origin() == 2 and \
                g.coeff((1, 1)) ** 2 != 4 * g.coeff((2, 0)) * g.coeff((0, 2)):
            return GenerationCertificate(level=0, source="node-example")
    return GenerationCertificate(level=n - 1, source="universal-bound")
