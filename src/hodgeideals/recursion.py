"""The derivation-closure step and its iteration into Hodge-ideal chains.

One step applies the order-one differential operators to a known
filtration level: from (a lower bound for) I_k it produces the ideal
spanned by g*w and g*dw - k*w*dg - w*dlog terms, which is always
contained in I_(k+1) and equals it once the filtration is generated at
level <= k.  Exactness accounting is explicit and never promotes a
lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .closed_forms import Regime, diagonal_multiplier_i0, generation_level, infer_weights
from .divisor import HodgeIdealResult, QDivisor, support
from .ideal import Ideal
from .poly import Polynomial

CERTIFICATE_SOURCES = ("node-example", "quasihomogeneous-formula", "universal-bound",
                       "user-asserted")


class SeedUnavailableError(ValueError):
    """No computable I_0 regime was recognized and none was supplied."""


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


def universal_certificate(n: int) -> GenerationCertificate:
    return GenerationCertificate(level=n - 1, source="universal-bound")


@dataclass(frozen=True)
class ChainResult:
    """Per-k Hodge ideal results from iterating the derivation step.

    ``exact_boundary`` is the first index whose result is only a lower
    bound (None when every step is exact).
    """

    divisor: QDivisor
    results: tuple[HodgeIdealResult, ...]
    certificate: GenerationCertificate
    exact_boundary: Optional[int]

    def result(self, k: int) -> HodgeIdealResult:
        for res in self.results:
            if res.k == k:
                return res
        raise KeyError(f"chain holds k = {self.results[0].k}..{self.results[-1].k}, asked {k}")

    def ideal(self, k: int) -> Ideal:
        return self.result(k).ideal


def _dlog_numerators(divisor: QDivisor) -> list[Polynomial]:
    """For each variable, sum_i alpha_i * d(f_i) * prod_(j != i) f_j,
    i.e. g times the logarithmic derivative of the divisor."""
    n = len(divisor.vars)
    components = divisor.components
    out = []
    for ell in range(n):
        total = Polynomial.zero(divisor.vars)
        for i, (f, alpha) in enumerate(components):
            df = f.diff(ell)
            if not df:
                continue
            cofactor = Polynomial.one(divisor.vars)
            for j, (fj, _) in enumerate(components):
                if j != i:
                    cofactor = cofactor * fj
            total = total + alpha * df * cofactor
        out.append(total)
    return out


def derivation_step(ideal: Ideal, divisor: QDivisor, k: int) -> Ideal:
    """Apply the order-one operators to (a lower bound for) I_k(B).

    Requires the reduced regime ceil(B) = Z (run periodic_reduce first).
    Returns the Groebner-canonicalized ideal spanned by, for each
    generator w and each variable index l,

        g*w   and   g*d_l(w) - k*w*d_l(g) - w*sum_i alpha_i*d_l(f_i)*prod_(j!=i) f_j.

    The result is always contained in I_(k+1)(B) and equals it when the
    filtration is generated at level <= k.
    """
    if not divisor.is_reduced_regime():
        raise ValueError("derivation step wants ceil(D) = Z; apply periodic_reduce first")
    if ideal.vars != divisor.vars:
        raise ValueError(f"ideal over {ideal.vars}, divisor over {divisor.vars}")
    g = support(divisor)
    dlog = _dlog_numerators(divisor)
    kk = Fraction(k)
    gens: list[Polynomial] = []
    for w in ideal.generators:
        gens.append(g * w)
        for ell in range(len(divisor.vars)):
            gens.append(g * w.diff(ell) - kk * (w * g.diff(ell)) - w * dlog[ell])
    return Ideal(divisor.vars, gens).canonical()


def hodge_chain(regime: Regime, k_max: int, seed: HodgeIdealResult,
                cert: GenerationCertificate) -> ChainResult:
    """Iterate the derivation step from an exact seed I_(k0)(B) up to k_max.

    Steps are exact while the running index stays at or above
    min(cert.level, n-1) and the input is itself exact; a lower-bound
    result is never promoted back to exact.  The integral twist from
    periodic reduction is multiplied back in at the end, so the returned
    ideals are I_k(D).
    """
    if not seed.exact:
        raise ValueError("chain seed must be an exact Hodge ideal")
    if seed.ideal is None:
        raise ValueError("chain seed carries no ideal")
    divisor, reduced, twist = regime.divisor, regime.reduced, regime.twist
    n = len(divisor.vars)
    if seed.ideal.vars != divisor.vars:
        raise ValueError(f"seed over {seed.ideal.vars}, divisor over {divisor.vars}")
    effective_level = min(cert.level, n - 1)
    k0 = seed.k
    if k0 > k_max:
        raise ValueError(f"seed level {k0} exceeds k_max = {k_max}")

    ideals: dict[int, Ideal] = {k0: seed.ideal.canonical()}
    exact: dict[int, bool] = {k0: True}
    for k in range(k0, k_max):
        ideals[k + 1] = derivation_step(ideals[k], reduced, k)
        exact[k + 1] = exact[k] and k >= effective_level

    trivial_twist = twist.is_constant()
    results = []
    boundary: Optional[int] = None
    for k in range(k0, k_max + 1):
        ideal_b = ideals[k]
        ideal_d = ideal_b if trivial_twist else (twist * ideal_b).canonical()
        if exact[k]:
            note = f"derivation-closure chain from k0={k0}; certificate {cert.source} " \
                   f"level {cert.level}"
        else:
            note = (f"lower bound only: step index below certificate level {cert.level} "
                    f"({cert.source}); the true ideal contains this one")
            if boundary is None:
                boundary = k
        if not trivial_twist:
            note += f"; integral twist {twist} applied"
        results.append(HodgeIdealResult(k=k, ideal=ideal_d, method="recursion",
                                        exact=exact[k], notes=note))
    return ChainResult(divisor=divisor, results=tuple(results), certificate=cert,
                       exact_boundary=boundary)


def i0_seed(regime: Regime, user_ideal: Optional[Ideal] = None) -> HodgeIdealResult:
    """An exact I_0(B) of the reduced divisor B in the computable regimes,
    with provenance notes.

    Recognized regimes: squarefree-monomial (SNC) support, where I_0(B)
    is trivial, and a single diagonal component sum c_i x_i^(d_i) through
    the standard multiplier-ideal computation (trivial iff alpha <= sum
    1/d_i; maximal-ideal power ceil(alpha*m) - n for a cone).  A
    user-supplied ideal is trusted and recorded as such.
    """
    variables = regime.divisor.vars
    if user_ideal is not None:
        if user_ideal.vars != variables:
            raise ValueError("user-supplied I_0 lives in the wrong ring")
        return HodgeIdealResult(k=0, ideal=user_ideal, method="recursion", exact=True,
                                notes="I_0 supplied by caller (trusted)")
    if regime.monomial:
        return HodgeIdealResult(
            k=0, ideal=Ideal.unit(variables), method="snc", exact=True,
            notes="I_0 from the SNC closed form (multiplier ideal of an SNC divisor)")
    d = regime.diagonal
    if d is not None:
        tilde = sum((Fraction(1, e) for e in d), Fraction(0))
        kind = f"cone of multiplicity {d[0]}" if len(set(d)) == 1 else "diagonal equation"
        return HodgeIdealResult(
            k=0, ideal=diagonal_multiplier_i0(d, regime.alpha, variables), method="recursion",
            exact=True, notes=f"I_0 as the multiplier ideal of a {kind} "
                              f"(minimal exponent {tilde}; trivial iff alpha <= {tilde})")
    raise SeedUnavailableError(
        "no computable I_0 regime recognized (SNC coordinates or a single diagonal "
        "equation); supply a seed ideal explicitly")


def certificate_for(regime: Regime) -> GenerationCertificate:
    """Best available generation-level certificate for the divisor.

    Tries the quasi-homogeneous formula floor(n - alpha_tilde - alpha)
    on the support equation (weights inferred exactly; the isolated
    singularity hypothesis is the caller's), then the surface-node
    example, then the universal n-1 bound.
    """
    n = len(regime.divisor.vars)
    g = regime.g
    if regime.alpha is not None:
        weights = infer_weights(g)
        if weights is not None:
            tilde = sum(weights.weights, Fraction(0))
            return GenerationCertificate(
                level=generation_level(n, tilde, regime.alpha),
                source="quasihomogeneous-formula")
        # A node: nondegenerate quadratic part.
        if n == 2 and g.order_at_origin() == 2 and \
                g.coeff((1, 1)) ** 2 != 4 * g.coeff((2, 0)) * g.coeff((0, 2)):
            return GenerationCertificate(level=0, source="node-example")
    return universal_certificate(n)
