"""Method dispatch for Hodge-ideal computation.

``auto`` tries the closed forms of ``CLOSED_FORMS`` in order (smooth ->
snc -> ordinary), then the recursion with a generation-level
certificate.  Each divisor is classified once and every entry reads that
record.  Divisors whose equations omit some ambient variables are
computed on the subring they actually use, a caller's seed included,
and their results pulled back along the projection (a smooth pullback).
"""

from __future__ import annotations

from typing import Optional

from .closed_forms import classify, ordinary_ideal, smooth_support_ideal, snc_hodge_ideal
from .divisor import HodgeIdealResult, QDivisor, apply_twist
from .ideal import Ideal
from .poly import InputError
from .recursion import (
    GenerationCertificate,
    MethodUnavailableError,
    certificate_for,
    hodge_chain,
    i0_seed,
)


# (method, I_k(D) or None outside the regime, why a forced method is refused)
CLOSED_FORMS = (
    ("smooth", smooth_support_ideal,
     "smooth closed form wants a single component cut out by a linear form"),
    ("snc", snc_hodge_ideal, "SNC closed form wants a squarefree monomial support"),
    ("ordinary", ordinary_ideal,
     "ordinary closed form wants a single cone component sum c_i x_i^m and every "
     "requested level in its parameter region; use recursion or a certificate"),
)
METHODS = ("auto",) + tuple(name for name, _, _ in CLOSED_FORMS) + ("recursion",)


class SeedContradictionError(InputError):
    """A caller's I_0 that is zero, that differs from the I_0 ``i0_seed``
    computes, or whose reduced basis uses a variable the divisor does not."""


def compute_chain(divisor: QDivisor, k_max: int, method: str = "auto",
                  seed_ideal: Optional[Ideal] = None,
                  certificate: Optional[GenerationCertificate] = None,
                  ) -> list[HodgeIdealResult]:
    """Hodge ideals I_0(D), ..., I_(k_max)(D) with exactness flags, in
    one pass.

    A cylinder, whose equations omit some ambient variables, is computed
    on the variables it uses and its results are pulled back at the end.
    ``seed_ideal`` is a caller's I_0 of the reduced divisor B, checked in
    one block before any method is tried or refused: on a cylinder it
    moves to the used variables through its reduced basis, which must not
    use another; it must not be zero; and it must span the I_0 of
    ``i0_seed`` wherever there is one (in every closed-form regime).
    Otherwise ``SeedContradictionError`` is raised.  A closed form
    covering the chain does not use it; the recursion starts from it.
    The closed forms return I_k(D); the recursion returns I_k(B), which
    is twisted here.  Each result's provenance records the caller's inputs
    and the variables a pullback used.
    """
    if method not in METHODS:
        raise InputError(f"unknown method {method!r}; expected one of {METHODS}")
    if k_max < 0:
        raise InputError(f"k_max must be >= 0, got {k_max}")
    if seed_ideal is not None and seed_ideal.vars != divisor.vars:
        raise ValueError(f"seed over {seed_ideal.vars}, divisor over {divisor.vars}")

    ambient = divisor.vars
    used = divisor.used_variables()
    if len(used) < len(ambient):
        small = tuple(ambient[i] for i in used)
        if seed_ideal is not None:
            # I_0 of a pullback is extended from the used variables, and so
            # is its reduced basis; a basis that uses another variable is not.
            seed_ideal.groebner()
            try:
                seed_ideal = seed_ideal.extend(small)
            except ValueError:
                raise SeedContradictionError(
                    f"'options.i0' contradicts the cylinder: the divisor uses only "
                    f"{', '.join(small)}, but the reduced basis of the given I_0 is "
                    f"{seed_ideal}") from None
        divisor = divisor._over(small)

    regime = classify(divisor)
    if seed_ideal is not None:
        # I_0(B) = J((1-eps)B) contains J(Z) = (g), so it is never zero, and
        # it must span the computed I_0 wherever there is one.
        if seed_ideal.is_zero():
            raise SeedContradictionError("'options.i0' spans the zero ideal; I_0 always "
                                         "contains the support equation")
        try:
            computed = i0_seed(regime)
        except MethodUnavailableError:
            computed = None
        if computed is not None and not seed_ideal.equals(computed):
            raise SeedContradictionError(
                f"'options.i0' contradicts the computed I_0 of the reduced divisor: I_0 = "
                f"{computed}, but the given I_0 is {seed_ideal}")
    given = {"I_0": seed_ideal, "certificate": certificate}
    for name, form, reason in CLOSED_FORMS:
        if method in ("auto", name):
            results = [form(regime, k) for k in range(k_max + 1)]
            if None not in results:
                break
            if method == name:
                raise MethodUnavailableError(reason)
    else:
        # Recursion on B with a certificate, from the caller's I_0 or the computed one.
        seed = i0_seed(regime) if seed_ideal is None else seed_ideal
        cert = certificate if certificate is not None else certificate_for(regime)
        results = [apply_twist(regime.twist, res)
                   for res in hodge_chain(regime, k_max, seed, cert).results]
        del given["certificate"]  # the chain records it as its certificate's source

    caller = tuple(what for what, value in given.items() if value is not None)
    used_vars = divisor.vars if divisor.vars != ambient else ()
    if caller or used_vars:
        results = [HodgeIdealResult(res.k, res.ideal.extend(ambient) if used_vars else res.ideal,
                                    res.method, res.provenance._replace(caller=caller,
                                                                        used_vars=used_vars))
                   for res in results]
    return results
