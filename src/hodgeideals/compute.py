"""Method dispatch for Hodge-ideal computation.

``auto`` resolution order: smooth -> snc -> ordinary -> recursion with a
generation-level certificate.  Each divisor is classified once and
every branch reads that record.  Divisors whose equations omit some
ambient variables are computed on the subring they actually use and
extended back (smooth pullback along the projection).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from .closed_forms import classify, ordinary_ideal, smooth_support_ideal, snc_hodge_ideal
from .divisor import HodgeIdealResult, QDivisor
from .ideal import Ideal
from .poly import Polynomial
from .recursion import (
    GenerationCertificate,
    SeedUnavailableError,
    certificate_for,
    hodge_chain,
    i0_seed,
)

METHODS = ("auto", "smooth", "snc", "ordinary", "recursion")


class MethodUnavailableError(ValueError):
    """No computation method applies to the divisor as requested."""


def _used_variable_indices(divisor: QDivisor) -> list[int]:
    return [i for i in range(len(divisor.vars))
            if any(f.uses_variable(i) for f in divisor.factors)]


def _restrict_to_used(divisor: QDivisor) -> Optional[tuple[QDivisor, tuple[str, ...]]]:
    """Divisor rewritten over the variables its equations use, when that
    is a proper subset; None otherwise."""
    used = _used_variable_indices(divisor)
    if len(used) == len(divisor.vars):
        return None
    subvars = tuple(divisor.vars[i] for i in used)
    dropped = [i for i in range(len(divisor.vars)) if i not in used]
    components = []
    for f, alpha in divisor.components:
        g = f
        for i in sorted(dropped, reverse=True):
            live = tuple(v for j, v in enumerate(g.vars) if j != i)
            g = g.substitute(i, Polynomial.zero(live))
        components.append((g, alpha))
    return QDivisor(subvars, tuple(components)), subvars


def compute_chain(divisor: QDivisor, k_max: int, method: str = "auto",
                  seed_ideal: Optional[Ideal] = None,
                  certificate: Optional[GenerationCertificate] = None,
                  ) -> list[HodgeIdealResult]:
    """Hodge ideals I_0(D), ..., I_(k_max)(D) with exactness flags."""
    if method not in METHODS:
        raise MethodUnavailableError(f"unknown method {method!r}; expected one of {METHODS}")
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")

    # A user-supplied seed lives in the full ring; keep the computation there.
    shrunk = _restrict_to_used(divisor) if seed_ideal is None else None
    if shrunk is not None:
        small, _ = shrunk
        inner = compute_chain(small, k_max, method, seed_ideal=None, certificate=certificate)
        note = (f"computed over the variables {', '.join(small.vars)} actually used "
                f"and extended back (smooth pullback)")
        out = []
        for res in inner:
            ideal = res.ideal.extend(divisor.vars) if res.ideal is not None else None
            out.append(replace(res, ideal=ideal).with_note(note))
        return out

    regime = classify(divisor)
    if method in ("auto", "smooth"):
        if regime.linear:
            return [smooth_support_ideal(divisor, k) for k in range(k_max + 1)]
        if method == "smooth":
            raise MethodUnavailableError(
                "smooth closed form wants a single component cut out by a linear form")

    if method in ("auto", "snc"):
        if regime.positions is not None:
            return [snc_hodge_ideal(divisor, k) for k in range(k_max + 1)]
        if method == "snc":
            raise MethodUnavailableError(
                "SNC closed form wants distinct coordinate components")

    if method in ("auto", "ordinary"):
        model, twist = regime.ordinary, regime.twist
        if model is not None:
            results = [ordinary_ideal(model, k, divisor.vars) for k in range(k_max + 1)]
            if all(res.ideal is not None for res in results):
                if not twist.is_constant():
                    results = [replace(res, ideal=(twist * res.ideal).canonical()).with_note(
                        f"integral twist {twist} applied") for res in results]
                return results
            if method == "ordinary":
                raise MethodUnavailableError(
                    "the ordinary closed form does not cover every requested level "
                    "in this parameter region; use recursion or a certificate")
        elif method == "ordinary":
            raise MethodUnavailableError(
                "ordinary closed form wants a single cone component sum c_i x_i^m")

    # Recursion with a generation-level certificate.
    try:
        seed = i0_seed(regime, user_ideal=seed_ideal)
    except SeedUnavailableError as exc:
        raise MethodUnavailableError(str(exc)) from exc
    cert = certificate if certificate is not None else certificate_for(regime)
    results = hodge_chain(regime, k_max, seed, cert).results
    if seed_ideal is not None:
        return [res.with_note(seed.notes) for res in results]
    return list(results)


def compute_ideal(divisor: QDivisor, k: int, method: str = "auto",
                  seed_ideal: Optional[Ideal] = None,
                  certificate: Optional[GenerationCertificate] = None) -> HodgeIdealResult:
    return compute_chain(divisor, k, method, seed_ideal, certificate)[k]
