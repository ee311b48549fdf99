"""Independent reference algebra for the benchmark's output checks.

Nothing here imports the package under test.  Polynomials are plain
dicts ``{exponent tuple: Fraction}``; monomial orders, the closed forms
and the certificate inequalities are written out from their definitions
so that a wrong answer from the package cannot also be the expected one.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Sequence

ORDERS = ("grevlex", "lex", "grlex")


def order_key(name: str):
    """Sort key for monomials: a larger key is a larger monomial."""
    if name == "grevlex":
        # Total degree first; ties go to the smaller exponent of the last variable.
        return lambda m: (sum(m), tuple(-e for e in reversed(m)))
    if name == "grlex":
        return lambda m: (sum(m), tuple(m))
    if name == "lex":
        return lambda m: tuple(m)
    raise ValueError(f"unknown order {name!r}")


# ---------------------------------------------------------------------------
# Polynomials as dicts


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (ma, ca), (mb, cb) in itertools.product(a.items(), b.items()):
        m = tuple(x + y for x, y in zip(ma, mb))
        v = out.get(m, Fraction(0)) + ca * cb
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def poly_pow(a: dict, e: int, n: int) -> dict:
    out = {(0,) * n: Fraction(1)}
    for _ in range(e):
        out = poly_mul(out, a)
    return out


def monic(p: dict, order: str) -> dict:
    lead = max(p, key=order_key(order))
    inv = 1 / p[lead]
    return {m: c * inv for m, c in p.items()}


def sort_basis(basis: Iterable[dict], order: str) -> list[dict]:
    """Reduced-basis elements listed by leading monomial, descending."""
    key = order_key(order)
    return sorted(basis, key=lambda p: key(max(p, key=key)), reverse=True)


def monomial(e: Sequence[int]) -> dict:
    return {tuple(e): Fraction(1)}


def all_monomials(n: int, degree: int) -> list[tuple[int, ...]]:
    return [m for m in itertools.product(range(degree + 1), repeat=n) if sum(m) == degree]


def minimal_monomials(monos: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Minimal generators of a monomial ideal (the reduced basis in any order)."""
    monos = sorted(set(monos), key=sum)
    kept: list[tuple[int, ...]] = []
    for m in monos:
        if not any(all(a <= b for a, b in zip(k, m)) for k in kept):
            kept.append(m)
    return kept


# ---------------------------------------------------------------------------
# Text form of polynomials, as the package prints them and as tasks send them


def format_poly(p: dict, names: Sequence[str], order: str) -> str:
    if not p:
        return "0"
    key = order_key(order)
    pieces = []
    for m in sorted(p, key=key, reverse=True):
        c = p[m]
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, m) if e]
        mag = abs(c)
        if not factors or mag != 1:
            factors.insert(0, str(mag))
        text = "*".join(factors)
        if not pieces:
            pieces.append(text if c > 0 else f"-{text}")
        else:
            pieces.append(f" + {text}" if c > 0 else f" - {text}")
    return "".join(pieces)


def parse_printed(text: str, names: Sequence[str]) -> list[tuple[tuple[int, ...], Fraction]]:
    """Terms of a printed polynomial, in the order printed.

    Accepts the canonical output grammar: terms joined by `` + `` or
    `` - ``, each an optional ``p/q`` coefficient and ``name^e`` factors
    joined by ``*``.  Raises ValueError on anything else.
    """
    index = {n: i for i, n in enumerate(names)}
    text = text.strip()
    if text == "0":
        return []
    terms = []
    for raw in text.replace(" - ", " + -").split(" + "):
        sign = Fraction(1)
        if raw.startswith("-"):
            sign, raw = Fraction(-1), raw[1:]
        coeff = Fraction(1)
        mono = [0] * len(names)
        for pos, factor in enumerate(raw.split("*")):
            if factor[:1].isdigit():
                if pos != 0:
                    raise ValueError(f"coefficient not in front in {text!r}")
                coeff = Fraction(factor)
                continue
            name, _, exp = factor.partition("^")
            if name not in index or mono[index[name]]:
                raise ValueError(f"bad factor {factor!r} in {text!r}")
            mono[index[name]] = int(exp) if exp else 1
        terms.append((tuple(mono), sign * coeff))
    return terms


def printed_matches(text: str, expected: dict, names: Sequence[str], order: str) -> bool:
    """The printed polynomial has exactly the expected terms, descending in ``order``."""
    try:
        terms = parse_printed(text, names)
    except ValueError:
        return False
    key = order_key(order)
    monos = [m for m, _ in terms]
    return (dict(terms) == expected and len(monos) == len(expected)
            and monos == sorted(monos, key=key, reverse=True))


def basis_matches(lines: Sequence[str], expected: Sequence[dict], names: Sequence[str],
                  order: str) -> bool:
    return len(lines) == len(expected) and all(
        printed_matches(line, p, names, order) for line, p in zip(lines, expected))


# ---------------------------------------------------------------------------
# Closed forms (the paper's formulas)


def ceil_frac(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def snc_basis(n: int, positions: Sequence[int], alphas: Sequence[Fraction], k: int,
              order: str) -> list[dict]:
    """I_k(D) for D = sum alpha_i * div(x_(p_i)): the monomials
    prod x^(c_i), 0 <= c_i <= k, sum c_i = (r-1)k, times the round-up
    twist prod x^(ceil(alpha_i) - 1).  All have one degree, so all are
    minimal."""
    r = len(positions)
    twist = [0] * n
    for p, a in zip(positions, alphas):
        twist[p] += ceil_frac(a) - 1
    gens = []
    for c in itertools.product(range(k + 1), repeat=r):
        if sum(c) != (r - 1) * k:
            continue
        m = list(twist)
        for p, e in zip(positions, c):
            m[p] += e
        gens.append(monomial(m))
    return sort_basis(gens, order)


def maximal_power_basis(n: int, e: int, order: str) -> list[dict]:
    if e <= 0:
        return [monomial((0,) * n)]
    return sort_basis([monomial(m) for m in all_monomials(n, e)], order)


def ordinary_basis(n: int, m: int, alpha: Fraction, k: int, order: str) -> list[dict]:
    """Ordinary singularity of multiplicity m in dimension n, 0 < alpha <= 1,
    inside the closed-form region: trivial iff m(k + alpha) <= n; a plane
    node gives m_0^k; otherwise m_0^(km + ceil(alpha m) - n)."""
    if m * (k + alpha) <= n:
        return maximal_power_basis(n, 0, order)
    if n == 2 and m == 2:
        return maximal_power_basis(n, k, order)
    return maximal_power_basis(n, k * m + ceil_frac(alpha * m) - n, order)


def ordinary_region(n: int, m: int, alpha: Fraction, k: int) -> bool:
    """Levels where the ordinary closed form applies (plane nodes: all k)."""
    if m * (k + alpha) <= n or (n == 2 and m == 2):
        return True
    return (k - 1) * m + ceil_frac(alpha * m) < n and k <= n - 2


def smooth_basis(f: dict, alpha: Fraction, n: int, order: str) -> list[dict]:
    """Smooth support: I_k(D) = (f^(ceil(alpha) - 1)) for every k."""
    return [monic(poly_pow(f, ceil_frac(alpha) - 1, n), order)]


def diagonal_i0(exponents: Sequence[int], alpha: Fraction) -> list[tuple[int, ...]]:
    """Minimal monomials of I_0(alpha * div(sum x_i^(d_i))), 0 < alpha <= 1:
    the multiplier ideal of a non-degenerate diagonal equation, spanned by
    x^w with sum (w_i + 1)/d_i >= alpha."""
    cands = [w for w in itertools.product(*(range(d + 1) for d in exponents))
             if sum(Fraction(e + 1, d) for e, d in zip(w, exponents)) >= alpha]
    return minimal_monomials(cands)


def generation_level(n: int, alpha_tilde: Fraction, alpha: Fraction) -> int:
    """floor(n - alpha_tilde - alpha), clamped to [0, n - 1]."""
    return max(0, min(n - 1, math.floor(n - alpha_tilde - alpha)))


def chain_exactness(n: int, exponents: Sequence[int], alpha: Fraction, k_max: int) -> list[bool]:
    """Exactness flags of the chain seeded at an exact I_0: step k -> k+1 is
    exact while the input is exact and k >= the generation level."""
    level = generation_level(n, sum(Fraction(1, d) for d in exponents), alpha)
    flags = [True]
    for k in range(k_max):
        flags.append(flags[-1] and k >= level)
    return flags


# ---------------------------------------------------------------------------
# Certificates (the inequalities, from their statements)


def reduce_alpha(a: Fraction) -> Fraction:
    return a - (ceil_frac(a) - 1)


def triviality_decision(exceptional: Sequence[tuple[Sequence[int], int]],
                        alphas: Sequence[Fraction], k: int) -> str:
    """TRIVIAL when b + 1 >= k*sum(a) + sum_j alpha_j a_j for every exceptional
    divisor, else INCONCLUSIVE."""
    ok = all(b + 1 >= k * sum(a) + sum(al * aj for al, aj in zip(alphas, a))
             for a, b in exceptional)
    return "TRIVIAL" if ok else "INCONCLUSIVE"


def symbolic_power(r: int, a: int, b: Fraction, k: int, q=None):
    """(decision, q): the largest q with b + k a > q + r + 2k - 1 or
    (k + 1) b > q + r + 2k - 1, at least 0."""
    best = 0
    for t in (b + k * a, (k + 1) * b):
        bound = t - (r + 2 * k - 1)  # q < bound
        best = max(best, math.ceil(bound) - 1)
    if q is not None:
        return ("CERTIFIED", q) if q <= best else ("INCONCLUSIVE", None)
    return ("CERTIFIED" if best > 0 else "INCONCLUSIVE"), best


def membership_decision(n: int, m: int, alpha: Fraction, k: int, proportional: bool) -> str:
    """k*m + alpha*m > n puts I_k in the maximal ideal (conjecturally when
    the divisor is not a multiple of its support)."""
    if k * m + alpha * m <= n:
        return "INCONCLUSIVE"
    return ("CONTAINED-IN-MAXIMAL-IDEAL" if proportional
            else "CONTAINED-IN-MAXIMAL-IDEAL-CONJECTURAL")
