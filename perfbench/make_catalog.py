"""Write catalog.json, the committed references of two workloads.

    python3 perfbench/make_catalog.py

recursion-chains: every chain in ``workloads.RECURSION_SHAPES`` is
computed independently with sympy: I_0 from the multiplier-ideal formula
of a diagonal equation, then the derivation step

    f*w,   f*d_l(w) - k*w*d_l(f) - alpha*w*d_l(f)

and ``sympy.groebner(..., order='grevlex')`` for each level; exactness
flags come from the generation-level formula.  The package's output for
the same chain must agree term for term before the entry is written.

verify-suites: each suite is run at several seeds; the multiset of
(claim, status, required) must not depend on the seed, and every
required claim must pass.

The benchmark reads the catalog and never writes it; sympy is needed
only here.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import shutil
import sys
import time
from fractions import Fraction
from functools import reduce
from operator import mul

import sympy

import reference as ref
import run
import workloads

VERIFY_SEEDS = (7, 1, 2, 99991)


def sympy_chain(exponents, alpha: Fraction, k_max: int) -> list[list[dict]]:
    n = len(exponents)
    xs = sympy.symbols(f"x0:{n}")
    f = sum(x ** d for x, d in zip(xs, exponents))
    a = sympy.Rational(alpha.numerator, alpha.denominator)
    ideal = [reduce(mul, (x ** e for x, e in zip(xs, w)), sympy.Integer(1))
             for w in ref.diagonal_i0(exponents, alpha)]
    chain = []
    for k in range(k_max + 1):
        basis = sympy.groebner(ideal, *xs, order="grevlex") if k else None
        exprs = list(basis.exprs) if basis is not None else ideal
        polys = []
        for e in exprs:
            terms = sympy.Poly(e, *xs).terms()
            polys.append({tuple(m): Fraction(int(c.p), int(c.q)) for m, c in terms})
        chain.append(ref.sort_basis([ref.monic(p, "grevlex") for p in polys], "grevlex"))
        ideal = []
        for w in exprs:
            ideal.append(sympy.expand(f * w))
            for x in xs:
                df = sympy.diff(f, x)
                ideal.append(sympy.expand(f * sympy.diff(w, x) - k * w * df - a * w * df))
    return chain


def package_chain(cli_main, f: str, n: int, alpha: str, k: int, workdir) -> list:
    names = ("x", "y", "z")[:n]
    path = workdir / "task.json"
    path.write_text(json.dumps({"vars": list(names), "task": "compute", "k": k,
                                "method": "recursion",
                                "divisor": {"components": [{"f": f, "alpha": alpha}]}}))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli_main(["--format", "json", "compute", str(path)])
    if rc != 0:
        raise SystemExit(f"package failed on {f} alpha={alpha} k={k}")
    (_, results), = workloads.compute_blocks(out.getvalue(), "json")
    return [(kk, exact, [dict(ref.parse_printed(g, names)) for g in gens])
            for kk, exact, gens in results]


def main() -> int:
    cli_main = run.import_package()
    run.WORK.mkdir(exist_ok=True)
    workdir = run.WORK / "catalog"
    workdir.mkdir(exist_ok=True)
    try:
        return write_catalog(cli_main, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def write_catalog(cli_main, workdir) -> int:
    recursion = {}
    seen = set()
    for key, f, exponents, alpha, k in workloads.catalog_entries():
        if key in seen:
            continue
        seen.add(key)
        t0 = time.perf_counter()
        bases = sympy_chain(exponents, Fraction(alpha), k)
        flags = ref.chain_exactness(len(exponents), exponents, Fraction(alpha), k)
        expected = [(j, flags[j], bases[j]) for j in range(k + 1)]
        got = package_chain(cli_main, f, len(exponents), alpha, k, workdir)
        if got != expected:
            raise SystemExit(f"package and sympy disagree on {key}")
        recursion[key] = {"f": f, "alpha": alpha, "k": k, "results": [
            {"k": j, "exact": e, "basis": [[[list(m), str(c)] for m, c in
                                            sorted(p.items(), key=lambda t: ref.order_key(
                                                "grevlex")(t[0]), reverse=True)]
                                           for p in basis]}
            for j, e, basis in expected]}
        print(f"{key}: {sum(len(b) for b in bases)} generators, sympy agrees "
              f"({time.perf_counter() - t0:.1f} s)", flush=True)

    verify = {}
    for suite in workloads.SUITE_NAMES:
        found = set()
        for seed in VERIFY_SEEDS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli_main(["--format", "json", "verify", suite, "--seed", str(seed)])
            ok, verdicts = workloads.verdicts_of(out.getvalue(), "json")
            if rc != 0 or not ok or any(s == "FAIL" for _, s, req in verdicts if req):
                raise SystemExit(f"suite {suite} fails at seed {seed}")
            found.add(json.dumps(verdicts))
        if len(found) != 1:
            raise SystemExit(f"suite {suite} verdicts depend on the seed")
        verify[suite] = {"verdicts": json.loads(found.pop())}
        print(f"verify {suite}: {len(verify[suite]['verdicts'])} verdicts, seed-invariant")

    catalog = {"written_with": {"python": platform.python_version(), "sympy": sympy.__version__,
                                "verify_seeds": list(VERIFY_SEEDS)},
               "recursion": recursion, "verify": verify}
    workloads.CATALOG.write_text(json.dumps(catalog, indent=1, sort_keys=True) + "\n",
                                 encoding="utf-8")
    print(f"wrote {workloads.CATALOG.name}: {len(recursion)} chains, {len(verify)} suites")
    return 0


if __name__ == "__main__":
    sys.exit(main())
