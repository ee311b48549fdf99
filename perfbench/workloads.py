"""Task generation and output checks for the four benchmark workloads.

A workload is a list of rounds.  Every round holds the same multiset of
task shapes, shuffled; only the random parameters inside a shape change
from round to round.  A run executes whole rounds, so its mix of cheap
and expensive tasks does not depend on where the clock stops.

Each task is a CLI argument list (``TASK_FILE`` marks the path of the
task document written for it) plus a check of the exit code and of the
mathematical content of the output against ``reference``.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import reference as ref

TASK_FILE = "{task}"
CATALOG = Path(__file__).with_name("catalog.json")

# Variable names rotate per round, so that a recursion instance is not
# sent twice with identical text until the rotation wraps around.
NAME_SETS = (("x", "y", "z", "w"), ("u", "v", "s", "t"), ("a", "b", "c", "d"),
             ("p", "q", "r", "o"), ("f", "g", "h", "j"), ("l", "m", "n", "k"))


@dataclass
class Task:
    kind: str
    argv: list
    doc: Optional[dict]
    check: Callable[[int, str, str], bool]

    def key(self) -> str:
        """Content sent to the program, for counting repeated tasks."""
        return json.dumps([self.argv, self.doc], sort_keys=True)


# ---------------------------------------------------------------------------
# Output parsing


_K_LINE = re.compile(r"k = (\d+) \[(exact|lower-bound)\] method=\S+")


def compute_blocks(out: str, fmt: str):
    """[(alpha text or None, [(k, exact, generator lines)])] from compute output."""
    if fmt == "json":
        doc = json.loads(out)
        samples = doc.get("samples") or [{"alpha": None, "results": doc["results"]}]
        return [(s["alpha"], [(r["k"], r["exact"], r["ideal"]) for r in s["results"]])
                for s in samples]
    blocks: list = []
    current = None
    for line in out.splitlines():
        s = line.strip()
        if s.startswith("alpha = "):
            blocks.append((s[len("alpha = "):], []))
            current = None
            continue
        m = _K_LINE.fullmatch(s)
        if m:
            if not blocks:
                blocks.append((None, []))
            current = (int(m.group(1)), m.group(2) == "exact", [])
            blocks[-1][1].append(current)
        elif s.startswith("warning:"):
            current = None
        elif current is not None and not s.startswith(("notes:", "(no closed form")):
            current[2].append(s)
    return blocks


def compute_check(fmt: str, names, order: str, expected) -> Callable:
    """``expected``: [(alpha text or None, [(k, exact, [basis dicts])])]."""
    def check(rc: int, out: str, err: str) -> bool:
        if rc != 0:
            return False
        got = compute_blocks(out, fmt)
        if [(a, [(k, e) for k, e, _ in rs]) for a, rs in got] != \
                [(a, [(k, e) for k, e, _ in rs]) for a, rs in expected]:
            return False
        return all(lines is not None and ref.basis_matches(lines, basis, names, order)
                   for (_, rs), (_, ers) in zip(got, expected)
                   for (_, _, lines), (_, _, basis) in zip(rs, ers))
    return check


def error_check(code: int) -> Callable:
    """Invalid input: the given exit code and nothing on stdout."""
    return lambda rc, out, err: rc == code and out == "" and err.startswith("error:")


def _compute_task(kind, names, n, components, k, order, fmt, expected, method="auto",
                  samples=None) -> Task:
    doc = {"vars": list(names[:n]), "task": "compute", "k": k, "method": method,
           "divisor": {"components": components}}
    argv = ["--order", order, "--format", fmt, "compute", TASK_FILE]
    if samples:
        argv += ["--alpha-samples", ",".join(samples)]
    return Task(kind, argv, doc, compute_check(fmt, names[:n], order, expected))


# ---------------------------------------------------------------------------
# recursion-chains: derivation-closure chains checked against the catalog

# (support equation over x, y, z; alphas, several = an --alpha-samples sweep;
#  k; method; output format).  The large ones cost 0.3-1.7 s each on the
# seed code; the small ones are the short chains users also ask for.
RECURSION_SHAPES = (
    ("x^2+y^3", ("9/10",), 6, "auto", "json"),
    ("x^2+y^3", ("5/6", "9/10", "1"), 4, "auto", "text"),
    ("x^2+y^3", ("1/2",), 3, "auto", "text"),
    ("x^2+y^3", ("1",), 2, "auto", "json"),
    ("x^2+y^4", ("3/4",), 5, "auto", "json"),
    ("x^2+y^4", ("1",), 3, "auto", "text"),
    ("x^2+y^5", ("1",), 5, "auto", "text"),
    ("x^2+y^5", ("2/3",), 3, "auto", "json"),
    ("x^2+y^7", ("1",), 5, "auto", "json"),
    ("x^2+y^7", ("3/5",), 2, "auto", "text"),
    ("x^3+y^4", ("1",), 5, "auto", "json"),
    ("x^3+y^4", ("5/6",), 4, "auto", "text"),
    ("x^3+y^4", ("1/2",), 2, "auto", "json"),
    ("x^3+y^5", ("1",), 4, "auto", "text"),
    ("x^3+y^5", ("7/8", "1"), 3, "auto", "json"),
    ("x^3+y^5", ("2/5",), 2, "auto", "text"),
    ("x^2+y^2+z^2", ("3/4",), 4, "recursion", "json"),
    ("x^2+y^2+z^2", ("1",), 3, "recursion", "text"),
    ("x^2+y^2+z^2", ("1/2",), 2, "recursion", "json"),
    ("x^2+y^3+z^5", ("1",), 3, "auto", "text"),
    ("x^2+y^3+z^5", ("3/4",), 2, "auto", "json"),
    ("x^2+y^2+z^3", ("1",), 3, "auto", "json"),
    ("x^2+y^2+z^3", ("2/3",), 2, "auto", "text"),
)


def diagonal_exponents(f: str) -> tuple[int, ...]:
    return tuple(int(term.split("^")[1]) for term in f.split("+"))


def catalog_key(f: str, alpha: str, k: int) -> str:
    return f"{f}|{alpha}|{k}"


def catalog_entries():
    """(key, f, exponents, alpha, k) for every chain the catalog must hold."""
    for f, alphas, k, _, _ in RECURSION_SHAPES:
        for alpha in alphas:
            yield catalog_key(f, alpha, k), f, diagonal_exponents(f), alpha, k


def load_catalog() -> dict:
    """The committed references, with bases turned into term dicts."""
    raw = json.loads(CATALOG.read_text(encoding="utf-8"))
    chains = {}
    for key, entry in raw["recursion"].items():
        chains[key] = [(r["k"], r["exact"],
                        [{tuple(m): Fraction(c) for m, c in poly} for poly in r["basis"]])
                       for r in entry["results"]]
    verify = {name: sorted(tuple(v) for v in entry["verdicts"])
              for name, entry in raw["verify"].items()}
    return {"recursion": chains, "verify": verify}


def _rename(f: str, names) -> str:
    return f.translate(str.maketrans({"x": names[0], "y": names[1], "z": names[2]}))


def recursion_round(rng: random.Random, rnd: int, seed: int, refs: dict) -> list[Task]:
    names = NAME_SETS[(seed + rnd) % len(NAME_SETS)]
    tasks = []
    for f, alphas, k, method, fmt in RECURSION_SHAPES:
        n = len(f.split("+"))
        expected = [(a if len(alphas) > 1 else None, refs["recursion"][catalog_key(f, a, k)])
                    for a in alphas]
        tasks.append(_compute_task(
            "compute.recursion", names, n, [{"f": _rename(f, names), "alpha": alphas[0]}], k,
            "grevlex", fmt, expected, method=method,
            samples=alphas if len(alphas) > 1 else None))
    rng.shuffle(tasks)
    return tasks


# ---------------------------------------------------------------------------
# closed-forms: smooth, SNC, node and ordinary cones, checked by formula

# Shapes of one closed-forms round, in three cost blocks on the seed code.
# The median (12th of 23) falls in the middle of the middle block and
# p89 inside the 94-148 ms group, each with gaps on both sides:
#   low, 2-6 ms:     4 smooth, 5 ordinary
#   middle, 10-15 ms: SNC (4,4,2), (3,3,3), (2,2,6), (2,4,6); ordinary (4,3,1)
#   high, 23 ms-1 s: the other 9 SNC; r = 4 at k = 4 is the expensive
#                    canonicalisation of a large monomial ideal.
# (components r, variables n, k, print order, format)
SNC_SHAPES = (
    (4, 4, 4, "grevlex", "json"),
    (4, 4, 3, "lex", "text"),
    (4, 4, 3, "grlex", "json"),
    (4, 4, 3, "grevlex", "text"),
    (4, 4, 2, "lex", "json"),
    (3, 3, 4, "lex", "json"),
    (3, 4, 4, "grlex", "text"),
    (3, 4, 4, "lex", "json"),
    (3, 3, 3, "grevlex", "json"),
    (3, 4, 5, "grevlex", "text"),
    (2, 2, 6, "grlex", "text"),
    (2, 3, 8, "lex", "json"),
    (2, 4, 6, "grlex", "json"),
)
# (variables n, multiplicity m, largest k, alpha range (lo, hi], order, format)
# inside the ordinary closed-form region, with one maximal-ideal exponent
# per level over the whole range; n = m = 2 is the plane node.
ORDINARY_SHAPES = (
    (2, 2, 4, Fraction(0), Fraction(1), "grlex", "json"),
    (2, 2, 2, Fraction(0), Fraction(1), "lex", "text"),
    (3, 2, 1, Fraction(1, 2), Fraction(1), "grevlex", "json"),
    (3, 3, 1, Fraction(1, 3), Fraction(2, 3), "grlex", "text"),
    (4, 2, 2, Fraction(0), Fraction(1, 2), "lex", "json"),
    (4, 3, 1, Fraction(2, 3), Fraction(1), "lex", "text"),
)
# (variables n, variables used, twist exponent ceil(alpha) - 1, k, order, format)
SMOOTH_SHAPES = ((2, 2, 1, 2, "lex", "text"), (3, 3, 2, 3, "grevlex", "json"),
                 (4, 4, 0, 1, "grlex", "json"), (3, 2, 1, 2, "grlex", "text"))


def _random_alpha(rng: random.Random, lo: Fraction, hi: Fraction, dens=(2, 3, 4, 5, 6, 7, 10)):
    """A random rational in (lo, hi] with a denominator from ``dens``."""
    den = rng.choice(dens)
    first = math.floor(lo * den) + 1
    return Fraction(rng.randint(first, max(first, math.floor(hi * den))), den)


def _coeff(rng: random.Random) -> int:
    return rng.choice((1, 1, 1, 2, 3, -1, -2, 5))


def closed_forms_round(rng: random.Random, rnd: int, seed: int, refs: dict) -> list[Task]:
    names = ("x", "y", "z", "w")
    tasks = []
    for r, n, k, order, fmt in SNC_SHAPES:
        positions = rng.sample(range(n), r)
        alphas = [_random_alpha(rng, Fraction(0), Fraction(5, 2)) for _ in positions]
        comps = []
        for p, a in zip(positions, alphas):
            c = _coeff(rng)
            comps.append({"f": names[p] if c == 1 else f"{c}*{names[p]}", "alpha": str(a)})
        expected = [(None, [(j, True, ref.snc_basis(n, positions, alphas, j, order))
                            for j in range(k + 1)])]
        tasks.append(_compute_task("compute.snc", names, n, comps, k, order, fmt, expected))
    for n, m, k, lo, hi, order, fmt in ORDINARY_SHAPES:
        alpha = _random_alpha(rng, lo, hi)
        assert all(ref.ordinary_region(n, m, alpha, j) for j in range(k + 1))
        f = {tuple(m if t == v else 0 for t in range(n)): Fraction(_coeff(rng)) for v in range(n)}
        expected = [(None, [(j, True, ref.ordinary_basis(n, m, alpha, j, order))
                            for j in range(k + 1)])]
        tasks.append(_compute_task("compute.ordinary", names, n,
                                   [{"f": ref.format_poly(f, names[:n], "grevlex"),
                                     "alpha": str(alpha)}], k, order, fmt, expected))
    for n, used, e, k, order, fmt in SMOOTH_SHAPES:
        live = rng.sample(range(n), used)
        f = {tuple(int(t == v) for t in range(n)): Fraction(rng.choice((1, 2, -3, 4, -1)))
             for v in live}
        alpha = _random_alpha(rng, Fraction(e), Fraction(e + 1))
        basis = ref.smooth_basis(f, alpha, n, order)
        expected = [(None, [(j, True, basis) for j in range(k + 1)])]
        tasks.append(_compute_task("compute.smooth", names, n,
                                   [{"f": ref.format_poly(f, names[:n], "grevlex"),
                                     "alpha": str(alpha)}], k, order, fmt, expected))
    rng.shuffle(tasks)
    return tasks


# ---------------------------------------------------------------------------
# verify-suites: the six property suites, checked against the catalog

SUITE_NAMES = ("chains", "subadditivity", "product", "restriction", "periodicity",
               "certificates")
_VERDICT_LINE = re.compile(r"\[(PASS|FAIL|OBSERVED)\] (.+?) :: .* \((required|informational)\) ")


def verdicts_of(out: str, fmt: str):
    if fmt == "json":
        doc = json.loads(out)
        return doc["ok"], sorted((v["claim"], v["status"], v["required"]) for v in doc["verdicts"])
    found = []
    for line in out.splitlines():
        m = _VERDICT_LINE.match(line)
        if m:
            found.append((m.group(2), m.group(1), m.group(3) == "required"))
    ok = all(status != "FAIL" for _, status, req in found if req)
    return ok, sorted(found)


def verify_round(rng: random.Random, rnd: int, seed: int, refs: dict) -> list[Task]:
    """Each suite once, plus ``verify all``."""
    tasks = []
    vseed = (seed * 7919 + rnd) % 1000003
    for i, suite in enumerate(SUITE_NAMES + ("all",)):
        fmt = ("json", "text")[(rnd + i) % 2]
        names = SUITE_NAMES if suite == "all" else (suite,)
        expected = sorted(tuple(v) for name in names for v in refs["verify"][name])

        def check(rc, out, err, fmt=fmt, expected=expected):
            ok, got = verdicts_of(out, fmt)
            return rc == 0 and ok and got == expected

        tasks.append(Task(f"verify.{suite}", ["--format", fmt, "verify", suite,
                                               "--seed", str(vseed)], None, check))
    rng.shuffle(tasks)
    return tasks


# ---------------------------------------------------------------------------
# certify-parse: certificates and parsing, checked by formula; some invalid

# Denominators for certificate parameters: enough distinct values that a
# run seldom sends the same certify task twice.
CERT_DENS = tuple(range(2, 60))


def _certify_json_or_text(out: str, fmt: str) -> dict:
    if fmt == "json":
        return json.loads(out)
    m = re.search(r"^decision: (\S+)(?: \(q = (\S+)\))?$", out, re.M)
    if m is None:
        return {}
    doc = {"decision": m.group(1)}
    if m.group(2) is not None:
        doc["q"] = None if m.group(2) == "None" else int(m.group(2))
    return doc


def _certify_task(doc: dict, fmt: str, decision: str, extra: dict) -> Task:
    """``extra``: further JSON fields to compare; text output shows only q."""
    keys = extra if fmt == "json" else {k: v for k, v in extra.items() if k == "q"}

    def check(rc, out, err):
        got = _certify_json_or_text(out, fmt) if rc == 0 else {}
        return got.get("decision") == decision and all(got.get(k) == v for k, v in keys.items())
    return Task("certify", ["--format", fmt, "certify", TASK_FILE], doc, check)


def _resolution_task(rng: random.Random, fmt: str) -> Task:
    multi = rng.random() < 0.4
    fs = ["x", "y^2 + x^3"] if multi else [rng.choice(["x^2+y^3", "x^3+y^4", "x^2+y^5"])]
    alphas = [_random_alpha(rng, Fraction(0), Fraction(2), CERT_DENS) for _ in fs]
    k = rng.randint(0, 3)
    exceptional = [([rng.randint(0, 4) for _ in fs], rng.randint(0, 9))
                   for _ in range(rng.randint(1, 3))]
    exceptional = [(a if sum(a) else [1] * len(fs), b) for a, b in exceptional]
    doc = {"vars": ["x", "y"], "task": "certify", "k": k,
           "divisor": {"components": [{"f": f, "alpha": str(a)} for f, a in zip(fs, alphas)]},
           "resolution": {"exceptional": [{"a": a, "b": b} for a, b in exceptional],
                          "strict_transform_smooth": True}}
    reduced = [ref.reduce_alpha(a) for a in alphas]
    decision = ref.triviality_decision(exceptional, reduced, k)
    return _certify_task(doc, fmt, decision, {"alphas": [str(a) for a in reduced], "k": k})


def _multiplicity_task(rng: random.Random, fmt: str) -> Task:
    n = rng.randint(2, 4)
    r, a, k = rng.randint(1, n), rng.randint(1, 4), rng.randint(0, 3)
    b = _random_alpha(rng, Fraction(0), Fraction(6), CERT_DENS)
    q = rng.choice((None, None, rng.randint(0, 6)))
    data = {"n": n, "r": r, "a": a, "b": str(b)}
    if q is not None:
        data["q"] = q
    decision, value = ref.symbolic_power(r, a, b, k, q)
    doc = {"task": "certify", "k": k, "multiplicity": data}
    return _certify_task(doc, fmt, decision, {"q": value})


def _membership_task(rng: random.Random, fmt: str) -> Task:
    n, m, k = rng.randint(2, 4), rng.randint(1, 4), rng.randint(0, 3)
    alpha = _random_alpha(rng, Fraction(0), Fraction(1), CERT_DENS)
    proportional = rng.random() < 0.7
    doc = {"task": "certify", "k": k,
           "membership": {"n": n, "m": m, "alpha": str(alpha), "proportional": proportional}}
    return _certify_task(doc, fmt, ref.membership_decision(n, m, alpha, k, proportional), {})


def _parse_task(rng: random.Random, fmt: str, order: str) -> Task:
    names = rng.choice(NAME_SETS)[:rng.randint(1, 3)]
    n = len(names)
    monos = {tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(rng.randint(1, 6))}
    poly = {m: Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.choice((1, 1, 2, 3, 7)))
            for m in monos}
    first = max(poly, key=ref.order_key("grevlex"))
    poly[first] = abs(poly[first])  # a leading '-' would read as an option
    pieces = []
    for i, m in enumerate(sorted(poly, key=lambda t: (t != first, rng.random()))):
        c = poly[m]
        factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(names, m) if e]
        sep = rng.choice(("*", " "))
        body = sep.join(([str(abs(c))] if abs(c) != 1 or not factors else []) + factors)
        pieces.append(body if i == 0 else (" + " if c > 0 else " - ") + body)
    text = "".join(pieces)
    if rng.random() < 0.3:  # a product of two factors, expanded by the parser
        other = {tuple(int(t == 0) for t in range(n)): Fraction(1), (0,) * n: Fraction(-2)}
        text = f"({text})*({names[0]} - 2)"
        poly = ref.poly_mul(poly, other)

    def check(rc, out, err):
        if rc != 0:
            return False
        line = json.loads(out)["canonical"] if fmt == "json" else out.rstrip("\n")
        return ref.printed_matches(line, poly, names, order)

    return Task("parse", ["--order", order, "--format", fmt, "parse", text, "--vars",
                          ",".join(names)], None, check)


def _invalid_tasks(rng: random.Random) -> list[Task]:
    v = rng.choice(NAME_SETS)[:2]
    c = rng.randint(2, 9999)
    bad_parse = rng.choice((f"{v[0]}^^{c}", f"{c}.5*{v[0]}", f"{v[0]} + {c}*q9",
                            f"({v[0]} + {c}*{v[1]}", f"{c}*{v[0]} +"))
    n = rng.randint(2, 4)
    alpha = str(_random_alpha(rng, Fraction(0), Fraction(1), CERT_DENS))
    return [
        Task("parse.invalid", ["parse", bad_parse, "--vars", ",".join(v)], None, error_check(2)),
        Task("certify.invalid", ["certify", TASK_FILE],  # no 'b'
             {"task": "certify", "k": rng.randint(0, 3),
              "multiplicity": {"n": n, "r": rng.randint(1, n), "a": rng.randint(1, 999)}},
             error_check(2)),
        Task("certify.invalid", ["certify", TASK_FILE],  # two kinds at once
             {"task": "certify", "k": rng.randint(0, 3),
              "membership": {"n": n, "m": 2, "alpha": alpha},
              "multiplicity": {"n": n, "r": 1, "a": 1, "b": alpha}}, error_check(2)),
        Task("compute.unavailable", ["compute", TASK_FILE],
             {"vars": ["x", "y"], "task": "compute", "k": rng.randint(0, 4),
              "method": rng.choice(("snc", "smooth", "ordinary")),
              "divisor": {"components": [{"f": "x^2+y^3", "alpha": alpha}]}}, error_check(3)),
        Task("compute.unavailable", ["compute", TASK_FILE],  # no computable I_0
             {"vars": ["x", "y"], "task": "compute", "k": rng.randint(1, 4),
              "divisor": {"components": [{"f": f"x^2*y+{c}*y^3", "alpha": alpha}]}},
             error_check(3)),
    ]


def certify_parse_round(rng: random.Random, rnd: int, seed: int, refs: dict) -> list[Task]:
    tasks = []
    for i in range(12):
        fmt = ("json", "text")[i % 2]
        tasks.append(_resolution_task(rng, fmt))
        tasks.append(_multiplicity_task(rng, fmt))
        tasks.append(_membership_task(rng, fmt))
    for i in range(19):
        tasks.append(_parse_task(rng, ("json", "text")[i % 2], ref.ORDERS[i % 3]))
    tasks += _invalid_tasks(rng) + _invalid_tasks(rng)
    rng.shuffle(tasks)
    return tasks


WORKLOADS = {
    "recursion-chains": recursion_round,
    "closed-forms": closed_forms_round,
    "verify-suites": verify_round,
    "certify-parse": certify_parse_round,
}
