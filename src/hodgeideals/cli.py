"""Command-line front end: compute / certify / verify / parse over JSON
task files with canonical, diff-stable output.

Every number printed is an exact rational (``p/q`` or integer text).
Exit codes: 0 success, 1 claim failure, 2 input error (an ``InputError``:
a ``ParseError``, an unwritable ``--output`` path included, where only
polynomial and rational text errors carry a span; a caller's I_0 that is
zero or that the computed I_0 contradicts; or a library refusal of a value
the task carries), 3 method unavailable, 4 internal error (any other error).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import traceback
from typing import Optional, Sequence

from .compute import MethodUnavailableError, compute_chain
from .divisor import QDivisor, reduced_alpha
from .ideal import Ideal
from .parser import ParseError, TaskSpec, parse_polynomial
from .poly import _ORDERS, InputError, MonomialOrder, format_rational

EXIT_OK = 0
EXIT_CLAIM_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_METHOD_UNAVAILABLE = 3
EXIT_INTERNAL_ERROR = 4


def _load_document(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read task file {path!r}: {exc}") from exc
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: also an over-long integer
        raise ParseError(f"task file {path!r} is not valid JSON: {exc}") from exc


def _ideal_lines(ideal: Ideal, order: MonomialOrder) -> list[str]:
    return [g.to_str(order) for g in ideal.groebner(order)]


_quote = json.encoder.encode_basestring_ascii


def _json(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for the values a
    report holds: dicts with string keys, lists and tuples, strings, ints,
    booleans and ``None``.  Anything else raises ``TypeError``.
    ``indent`` is the line break and indentation of ``value``'s own
    line; a list of strings is joined in one call."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        # A key that is not a string fails the sort or the quoting.
        return "{" + inner + ("," + inner).join(
            [_quote(key) + ": " + _json(value[key], inner) for key in sorted(value)]
        ) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if all(isinstance(item, str) for item in value):
            items = map(_quote, value)
        else:
            items = [_json(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    raise TypeError(f"a report cannot hold {type(value).__name__} values: {value!r}")


def _emit(payload: dict, text_lines: list[str], fmt: str, output: Optional[str]) -> None:
    if fmt == "json":
        body = _json(payload) + "\n"
    else:
        body = "\n".join(text_lines) + "\n"
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(body)
        except OSError as exc:
            raise ParseError(f"cannot write report to {output!r}: {exc}") from exc
    else:
        sys.stdout.write(body)


def _run_compute_once(divisor: QDivisor, spec: TaskSpec, order: MonomialOrder,
                      lower_bound: list[str]):
    results = compute_chain(divisor, spec.k, spec.method,
                            seed_ideal=spec.seed, certificate=spec.certificate)
    payload = []
    lines: list[str] = []
    for res in results:
        gens = _ideal_lines(res.ideal, order)
        notes, exact = res.notes, res.exact
        payload.append({"k": res.k, "exact": exact, "primed": False,
                        "method": res.method, "ideal": gens, "notes": notes})
        lines.append(f"k = {res.k} [{'exact' if exact else 'lower-bound'}] method={res.method}")
        lines += [f"  {gen}" for gen in gens]
        if notes:
            lines.append(f"  notes: {notes}")
        if not exact:
            lower_bound.append(notes)
    return payload, lines


def cmd_compute(args) -> int:
    spec = TaskSpec.from_document(_load_document(args.task), "compute", args.alpha_samples)
    order = MonomialOrder.from_name(args.order)
    divisor = spec.divisor
    lower_bound: list[str] = []
    payload = {"task": "compute", "vars": list(divisor.vars),
               "divisor": [{"f": str(f), "alpha": format_rational(a)}
                           for f, a in divisor.components],
               "method": spec.method, "order": order.name}
    if spec.samples is None:
        payload["results"], lines = _run_compute_once(divisor, spec, order, lower_bound)
    else:
        payload["samples"], lines = [], []
        for alpha in spec.samples:
            results_json, sample_lines = _run_compute_once(divisor.with_alpha(alpha), spec,
                                                           order, lower_bound)
            payload["samples"].append({"alpha": format_rational(alpha), "results": results_json})
            lines.append(f"alpha = {format_rational(alpha)}")
            lines += [f"  {line}" for line in sample_lines]
    # Read once the chains are computed, so a refused task decides nothing more.
    payload["warnings"] = divisor.assumptions
    text_lines = ["task: compute", f"divisor: {divisor.describe()}", f"method: {spec.method}"]
    text_lines += [f"warning: {warning}" for warning in divisor.assumptions] + lines
    text_lines += [f"warning: non-exact result: {note}" for note in dict.fromkeys(lower_bound)]
    _emit(payload, text_lines, args.format, args.output)
    return EXIT_OK


def cmd_certify(args) -> int:
    from . import certificates

    spec = TaskSpec.from_document(_load_document(args.task), "certify")
    payload = {"task": "certify", "k": spec.k}
    lines: list[str] = []
    if spec.kind == "resolution":
        alphas = tuple(map(reduced_alpha, spec.divisor.alphas))
        if alphas != spec.divisor.alphas:
            lines.append("coefficients periodically reduced into (0, 1]")
        decision = certificates.triviality_certificate(alphas=alphas, k=spec.k, **spec.arguments)
        title, suffix = "triviality", ""
        payload["alphas"] = [format_rational(a) for a in alphas]
    elif spec.kind == "multiplicity":
        decision = certificates.nontriviality_symbolic_power(k=spec.k, **spec.arguments)
        title, suffix = "symbolic power", f" (q = {decision.value})"
        payload["q"] = decision.value
    else:
        decision = certificates.alpha_multiple_membership(k=spec.k, **spec.arguments)
        title, suffix = "maximal-ideal membership", ""
    lines += decision.lines
    payload.update(kind=title.replace(" ", "-"), decision=decision.status, inequalities=lines)
    text = [f"task: certify ({title}), k = {spec.k}"] + [f"  {line}" for line in lines] + \
        [f"decision: {decision.status}{suffix}"]
    _emit(payload, text, args.format, args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import DEFAULT_SEED, SUITES, report_ok, run_suites

    names = list(args.suites)
    if "all" in names:
        names = sorted(SUITES)
    seed = DEFAULT_SEED if args.seed is None else args.seed
    verdicts = run_suites(names, seed)
    ok = report_ok(verdicts)
    payload = {"task": "verify", "suites": names, "seed": seed, "ok": ok,
               "verdicts": [vars(v) for v in verdicts]}
    text = [f"task: verify ({', '.join(names)}), seed = {seed}"]
    for v in verdicts:
        req = "required" if v.required else "informational"
        text.append(f"[{v.status}] {v.claim} :: {v.instance} ({req}) {v.detail}")
    counts = {s: sum(1 for v in verdicts if v.status == s) for s in ("PASS", "FAIL", "OBSERVED")}
    text.append(f"summary: {counts['PASS']} pass, {counts['FAIL']} fail, "
                f"{counts['OBSERVED']} observed")
    _emit(payload, text, args.format, args.output)
    return EXIT_OK if ok else EXIT_CLAIM_FAILURE


def cmd_parse(args) -> int:
    variables = tuple(v.strip() for v in args.vars.split(",")) if args.vars else ()
    poly = parse_polynomial(args.expression, variables)
    order = MonomialOrder.from_name(args.order)
    canonical = poly.to_str(order)
    payload = {"task": "parse", "vars": list(variables), "canonical": canonical,
               "order": order.name}
    _emit(payload, [canonical], args.format, args.output)
    return EXIT_OK


# Subcommand functions, looked up when each command runs: the parser is
# built once and keeps no reference to them.
_COMMANDS = {"compute": cmd_compute, "certify": cmd_certify, "verify": cmd_verify,
             "parse": cmd_parse}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then reused."""
    parser = argparse.ArgumentParser(
        prog="hodge-ideals",
        description="Hodge ideals of effective Q-divisors: exact computation, "
                    "certificates, and property verification.")
    parser.add_argument("--format", choices=("json", "text"), default="text",
                        help="output format (default: text)")
    parser.add_argument("--order", choices=tuple(_ORDERS), default="grevlex",
                        help="monomial order for printed polynomials (default: grevlex)")
    def verify_only(_text: str):
        raise argparse.ArgumentTypeError("only verify reads a seed; give it after the suite names")

    parser.add_argument("--seed", type=verify_only, default=argparse.SUPPRESS,
                        help=argparse.SUPPRESS)
    parser.add_argument("--output", help="write the report to a file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute Hodge ideals from a JSON task file")
    p_compute.add_argument("task", help="task file path, or - for stdin")
    p_compute.add_argument("--alpha-samples",
                           help="comma-separated exact rationals substituted for alpha")

    p_certify = sub.add_parser("certify",
                               help="triviality / non-triviality certificates from numeric data")
    p_certify.add_argument("task", help="task file path, or - for stdin")

    p_verify = sub.add_parser("verify", help="run property suites against the theorems")
    p_verify.add_argument("suites", nargs="+",
                          help="suite names, or 'all' for every suite")
    p_verify.add_argument("--seed", type=int,
                          help="seed for all randomness (default: 7)")

    p_parse = sub.add_parser("parse", help="echo the canonical form of a polynomial")
    p_parse.add_argument("expression")
    p_parse.add_argument("--vars", required=True, help="comma-separated variable names")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (InputError, MethodUnavailableError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_METHOD_UNAVAILABLE if isinstance(exc, MethodUnavailableError) \
            else EXIT_INPUT_ERROR
    except Exception as exc:  # not BaseException: SystemExit and signals pass through
        sys.stderr.write(f"error: internal error: {exc}\n")
        traceback.print_exc()
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
