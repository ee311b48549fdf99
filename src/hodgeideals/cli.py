"""Command-line front end: compute / certify / verify / parse over JSON
task files with canonical, diff-stable output.

Every number printed is an exact rational (``p/q`` or integer text);
exit codes: 0 success, 1 claim failure, 2 input error, 3 method
unavailable.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .certificates import MultiplicityData, triviality_certificate, \
    nontriviality_symbolic_power, alpha_multiple_membership
from .compute import METHODS, MethodUnavailableError, compute_chain
from .divisor import QDivisor, periodic_reduce, validate
from .ideal import Ideal
from .parser import ParseError, parse_divisor, parse_polynomial, parse_rational, \
    parse_resolution_data
from .poly import MonomialOrder, format_rational
from .recursion import CERTIFICATE_SOURCES, GenerationCertificate
from .verify import DEFAULT_SEED, SUITES, report_ok, run_suites

EXIT_OK = 0
EXIT_CLAIM_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_METHOD_UNAVAILABLE = 3


class InputError(ValueError):
    """Invalid task document or command-line input."""


@dataclass(frozen=True)
class TaskSpec:
    """A validated task file: divisor, level, method selector, options."""

    task: str
    divisor: Optional[QDivisor]
    k: int
    method: str
    options: dict
    raw: dict


def _load_document(path: str) -> dict:
    try:
        text = sys.stdin.read() if path == "-" else open(path, "r", encoding="utf-8").read()
    except OSError as exc:
        raise InputError(f"cannot read task file {path!r}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"task file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("task document must be a JSON object")
    return doc


def _task_spec(doc: dict, expected: str) -> TaskSpec:
    task = doc.get("task", expected)
    if task != expected:
        raise InputError(f"task field says {task!r} but the subcommand is {expected!r}")
    divisor = None
    if "divisor" in doc or "vars" in doc:
        if "vars" not in doc:
            raise InputError("task document needs a 'vars' list")
        divisor = parse_divisor(doc)
    k = doc.get("k", 0)
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise InputError(f"'k' must be a non-negative integer, got {k!r}")
    method = doc.get("method", "auto")
    if method not in METHODS:
        raise InputError(f"unknown method {method!r}; expected one of {METHODS}")
    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise InputError("'options' must be an object")
    return TaskSpec(task=task, divisor=divisor, k=k, method=method, options=options, raw=doc)


def _certificate_from_options(options: dict) -> Optional[GenerationCertificate]:
    cert = options.get("certificate")
    if cert is None:
        return None
    if not isinstance(cert, dict) or "level" not in cert:
        raise InputError("'options.certificate' must be an object with a 'level'")
    level = cert["level"]
    if not isinstance(level, int) or isinstance(level, bool) or level < 0:
        raise InputError(f"certificate level must be a non-negative integer, got {level!r}")
    source = cert.get("source", "user-asserted")
    if source not in CERTIFICATE_SOURCES:
        raise InputError(f"unknown certificate source {source!r}")
    return GenerationCertificate(level=level, source=source)


def _seed_from_options(options: dict, divisor: QDivisor) -> Optional[Ideal]:
    gens = options.get("i0")
    if gens is None:
        return None
    if not isinstance(gens, list) or not all(isinstance(g, str) for g in gens):
        raise InputError("'options.i0' must be a list of polynomial strings")
    return Ideal(divisor.vars, tuple(parse_polynomial(g, divisor.vars) for g in gens))


def _ideal_lines(ideal: Optional[Ideal], order: MonomialOrder) -> Optional[list[str]]:
    if ideal is None:
        return None
    return [g.to_str(order) for g in ideal.groebner(order)]


def _result_json(res, order: MonomialOrder) -> dict:
    return {
        "k": res.k,
        "exact": res.exact,
        "primed": False,
        "method": res.method,
        "ideal": _ideal_lines(res.ideal, order),
        "notes": res.notes,
    }


def _emit(payload: dict, text_lines: list[str], fmt: str, output: Optional[str]) -> None:
    if fmt == "json":
        body = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        body = "\n".join(text_lines) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)


def _alpha_samples(args) -> Optional[list[Fraction]]:
    if not args.alpha_samples:
        return None
    samples = []
    for piece in args.alpha_samples.split(","):
        value = parse_rational(piece.strip())
        if value <= 0:
            raise InputError(f"alpha samples must be positive, got {piece!r}")
        samples.append(value)
    return samples


def _run_compute_once(divisor: QDivisor, spec: TaskSpec, order: MonomialOrder):
    certificate = _certificate_from_options(spec.options)
    seed_ideal = _seed_from_options(spec.options, divisor)
    results = compute_chain(divisor, spec.k, spec.method,
                            seed_ideal=seed_ideal, certificate=certificate)
    payload = [_result_json(res, order) for res in results]
    lines: list[str] = []
    for res in results:
        flag = "exact" if res.exact else "lower-bound"
        lines.append(f"k = {res.k} [{flag}] method={res.method}")
        ideal_lines = _ideal_lines(res.ideal, order)
        if ideal_lines is None:
            lines.append("  (no closed form; see notes)")
        else:
            for gen in ideal_lines:
                lines.append(f"  {gen}")
        if res.notes:
            lines.append(f"  notes: {res.notes}")
    warnings = [res.notes for res in results if not res.exact]
    return payload, lines, warnings


def cmd_compute(args) -> int:
    doc = _load_document(args.task)
    spec = _task_spec(doc, "compute")
    if spec.divisor is None:
        raise InputError("compute needs a divisor")
    order = MonomialOrder.from_name(args.order)
    divisor_warnings = validate(spec.divisor)
    samples = _alpha_samples(args)
    if samples is None:
        opt_samples = spec.options.get("alpha_samples")
        if opt_samples is not None:
            if not isinstance(opt_samples, list):
                raise InputError("'options.alpha_samples' must be a list")
            samples = [parse_rational(str(a)) for a in opt_samples]

    text_lines = ["task: compute", f"divisor: {spec.divisor.describe()}",
                  f"method: {spec.method}"]
    for warning in divisor_warnings:
        text_lines.append(f"warning: {warning}")
    payload = {
        "task": "compute",
        "vars": list(spec.divisor.vars),
        "divisor": [{"f": str(f), "alpha": format_rational(a)}
                    for f, a in spec.divisor.components],
        "method": spec.method,
        "order": order.name,
        "warnings": divisor_warnings,
    }
    lower_bound_warnings: list[str] = []
    if samples is None:
        results_json, lines, lb = _run_compute_once(spec.divisor, spec, order)
        payload["results"] = results_json
        text_lines += lines
        lower_bound_warnings += lb
    else:
        blocks = []
        for alpha in samples:
            sampled = spec.divisor.with_alpha(alpha)
            results_json, lines, lb = _run_compute_once(sampled, spec, order)
            blocks.append({"alpha": format_rational(alpha), "results": results_json})
            text_lines.append(f"alpha = {format_rational(alpha)}")
            text_lines += [f"  {line}" for line in lines]
            lower_bound_warnings += lb
        payload["samples"] = blocks
    for note in lower_bound_warnings:
        text_lines.append(f"warning: non-exact result: {note}")
    _emit(payload, text_lines, args.format, args.output)
    return EXIT_OK


def cmd_certify(args) -> int:
    doc = _load_document(args.task)
    spec = _task_spec(doc, "certify")
    order = MonomialOrder.from_name(args.order)
    kinds = [key for key in ("resolution", "multiplicity", "membership") if key in doc]
    if len(kinds) != 1:
        raise InputError("certify wants exactly one of 'resolution', 'multiplicity', "
                         "or 'membership' in the task document")
    kind = kinds[0]
    if kind == "resolution":
        if spec.divisor is None:
            raise InputError("resolution certificates need the divisor (for its alphas)")
        res = parse_resolution_data(doc["resolution"])
        alphas = periodic_reduce(spec.divisor)[0].alphas
        reduced_note = [] if alphas == spec.divisor.alphas else \
            ["coefficients periodically reduced into (0, 1]"]
        decision = triviality_certificate(res, alphas, spec.k)
        lines = reduced_note + list(decision.lines)
        payload = {"task": "certify", "kind": "triviality", "k": spec.k,
                   "alphas": [format_rational(a) for a in alphas],
                   "decision": decision.status, "inequalities": lines}
        text = [f"task: certify (triviality), k = {spec.k}"] + \
               [f"  {line}" for line in lines] + [f"decision: {decision.status}"]
    elif kind == "multiplicity":
        m = doc["multiplicity"]
        if not isinstance(m, dict):
            raise InputError("'multiplicity' must be an object")
        try:
            md = MultiplicityData(n=int(m["n"]), r=int(m["r"]), a=int(m["a"]),
                                  b=parse_rational(str(m["b"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad multiplicity data: {exc}") from exc
        q = m.get("q")
        if q is not None and (not isinstance(q, int) or isinstance(q, bool) or q < 0):
            raise InputError("'multiplicity.q' must be a non-negative integer")
        decision = nontriviality_symbolic_power(md, spec.k, q)
        payload = {"task": "certify", "kind": "symbolic-power", "k": spec.k,
                   "decision": decision.status, "q": decision.value,
                   "inequalities": list(decision.lines)}
        text = [f"task: certify (symbolic power), k = {spec.k}"] + \
               [f"  {line}" for line in decision.lines] + \
               [f"decision: {decision.status} (q = {decision.value})"]
    else:
        m = doc["membership"]
        if not isinstance(m, dict):
            raise InputError("'membership' must be an object")
        try:
            decision = alpha_multiple_membership(
                n=int(m["n"]), m=int(m["m"]), alpha=parse_rational(str(m["alpha"])),
                k=spec.k, proportional=bool(m.get("proportional", True)))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad membership data: {exc}") from exc
        payload = {"task": "certify", "kind": "maximal-ideal-membership", "k": spec.k,
                   "decision": decision.status, "inequalities": list(decision.lines)}
        text = [f"task: certify (maximal-ideal membership), k = {spec.k}"] + \
               [f"  {line}" for line in decision.lines] + [f"decision: {decision.status}"]
    _emit(payload, text, args.format, args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    names = list(args.suites)
    if "all" in names:
        names = sorted(SUITES)
    try:
        verdicts = run_suites(names, args.seed)
    except KeyError as exc:
        raise InputError(str(exc.args[0])) from exc
    ok = report_ok(verdicts)
    payload = {
        "task": "verify",
        "suites": names,
        "seed": args.seed,
        "ok": ok,
        "verdicts": [v.to_json() for v in verdicts],
    }
    text = [f"task: verify ({', '.join(names)}), seed = {args.seed}"]
    for v in verdicts:
        req = "required" if v.required else "informational"
        text.append(f"[{v.status}] {v.claim} :: {v.instance} ({req}) {v.detail}")
    counts = {s: sum(1 for v in verdicts if v.status == s) for s in ("PASS", "FAIL", "OBSERVED")}
    text.append(f"summary: {counts['PASS']} pass, {counts['FAIL']} fail, "
                f"{counts['OBSERVED']} observed")
    _emit(payload, text, args.format, args.output)
    return EXIT_OK if ok else EXIT_CLAIM_FAILURE


def cmd_parse(args) -> int:
    variables = tuple(v.strip() for v in args.vars.split(",") if v.strip())
    poly = parse_polynomial(args.expression, variables)
    order = MonomialOrder.from_name(args.order)
    payload = {"task": "parse", "vars": list(variables), "canonical": poly.to_str(order),
               "order": order.name}
    _emit(payload, [poly.to_str(order)], args.format, args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hodge-ideals",
        description="Hodge ideals of effective Q-divisors: exact computation, "
                    "certificates, and property verification.")
    parser.add_argument("--format", choices=("json", "text"), default="text",
                        help="output format (default: text)")
    parser.add_argument("--order", choices=("grevlex", "lex", "grlex"), default="grevlex",
                        help="monomial order for printed polynomials (default: grevlex)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"seed for all randomness (default: {DEFAULT_SEED})")
    parser.add_argument("--output", help="write the report to a file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute Hodge ideals from a JSON task file")
    p_compute.add_argument("task", help="task file path, or - for stdin")
    p_compute.add_argument("--alpha-samples", default="",
                           help="comma-separated exact rationals substituted for alpha")
    p_compute.set_defaults(func=cmd_compute)

    p_certify = sub.add_parser("certify",
                               help="triviality / non-triviality certificates from numeric data")
    p_certify.add_argument("task", help="task file path, or - for stdin")
    p_certify.set_defaults(func=cmd_certify)

    p_verify = sub.add_parser("verify", help="run property suites against the theorems")
    p_verify.add_argument("suites", nargs="+",
                          help=f"suite names ({', '.join(sorted(SUITES))}) or 'all'")
    p_verify.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                          help="seed override (same as the global --seed)")
    p_verify.set_defaults(func=cmd_verify)

    p_parse = sub.add_parser("parse", help="echo the canonical form of a polynomial")
    p_parse.add_argument("expression")
    p_parse.add_argument("--vars", required=True, help="comma-separated variable names")
    p_parse.set_defaults(func=cmd_parse)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ParseError, ValueError) as exc:
        if isinstance(exc, MethodUnavailableError):
            sys.stderr.write(f"error: {exc}\n")
            return EXIT_METHOD_UNAVAILABLE
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
