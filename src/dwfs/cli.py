"""Command-line interface: parse checks, per-method semantics, residual
programs, reduction traces, and equivalence fuzzing.

Exit codes: 0 success (and agreement), 1 usage or parse error, 2 divergence
found, 3 capacity exceeded, 4 a route failed (no greatest unfounded set, or
the admissibility iteration broke its invariant). A cross-check (`semantics
--method all`, `fuzz`) exits with the first of 2, 4 and 3 that applies.
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import CapacityError, Program, RouteError
from .harness import (
    ROUTES,
    SEMANTICS_NAMES,
    GeneratorConfig,
    check_equivalence,
    compute_semantics,
    fuzz_reports,
    report_json,
)
from .parser import ParseError, parse_program, render_program, render_state, state_json
from .residual import classic_residual, lft, residual_trace, strong_residual
from .transforms import render_step

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DIVERGENCE = 2
EXIT_CAPACITY = 3
EXIT_ROUTE = 4


class _UsageError(Exception):
    pass


class _InputError(Exception):
    """The program file could not be read or decoded."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="dwfs", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def add_input(p):
        p.add_argument("file", help="program file, or - for stdin")

    p_check = sub.add_parser("check", help="parse and echo the canonical form")
    add_input(p_check)

    p_sem = sub.add_parser("semantics", help="compute a semantics of the program")
    add_input(p_sem)
    p_sem.add_argument(
        "--method",
        choices=[*ROUTES, "all"],
        default="all",
    )
    p_sem.add_argument("--format", choices=["text", "json"], default="text")

    p_res = sub.add_parser("residual", help="print the reduced residual program")
    add_input(p_res)
    p_res.add_argument("--classic", action="store_true")
    p_res.add_argument("--lft-cap", type=int, default=None)

    p_lft = sub.add_parser("lft", help="print the saturation into conditional facts")
    add_input(p_lft)
    p_lft.add_argument("--lft-cap", type=int, default=None)

    p_trace = sub.add_parser("trace", help="print the reduction iteration step by step")
    add_input(p_trace)
    p_trace.add_argument("--lft-cap", type=int, default=None)

    p_fuzz = sub.add_parser("fuzz", help="cross-check the semantics on random programs")
    p_fuzz.add_argument("--count", type=int, default=100)
    p_fuzz.add_argument("--atoms", type=int, default=5)
    p_fuzz.add_argument("--rules", type=int, default=6)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--max-head", type=int, default=3)
    p_fuzz.add_argument("--max-pos-body", type=int, default=3)
    p_fuzz.add_argument("--max-neg-body", type=int, default=3)
    p_fuzz.add_argument("--neg-prob", type=float, default=0.5)
    return parser


def _load(path: str) -> Program:
    # A FILE and stdin are read as the same bytes and decoded here, strictly,
    # whatever the locale, with no newline translation: only "\n" starts a
    # line of the grammar, so a lone "\r" is a blank on both routes.
    try:
        if path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _InputError(exc) from exc
    return parse_program(text)


def _print_negative_program(p: Program, facts, out):
    out.write(render_program(p.with_rules(facts)))


def _cmd_check(args, out) -> int:
    out.write(render_program(_load(args.file)))
    return EXIT_OK


def _cmd_semantics(args, out) -> int:
    program = _load(args.file)
    if args.method == "all":
        report = check_equivalence(program)
        if args.format == "json":
            out.write(json.dumps(report_json(report), sort_keys=True) + "\n")
        else:
            for name in SEMANTICS_NAMES:
                out.write(f"[{name}]\n")
                if name in report.states:
                    out.write(render_state(report.states[name], program.atom_names))
                elif name in report.route_errors:
                    out.write(f"route error: {report.errors[name]}\n")
                else:
                    out.write(f"capacity error: {report.errors[name]}\n")
                out.write("\n")
            out.write(f"equal: {'true' if report.equal else 'false'}\n")
            if report.first_divergence is not None:
                (n1, n2), (sign, atoms) = report.first_divergence
                names = " | ".join(sorted(program.atom_names[a] for a in atoms))
                kind = "" if sign == "pos" else "not "
                out.write(f"divergence: {n1} vs {n2} on {kind}{names}\n")
        return _exit_code(
            not report.equal, bool(report.route_errors), bool(report.capacity_errors)
        )
    state = compute_semantics(program, args.method)
    if args.format == "json":
        out.write(json.dumps(state_json(state, program.atom_names), sort_keys=True) + "\n")
    else:
        out.write(render_state(state, program.atom_names))
    return EXIT_OK


def _cmd_residual(args, out) -> int:
    program = _load(args.file)
    if args.classic:
        facts = classic_residual(program, args.lft_cap)
    else:
        facts = strong_residual(program, args.lft_cap)
    _print_negative_program(program, facts, out)
    return EXIT_OK


def _cmd_lft(args, out) -> int:
    program = _load(args.file)
    _print_negative_program(program, lft(program, args.lft_cap), out)
    return EXIT_OK


def _cmd_trace(args, out) -> int:
    program = _load(args.file)
    saturated, passes, residual = residual_trace(program, args.lft_cap)
    out.write("% lft\n")
    _print_negative_program(program, saturated, out)
    for i, (steps, after) in enumerate(passes, start=1):
        out.write(f"% reduce {i}\n")
        for step in steps:
            out.write(render_step(step, program.atom_names) + "\n")
    out.write("% residual\n")
    _print_negative_program(program, residual, out)
    return EXIT_OK


def _cmd_fuzz(args, out) -> int:
    try:
        cfg = GeneratorConfig(
            seed=args.seed,
            num_atoms=args.atoms,
            num_rules=args.rules,
            max_head=min(args.max_head, args.atoms),
            max_pos_body=min(args.max_pos_body, args.atoms),
            max_neg_body=min(args.max_neg_body, args.atoms),
            neg_probability=args.neg_prob,
        )
    except ValueError as exc:
        raise _UsageError(exc) from exc
    failures = 0
    route_failures = 0
    capacity_failures = 0
    total = 0
    for report in fuzz_reports(args.count, cfg):
        total += 1
        failures += not report.equal
        route_failures += bool(report.route_errors)
        capacity_failures += bool(report.capacity_errors)
        if not report.equal or report.route_errors:
            out.write(json.dumps(report_json(report), sort_keys=True) + "\n")
    summary = f"fuzz: {total} programs, {failures} divergences"
    if route_failures:
        summary += f", {route_failures} with a route error"
    if capacity_failures:
        summary += f", {capacity_failures} with a capacity error"
    out.write(summary + "\n")
    return _exit_code(bool(failures), bool(route_failures), bool(capacity_failures))


def _exit_code(divergence: bool, route_failure: bool, capacity: bool) -> int:
    """The exit code of a cross-check: a divergence outranks a route
    failure, which outranks a capacity error."""
    if divergence:
        return EXIT_DIVERGENCE
    if route_failure:
        return EXIT_ROUTE
    return EXIT_CAPACITY if capacity else EXIT_OK


def run(argv) -> int:
    """Execute one command; returns the exit code and writes to stdout/stderr."""
    parser = _build_parser()
    handlers = {
        "check": _cmd_check,
        "semantics": _cmd_semantics,
        "residual": _cmd_residual,
        "lft": _cmd_lft,
        "trace": _cmd_trace,
        "fuzz": _cmd_fuzz,
    }
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        for flag in ("lft_cap", "count"):
            value = getattr(args, flag, None)
            if value is not None and value < 0:
                raise _UsageError(f"--{flag.replace('_', '-')} cannot be negative")
        return handlers[args.command](args, sys.stdout)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except RouteError as exc:
        print(f"route error: {exc}", file=sys.stderr)
        return EXIT_ROUTE


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
