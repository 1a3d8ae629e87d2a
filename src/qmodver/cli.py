"""Command line interface: expand series, emit sector characters, run check
suites, and test single modular transformation laws.

Exit codes: 0 pass, 1 check failure, 2 usage error, 3 convergence or
precondition failure.  When the reader closes stdout early, the exit code is
the command's own status if it had finished, else 1.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import re
import sys
import time
from fractions import Fraction
from functools import partial

from . import lattice, specfun, verify
# mobius is not called here: perfbench/tracer.py rebinds this name, so a traced run needs it
from .modgroup import ModularMatrix, SectorPair, mobius
from .series import EvaluationError, PuiseuxSeries, SeriesError

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CONVERGENCE = 3
# the largest --order accepted; exact builds grow about quadratically in it
MAX_ORDER = 10 ** 4
# the largest weight k of E<k> and Q<k>; Q<k> also needs order * T <= 24 * MAX_ORDER,
# since it builds about order * T terms on the 1/T grid
MAX_WEIGHT = 400


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def parse_order(text: str) -> Fraction:
    order = parse_fraction(text)
    if order > MAX_ORDER:
        raise argparse.ArgumentTypeError(f"order must be at most {MAX_ORDER}, got {text!r}")
    return order


def parse_tolerance(text: str) -> float:
    try:
        tol = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not (math.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and > 0, got {text!r}")
    return tol


def parse_complex_pair(text: str) -> complex:
    try:
        re, im = (float(p) for p in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected re,im: {text!r}") from exc
    if not (math.isfinite(re) and math.isfinite(im)):
        raise argparse.ArgumentTypeError(f"re,im must be finite, got {text!r}")
    return complex(re, im)


def parse_int_list(text: str, n: int, what: str) -> list[int]:
    parts = text.split(",")
    if len(parts) != n:
        raise argparse.ArgumentTypeError(f"{what} needs {n} comma-separated integers")
    try:
        return [int(p) for p in parts]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{what}: non-integer entry in {text!r}") from exc


def parse_weight(name: str) -> int:
    k = int(name[1:])
    if k > MAX_WEIGHT:
        raise SeriesError(f"{name[0]}<k> weight must be at most {MAX_WEIGHT}, got {k}")
    return k


def build_series(spec_text: str, order: Fraction, twist: str | None = None) -> PuiseuxSeries:
    """Series vocabulary: eta, theta1..4, E<k>, Q<k>[:j,T,l,T1], char:i,j.
    Only Q<k> and char take an argument after ":", and Q<k> takes its twist
    inline or by `twist`, not both; a `twist` for any other series is
    ignored, with a note on stderr."""
    name, colon, arg = spec_text.partition(":")
    if name.startswith("Q") and name[1:].isdigit():
        k = parse_weight(name)
        if arg and twist:
            raise SeriesError(f"{spec_text!r} gives a twist inline and --twist gives "
                              f"{twist!r}: give it once")
        twist_text = arg or twist
        if not twist_text:
            raise SeriesError(f"{name} needs a twist j,T,l,T1 (--twist or {name}:j,T,l,T1)")
        j, T, l, T1 = parse_int_list(twist_text, 4, "twist")
        if order * T > 24 * MAX_ORDER:
            raise SeriesError(f"{name} needs order * T <= {24 * MAX_ORDER}, got {order * T}")
        return specfun.q_twisted(k, specfun.TwistParams(j, T, l, T1), order)
    if name == "char":
        if not arg:
            raise SeriesError("char needs sector indices, e.g. char:0,1")
        pair = SectorPair(2, *parse_int_list(arg, 2, "sector pair"))
        build = lambda o: lattice.character(pair, o).series
    elif name == "eta":
        build = specfun.dedekind_eta
    elif name.startswith("theta") and name[5:] in ("1", "2", "3", "4"):
        build = partial(specfun.jacobi_theta, int(name[5:]))
    elif name.startswith("E") and name[1:].isdigit():
        build = partial(specfun.eisenstein, parse_weight(name))
    else:
        raise SeriesError(f"unknown series spec {spec_text!r}")
    if colon and name != "char":
        raise SeriesError(f"series {name} takes no argument, got {spec_text!r}")
    if twist is not None:
        print(f"note: --twist is ignored by series {name}", file=sys.stderr)
    return build(order)


def emit_series(series: PuiseuxSeries, fmt: str, extra: dict | None = None):
    if fmt == "json":
        doc = series.to_json_dict()
        if extra:
            doc.update(extra)
        print(json.dumps(doc))
        return
    for e, c in series.terms():
        print(f"{e}\t{c}")
    print(f"# O(q^({series.order}))")


def print_reports(reports, fmt: str):
    """One line per report: its JSON object, or its summary line."""
    for rep in reports:
        print(json.dumps(rep.to_json_dict()) if fmt == "json" else rep.summary_line())


def cmd_expand(args) -> int:
    series = build_series(args.series, args.order, args.twist)
    emit_series(series, args.format)
    return EXIT_PASS


def cmd_char(args) -> int:
    i, j = parse_int_list(args.pair, 2, "--pair")
    data = lattice.character(SectorPair(2, i, j), args.order)
    extra = {"sector": [i, j], "central_charge": str(data.central_charge)}
    emit_series(data.series, args.format, extra)
    return EXIT_PASS


def cmd_check(args) -> int:
    start = time.perf_counter()
    points = tuple(args.tau) if args.tau else None
    suites = verify.suites_of(args.suite)
    if args.order is not None and args.order < 0:
        raise ValueError(f"check needs --order >= 0, got {args.order}: below order 0 no "
                         "series keeps a term, and at 0 each check reports that its "
                         "order is insufficient")
    for flag, value in (("tau", args.tau), ("tol", args.tol)):
        if value is not None and not any(flag in verify.SUITE_FLAGS[s] for s in suites):
            print(f"note: --{flag} is ignored by suite {args.suite}", file=sys.stderr)
    reports, status = verify.run_suite(
        args.suite, exact_order=args.order, numeric_order=args.order,
        tol=args.tol, sample_points=points)
    print_reports(reports, args.format)
    sys.stdout.flush()  # what follows comes after the reports that reached the reader
    if args.order == 0:
        print("note: at --order 0 no series keeps a term: each exact check reports "
              "insufficient order, and each numeric law fails on a vanishing side or "
              "aborts where it divides by one", file=sys.stderr)
    counts = {verdict: 0 for verdict in ("pass", "xfail", "fail", "abort")}
    for rep in reports:
        counts[rep.verdict()] += 1
    print(", ".join(f"{n} {verdict}" for verdict, n in counts.items())
          + f" in {time.perf_counter() - start:.3f} s", file=sys.stderr)
    return status


def cmd_transform(args) -> int:
    a, b, c, d = parse_int_list(args.gamma, 4, "--gamma")
    gamma = ModularMatrix(a, b, c, d)
    lhs = build_series(args.lhs, args.order)
    rhs = build_series(args.rhs, args.order)
    spec = verify.TransformSpec(gamma, args.weight, args.multiplier, tuple(args.tau), args.tol)
    rep = verify.check_transform_numeric(
        f"transform-{args.lhs}-gamma{gamma.entries()}-{args.rhs}", lhs, rhs, spec)
    print_reports([rep], args.format)
    return EXIT_PASS if rep.passed else EXIT_FAIL


# a value that reads as a negative number: "-" and then a digit, ".", inf or
# nan.  No option starts that way.
_NEGATIVE_VALUE = re.compile(r"-(\d|\.|inf|nan)", re.IGNORECASE)


def join_negative_values(argv: list[str]) -> list[str]:
    """argv with each `--flag VALUE` whose VALUE reads as a negative number
    joined into `--flag=VALUE`.  argparse reads a word that starts with "-"
    and is not a plain negative number, such as "-0.5,1" or "-1,0,0,-1", as
    an option, so `--tau -0.5,1` would otherwise stop with "expected one
    argument"."""
    out: list[str] = []
    for arg in argv:
        if (out and out[-1].startswith("--") and len(out[-1]) > 2 and "=" not in out[-1]
                and _NEGATIVE_VALUE.match(arg)):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


# the epilog of every command's --help
FLAG_NOTE = ("Flags are spelled in full: a prefix such as --mult for --multiplier is "
             "refused.  A value may start with \"-\" after a space, as in --tau -0.5,1 "
             "or --gamma -1,0,0,-1.")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmodver",
        description="Exact q-series expansion and modular identity verification",
        epilog=FLAG_NOTE, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text, func):
        p = sub.add_parser(name, help=help_text, epilog=FLAG_NOTE, allow_abbrev=False)
        p.set_defaults(func=func)
        return p

    p = command("expand", "print the q-expansion of a named series", cmd_expand)
    p.add_argument("--series", required=True,
                   help="eta | theta1..theta4 | E<k> | Q<k>")
    p.add_argument("--twist", help="j,T,l,T1 for Q<k>")
    p.add_argument("--order", type=parse_order, default=Fraction(20),
                   help=f"truncation order NUM[/DEN], at most {MAX_ORDER}")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = command("char", "supertrace character of a Z_2 sector pair", cmd_char)
    p.add_argument("--pair", required=True, help="sector exponents i,j")
    p.add_argument("--order", type=parse_order, default=Fraction(20))
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = command("check", "run a verification suite", cmd_check)
    p.add_argument("--suite", required=True, choices=verify.SUITE_NAMES)
    p.add_argument("--order", type=parse_order, default=None,
                   help="override the per-check build order (at least 0)")
    p.add_argument("--tol", type=parse_tolerance, default=None)
    p.add_argument("--tau", type=parse_complex_pair, action="append",
                   help="sample point re,im (repeatable)")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = command("transform", "test f(gamma tau) = mult (c tau+d)^w g(tau)", cmd_transform)
    p.add_argument("--gamma", required=True, help="matrix entries a,b,c,d")
    p.add_argument("--weight", type=parse_fraction, default=Fraction(0))
    p.add_argument("--multiplier", type=parse_complex_pair, default=1.0 + 0j,
                   help="re,im (default 1,0)")
    p.add_argument("--lhs", required=True, help="series spec for f")
    p.add_argument("--rhs", required=True, help="series spec for g")
    p.add_argument("--tau", type=parse_complex_pair, action="append", required=True,
                   help="sample point re,im (repeatable)")
    p.add_argument("--tol", type=parse_tolerance, default=1e-8)
    p.add_argument("--order", type=parse_order,
                   default=Fraction(verify.DEFAULT_NUMERIC_ORDER))
    p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(join_negative_values(sys.argv[1:] if argv is None else argv))
    status = None
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so that the
        # interpreter's final flush of what is still buffered raises nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_FAIL if status is None else status
    except (EvaluationError, ArithmeticError) as exc:
        # ArithmeticError: float overflow or division by a vanishing value
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (SeriesError, ValueError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
