"""Command-line front end: evaluate, find zeros, classify, verify, plot data.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error
(malformed or non-finite input included), 3 domain error (an answer that
overflows float64, and a zero set that float64 cannot resolve, included),
4 degenerate input.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
import warnings

from .errors import ConditioningWarning, DomainError, OutsideRadius, ZeroPolynomial
from .parabola import (discriminant_D, fiber_intersections, figure1_rows,
                       figure2_cells, j_minus, j_plus)
from .parsing import ParseError, parse_polynomial
from .quat_core import Quaternion
from .regular_fn import RegularSeries, eval_series, zeros
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_DEGENERATE = 4

# The largest `figure --grid`: fig2 holds several (grid+1)^3 float64
# arrays at once, each under 70 MB at 200 (the benchmark draws at 60).
MAX_GRID = 200


def _read_json(load, text: str | bytes):
    """load(json.loads(text)); malformed JSON or non-finite values raise ParseError."""
    try:
        return load(json.loads(text))
    except (ValueError, TypeError, RecursionError) as exc:
        raise ParseError(f"malformed JSON input: {exc}") from None


def _load_polynomial(text: str) -> RegularSeries:
    """A polynomial given as a JSON file path, inline JSON, or an expression."""
    if os.path.isfile(text):
        with open(text, "rb") as fh:
            return _read_json(RegularSeries.from_json, fh.read())
    stripped = text.strip()
    if stripped.startswith("{"):
        return _read_json(RegularSeries.from_json, stripped)
    return parse_polynomial(stripped)


def _load_quaternion(text: str) -> Quaternion:
    stripped = text.strip()
    if stripped.startswith("["):
        return _read_json(Quaternion.from_json, stripped)
    series = parse_polynomial(stripped)
    if series.degree > 0:
        raise ParseError(f"{text!r} is not a constant")
    return series.coeff(0)


def _emit(args, text: str):
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _emit_json(args, obj) -> int:
    """Emit obj as JSON; an answer with a non-finite number exits 3 instead."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        print("domain error: the answer overflows float64", file=sys.stderr)
        return EXIT_DOMAIN
    _emit(args, text)
    return EXIT_OK


def cmd_eval(args) -> int:
    try:
        f = _load_polynomial(args.poly)
        q = _load_quaternion(args.point)
    except (ParseError, OSError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        value = eval_series(f, q)
    except OutsideRadius as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    return _emit_json(args, value.to_json())


def cmd_zeros(args) -> int:
    try:
        f = _load_polynomial(args.poly)
    except (ParseError, OSError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConditioningWarning)
            zs = zeros(f)
    except ZeroPolynomial as exc:
        print(f"degenerate input: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except ValueError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ConditioningWarning as exc:
        print(f"ill-conditioned: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    return _emit_json(args, zs.to_json())


def cmd_classify(args) -> int:
    coords = (args.x0, args.x1, args.x2, args.x3)
    if not all(map(math.isfinite, coords)):
        print(f"parse error: coordinates must be finite, got {coords}",
              file=sys.stderr)
        return EXIT_USAGE
    c = Quaternion(*coords)
    n = c.norm_sq()
    if not math.isfinite(n * n * n):
        print(f"domain error: |c|^6 overflows float64 at c = {coords}",
              file=sys.stderr)
        return EXIT_DOMAIN
    fc = fiber_intersections(c)
    report = {
        "class": fc.kind.value,
        "D": discriminant_D(c),
        "ruling_parameters": [[v.real, v.imag] for v in fc.ruling_parameters],
        "j_plus": None,
        "j_minus": None,
    }
    try:
        report["j_plus"] = j_plus(c).unit.to_json()
        report["j_minus"] = j_minus(c).unit.to_json()
    except DomainError:
        pass
    return _emit_json(args, report)


def cmd_verify(args) -> int:
    if args.suite not in SUITES:
        print(f"unknown suite {args.suite!r}; available: "
              + ", ".join(sorted(SUITES)), file=sys.stderr)
        return EXIT_USAGE
    result = run_suite(args.suite, seed=args.seed, samples=args.samples)
    _emit(args, result.summary())
    return EXIT_OK if result.passed else EXIT_VERIFY_FAIL


def cmd_figure(args) -> int:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if args.name == "fig1":
        writer.writerow(["x", "y", "z", "label"])
        for row in figure1_rows(200 if args.samples is None else args.samples):
            writer.writerow([f"{row[0]:.9g}", f"{row[1]:.9g}",
                             f"{row[2]:.9g}", row[3]])
    elif args.name == "fig2":
        writer.writerow(["x", "y", "z"])
        for x, y, z in figure2_cells(args.grid, args.extent):
            writer.writerow([f"{x:.9g}", f"{y:.9g}", f"{z:.9g}"])
    else:
        print(f"unknown figure {args.name!r}", file=sys.stderr)
        return EXIT_USAGE
    _emit(args, buf.getvalue())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sliceregular",
        description="Quaternionic polynomial evaluation, zero sets, and "
                    "twistor-geometry verification.")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=None)
    parser.add_argument("--out", default=None, help="output file path")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a polynomial at a quaternion")
    p.add_argument("poly", help="JSON file, inline JSON, or expression")
    p.add_argument("point", help="quaternion as [w,x,y,z] or an expression")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("zeros", help="zero set of a polynomial")
    p.add_argument("poly")
    p.set_defaults(fn=cmd_zeros)

    p = sub.add_parser("classify", help="classify a target point of q^2+qi")
    # read "-1e-05" as a number, not an option (argparse's own pattern
    # admits no exponent)
    p._negative_number_matcher = re.compile(r"^-\.?\d")
    p.add_argument("x0", type=float)
    p.add_argument("x1", type=float)
    p.add_argument("x2", type=float)
    p.add_argument("x3", type=float)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("figure", help="emit figure data as CSV")
    p.add_argument("name", help="fig1 or fig2")
    p.add_argument("--grid", type=int, default=60)
    p.add_argument("--extent", type=float, default=2.0)
    p.set_defaults(fn=cmd_figure)
    return parser


def _size_error(args) -> str | None:
    """Why a count or an extent is out of range, checked before anything
    is allocated; None when all are in range."""
    if args.samples is not None and args.samples < 1:
        return f"--samples must be at least 1, got {args.samples}"
    if args.command == "figure":
        if not 1 <= args.grid <= MAX_GRID:
            return f"--grid must be from 1 to {MAX_GRID}, got {args.grid}"
        if not (math.isfinite(args.extent) and args.extent > 0.0):
            return f"--extent must be finite and positive, got {args.extent}"
    return None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    problem = _size_error(args)
    if problem is not None:
        print(f"usage error: {problem}", file=sys.stderr)
        return EXIT_USAGE
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
