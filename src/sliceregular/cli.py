"""Command-line front end: evaluate, find zeros, classify, verify, plot data.

Exit codes: 0 success, 1 verification failure.  An error type in _ERRORS
prints one line on stderr and exits with its code: 2 `usage error:`
(UsageError) or `parse error:` (ParseError, OSError: malformed or
non-finite input), 3 `domain error:` (DomainError, OutsideRadius: an
answer beyond float64 included) or `ill-conditioned:` (ConditioningWarning),
4 `degenerate input:` (ZeroPolynomial).  Any other exception is a bug.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import warnings

from .errors import ConditioningWarning, DomainError, OutsideRadius, ZeroPolynomial
from .parabola import (discriminant_D, fiber_intersections, figure1_rows,
                       figure2_cells, j_minus, j_plus)
from .parsing import ParseError, _check_degree, parse_polynomial
from .quat_core import Quaternion
from .regular_fn import RegularSeries, eval_series, zeros
from .verify import SUITES, run_suite

# The largest `figure --grid`: fig2 holds several (grid+1)^3 float64
# arrays at once, each under 70 MB at 200 (the benchmark draws at 60).
MAX_GRID = 200
# The largest `verify --samples`, for any suite.  Per sample,
# nullstellensatz costs the most memory (six chart points, each a row of
# 35 complex monomials, in one SVD: about 230 MB peak at this count), and
# zeros-multiplicity the most time (about 2 s, and 41 MB peak, as it
# solves 500 polynomials at a time).  quartic-membership, which lifts all
# its samples at once, adds about 8 MB here.  twistor-commute lifts 500
# samples at a time and transform-roundtrip fits 200 curves at a time:
# each peaks at about 40 MB, in under a second and about 2 s (Python
# 3.11, one core).
MAX_VERIFY_SAMPLES = 10_000


class UsageError(Exception):
    """An unknown name, a count out of range, or an --out that cannot be written."""


# The stderr prefix and exit code of each documented error type
_ERRORS = {
    UsageError: ("usage error", 2),
    ParseError: ("parse error", 2),
    OSError: ("parse error", 2),
    DomainError: ("domain error", 3),
    OutsideRadius: ("domain error", 3),
    ConditioningWarning: ("ill-conditioned", 3),
    ZeroPolynomial: ("degenerate input", 4),
}


def _read_json(load, text: str | bytes):
    """load(json.loads(text)); malformed JSON and values that load
    rejects raise ParseError."""
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


def _emit(args, text: str) -> int:
    """Write text to --out or stdout; an --out that cannot be written is
    a usage error, so that verify's exit 1 stays a failed check."""
    if args.out:
        try:
            with open(args.out, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write --out: {exc}") from None
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    return 0


def _emit_json(args, obj) -> int:
    """Emit obj as JSON; an answer with a non-finite number is a DomainError."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise DomainError("the answer overflows float64") from None
    return _emit(args, text)


def cmd_eval(args) -> int:
    value = eval_series(_load_polynomial(args.poly), _load_quaternion(args.point))
    return _emit_json(args, value.to_json())


def cmd_zeros(args) -> int:
    f = _load_polynomial(args.poly)
    # the expression grammar caps degrees as it parses; a JSON series
    # meets the same cap here, since zeros() grows as degree^3
    _check_degree(f.degree, "degree")
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConditioningWarning)
        zs = zeros(f)
    return _emit_json(args, zs.to_json())


def _structures(c: Quaternion) -> tuple[list | None, list | None]:
    """The units of J+ and J- at c, or (None, None) where they are undefined."""
    try:
        return j_plus(c).unit.to_json(), j_minus(c).unit.to_json()
    except DomainError:
        return None, None


def cmd_classify(args) -> int:
    coords = (args.x0, args.x1, args.x2, args.x3)
    if not all(map(math.isfinite, coords)):
        raise ParseError(f"coordinates must be finite, got {coords}")
    c = Quaternion(*coords)
    n = c.norm_sq()
    if not math.isfinite(n * n * n):
        raise DomainError(f"|c|^6 overflows float64 at c = {coords}")
    fc = fiber_intersections(c)
    report = {
        "class": fc.kind.value,
        "D": discriminant_D(c),
        "ruling_parameters": [[v.real, v.imag] for v in fc.ruling_parameters],
    }
    report["j_plus"], report["j_minus"] = _structures(c)
    return _emit_json(args, report)


def cmd_verify(args) -> int:
    result = run_suite(args.suite, seed=args.seed, samples=args.samples)
    _emit(args, result.summary())
    return 0 if result.passed else 1


def cmd_figure(args) -> int:
    if args.name == "fig1":
        rows = figure1_rows()
        lines = ["x,y,z,label"] + [f"{x:.9g},{y:.9g},{z:.9g},{label}"
                                   for x, y, z, label in rows]
    else:
        centers, cells = figure2_cells(args.grid)
        label = [f"{c:.9g}" for c in centers.tolist()]  # each centre once
        lines = ["x,y,z"] + [f"{label[i]},{label[j]},{label[k]}"
                             for i, j, k in cells.tolist()]
    return _emit(args, "\n".join(lines) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sliceregular",
        description="Quaternionic polynomial evaluation, zero sets, and "
                    "twistor-geometry verification.")
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("figure", help="emit figure data as CSV")
    p.add_argument("name", help="fig1 or fig2")
    p.add_argument("--grid", type=int, default=60, help="fig2's cells along an axis")
    p.set_defaults(fn=cmd_figure)
    return parser


def _size_error(args) -> str | None:
    """Why a name is unknown or a count out of range, checked before
    anything is allocated; None when all are in range."""
    if args.command == "verify":
        if args.suite not in SUITES:
            return f"unknown suite {args.suite!r}; available: " + ", ".join(sorted(SUITES))
        least = SUITES[args.suite][1]
        if args.samples is not None and not least <= args.samples <= MAX_VERIFY_SAMPLES:
            return (f"--samples of {args.suite} must be from {least} to "
                    f"{MAX_VERIFY_SAMPLES}, got {args.samples}")
        if args.seed < 0:  # numpy's generators take no negative seed
            return f"--seed must be at least 0, got {args.seed}"
    if args.command == "figure":
        if args.name not in ("fig1", "fig2"):
            return f"unknown figure {args.name!r}"
        if not 1 <= args.grid <= MAX_GRID:
            return f"--grid must be from 1 to {MAX_GRID}, got {args.grid}"
    return None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        problem = _size_error(args)
        if problem is not None:
            raise UsageError(problem)
        return args.fn(args)
    except tuple(_ERRORS) as exc:
        prefix, code = next(_ERRORS[t] for t in type(exc).__mro__ if t in _ERRORS)
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
