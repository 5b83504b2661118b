"""What one request of each workload does, and how its answer is checked.

`serve` functions are the timed part: they call only the library's
public functions, each inside a span named layer.function.  `check`
functions run outside the timed part and compare the answer with the
numpy reference in reference.py.  A check returns None for a correct
answer, one of KNOWN for the zero finder's known defect (ROADMAP item
1: reported multiplicities that do not sum to the degree, on the
polynomials where that is known to happen), or the reason the answer
is wrong.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

import numpy as np

import reference as ref
from sliceregular import (DomainError, RealArgument, RegularSeries,
                          SingularPoint, discriminant_D, fiber_intersections,
                          induced_ocs, j_minus, j_plus, lift, parse_polynomial,
                          phi_inverse, preimages, quartic_K, rank_classify,
                          twistor_project, zeros)
from sliceregular import cli
from sliceregular.parabola import F_PAR, ParabolaPoint
from sliceregular.verify import run_suite

# The multiplicity total is known to come out wrong where f^s has a
# repeated root, and at high degree: at this library version, 11 seeds
# of 1000 polynomials gave 27 wrong totals on polynomials whose f^s has
# simple roots, all of degree 13-16, where np.roots and the long
# synthetic divisions lose the accuracy the division tolerance assumes.
# MISCOUNT_DEGREE leaves a margin below 13.  On a polynomial of lower
# degree whose f^s has simple roots, a wrong total is unexpected.
MISCOUNT_DEGREE = 9
REPEATED_ROOT = "multiplicity total != degree, f^s has a repeated root"
HIGH_DEGREE = f"multiplicity total != degree, simple roots, degree >= {MISCOUNT_DEGREE}"
LOW_DEGREE = f"multiplicity total != degree, simple roots, degree < {MISCOUNT_DEGREE}"
KNOWN = (REPEATED_ROOT, HIGH_DEGREE)  # the known defect; `correct` forgives it
SHORT = KNOWN + (LOW_DEGREE,)         # answers counted in short_ratio

# sha256 of the CSV bytes; the README promises byte-identical figure output.
FIGURE_SHA256 = {
    "fig1": "5db31b89db915415ee3c1dc85815aa4e555b4e809d454c3ab340c6a897cb11ff",
    "fig2": "ec6a53230eb062ad545378bc60f55e69dd2051f2834d1129cf20cf133cf09255",
}

POINT_RESIDUAL = 1e-6     # |f(p)| relative to the terms that cancel
SPHERE_REMAINDER = 1e-6   # remainder of f by the sphere's real quadratic
# Both, for the entries of an answer with the known defect: np.roots
# spreads a root of multiplicity m of f^s by about eps^(1/m), and zeros()
# may report the spread-out copies.  On the 11000 polynomials above the
# worst was 3.8e-5 for a point and 6.9e-7 for a sphere; an entry 1e-3
# away from every zero is not such a copy.
SPREAD_RESIDUAL = 1e-3
MAP_RESIDUAL = 1e-9       # |p^2 + pi - c| relative to 1 + |c|
GEOMETRY_TOL = 1e-8       # agreement of units, chart points and projections


# ---------------------------------------------------------------------------
# paper


def serve_paper(req: dict, tr):
    if "suite" in req:
        with tr.span("verify.run_suite." + req["suite"]):
            result = run_suite(req["suite"], seed=req["seed"],
                               samples=req["samples"])
        return result
    buf = io.StringIO()
    with tr.span("cli.main.figure-" + req["figure"]), \
            contextlib.redirect_stdout(buf):
        code = cli.main(req["argv"])
    return code, buf.getvalue()


def check_paper(item: dict, out) -> str | None:
    req = item["request"]
    if "suite" in req:
        return None if out.passed else out.summary()
    code, text = out
    if code != 0:
        return f"figure {req['figure']} exited {code}"
    if hashlib.sha256(text.encode()).hexdigest() != FIGURE_SHA256[req["figure"]]:
        return f"figure {req['figure']} CSV bytes differ from the fixed digest"
    return None


# ---------------------------------------------------------------------------
# zeros-stream


def serve_zeros(req: dict, tr):
    if req["format"] == "json":
        data = json.loads(req["text"])
        with tr.span("regular_fn.from_json"):
            f = RegularSeries.from_json(data)
    else:
        with tr.span("parsing.parse_polynomial"):
            f = parse_polynomial(req["text"])
    with tr.span("regular_fn.zeros", degree=req["degree"]):
        zs = zeros(f)
    return f, zs.to_json()


def check_zeros(item: dict, out) -> str | None:
    f, answer = out
    want = np.array(item["coeffs"])
    got = np.array([c.to_json() for c in f.coeffs])
    scale = float(np.max(np.abs(want)))
    if got.shape != want.shape or np.max(np.abs(got - want)) > 1e-9 * scale:
        return "loaded coefficients differ from the request"
    degree = item["request"]["degree"]
    total = sum(e["multiplicity"] for e in answer["points"] + answer["spheres"])
    short = None
    if total != degree:
        short = REPEATED_ROOT if item["repeated_root"] else \
            HIGH_DEGREE if degree >= MISCOUNT_DEGREE else LOW_DEGREE
    spread = short in KNOWN
    for entry in answer["points"]:
        residual = ref.relative_residual(want, np.array(entry["point"]))
        if residual > (SPREAD_RESIDUAL if spread else POINT_RESIDUAL):
            return "a reported point is not a zero"
    for entry in answer["spheres"]:
        remainder = ref.quadratic_remainder(want, entry["x"], entry["y"])
        if remainder > (SPREAD_RESIDUAL if spread else SPHERE_REMAINDER):
            return "a reported sphere's quadratic does not divide f"
    return short


# ---------------------------------------------------------------------------
# geometry-stream


def serve_geometry(req: dict, tr):
    c = ParabolaPoint(*req["c"])
    out = {}
    with tr.span("parabola.fiber_intersections"):
        out["fiber"] = fiber_intersections(c)
    with tr.span("parabola.discriminant_D"):
        out["D"] = discriminant_D(c)
    try:
        with tr.span("parabola.j_plus"):
            out["j_plus"] = j_plus(c)
        with tr.span("parabola.j_minus"):
            out["j_minus"] = j_minus(c)
    except DomainError as exc:
        out["j_plus"] = out["j_minus"] = exc
    with tr.span("parabola.preimages"):
        pts = preimages(c)
    out["preimages"] = rows = []
    for p in pts:
        row = {"p": p}
        rows.append(row)
        with tr.span("differential.rank_classify"):
            row["rank"] = rank_classify(F_PAR, p)
        try:
            with tr.span("ocs.induced_ocs"):
                row["ocs"] = induced_ocs(F_PAR, p)
        except (RealArgument, SingularPoint) as exc:
            row["ocs"] = exc
        try:
            with tr.span("quat_core.phi_inverse"):
                chart = phi_inverse(p)
        except RealArgument as exc:
            row["chart"] = exc
            continue
        row["chart"] = chart
        with tr.span("twistor.lift"):
            row["Z"] = lift(F_PAR, chart.u, chart.v)
        with tr.span("twistor.twistor_project"):
            row["proj"] = twistor_project(row["Z"])
        with tr.span("parabola.quartic_K"):
            row["K"] = quartic_K(row["Z"])
    return out


_EXPECTED_KIND = {"generic": "GenericFour", "plane": "OnPlaneLi",
                  "paraboloid": "OnParaboloid", "parabola": "OnParabola",
                  "focus": "AtFocus"}


def _q(x) -> np.ndarray:
    return np.array(x.to_json())


def _close(a: np.ndarray, b: np.ndarray, tol: float = GEOMETRY_TOL) -> bool:
    return ref.norm(a - b) <= tol * (1.0 + ref.norm(a) + ref.norm(b))


def _undefined_structures(c: np.ndarray) -> bool:
    """J+ and J- are undefined on the parabola and inside the solid paraboloid."""
    s = 1e-9 * (1.0 + float(c @ c))
    on_parabola = abs(c[2]) <= s and abs(c[3]) <= s and abs(c[0] - c[1] ** 2) <= s
    inside = abs(c[1]) <= s and c[0] < 0.25 - c[2] ** 2 - c[3] ** 2 - s
    return on_parabola or inside


def _check_preimage(row: dict, c: np.ndarray) -> str | None:
    p = _q(row["p"])
    if ref.norm(ref.f_par(p) - c) > MAP_RESIDUAL * (1.0 + ref.norm(c)):
        return "a preimage does not map to c"
    real = ref.norm(p[1:]) <= 1e-10 * max(1.0, ref.norm(p))
    singular = abs(p[0]) <= GEOMETRY_TOL and abs(p[1] + 0.5) <= GEOMETRY_TOL
    rank = row["rank"].rank.value
    if rank != (2 if singular else 4):
        return f"rank {rank} at a {'singular' if singular else 'regular'} point"
    ocs = row["ocs"]
    expected = RealArgument if real else SingularPoint if singular else None
    if expected is not None or isinstance(ocs, Exception):
        if type(ocs) is not expected:
            return f"induced_ocs gave {type(ocs).__name__}, expected {expected}"
    else:
        value, structure = ocs
        if not _close(_q(value), c) or not _close(_q(structure.unit), ref.imag_unit(p)):
            return "induced structure is not I_p at f(p)"
    chart = row["chart"]
    if real or isinstance(chart, Exception):
        return None if real and isinstance(chart, RealArgument) \
            else "phi_inverse raised off the real axis"
    if chart.u is None:
        if not _close(ref.imag_unit(p), -ref.I):
            return "u = infinity away from I_p = -i"
    elif not _close(ref.chart_point(chart.u, chart.v), p):
        return "chart point does not map back to p"
    z = row["Z"].coords
    if abs(ref.quartic_k(z)) > 1e-9 * (1.0 + np.sum(np.abs(z)) ** 4):
        return "lift is off the quartic scroll"
    if abs(row["K"] - ref.quartic_k(z)) > 1e-9 * (1.0 + np.sum(np.abs(z)) ** 4):
        return "quartic_K disagrees with the reference"
    proj = row["proj"]
    if not (_close(_q(proj.q1), ref.from_complex_pair(z[0], z[1]))
            and _close(_q(proj.q2), ref.from_complex_pair(z[2], z[3]))):
        return "twistor_project disagrees with the reference"
    if not _close(ref.twistor_affine(z), c):
        return "lift does not project to f(p) = c"
    return None


def check_geometry(item: dict, out) -> str | None:
    c = np.array(item["request"]["c"])
    family = item["family"]
    fiber = out["fiber"]
    if fiber.kind.value != _EXPECTED_KIND[family]:
        return f"fibre class {fiber.kind.value} for a {family} target"
    x0, x1 = c[0], c[1]
    for v in fiber.ruling_parameters:
        r = v ** 4 + (1 - 2 * x0) * v ** 2 - 2 * x1 * v + float(c @ c)
        if abs(r) > 1e-8 * (1.0 + abs(v) ** 4 + float(c @ c)):
            return "a ruling parameter is not a root of R(v)"
    d16 = 16.0 * out["D"]
    disc = ref.quartic_discriminant(c)
    if abs(d16 - disc) > 1e-6 * (1.0 + abs(disc) + abs(d16)):
        return "16 D differs from the fibre quartic's discriminant"
    pts = out["preimages"]
    branch = family in ("paraboloid", "focus")
    if len(pts) != (1 if branch else 2):
        return f"{len(pts)} preimages for a {family} target"
    for row in pts:
        reason = _check_preimage(row, c)
        if reason:
            return reason
    jp, jm = out["j_plus"], out["j_minus"]
    if _undefined_structures(c):
        return None if isinstance(jp, DomainError) \
            else "J+ defined where the paper leaves it undefined"
    if isinstance(jp, Exception):
        return f"J+ raised {type(jp).__name__}"
    ps = sorted((_q(row["p"]) for row in pts), key=lambda p: -p[0])
    units = [ref.imag_unit(p) for p in ps]
    if not (_close(_q(jp.unit), units[0]) and _close(_q(jm.unit), units[-1])):
        return "J+/J- are not the units of the right/left preimages"
    return None


SERVE = {"paper": serve_paper, "zeros-stream": serve_zeros,
         "geometry-stream": serve_geometry}
CHECK = {"paper": check_paper, "zeros-stream": check_zeros,
         "geometry-stream": check_geometry}
