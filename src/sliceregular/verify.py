"""Named verification suites exercising the library's structural identities.

Each suite draws deterministic samples from a seeded generator, checks
one family of identities at documented tolerances, and reports pass or
fail with a residual summary.  The CLI exposes them by name.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .differential import differential_at, is_singular, rank_classify
from .errors import PoleDetected
from .parabola import (F_PAR, FiberKind, SurfaceClass, discriminant_D, f_par,
                       fiber_intersections, fiber_polynomial, grad_K, in_solid,
                       j_minus, j_plus, on_parabola, on_paraboloid, preimages,
                       quartic_K, singular_locus_class)
from .ocs import OCSValue
from .quat_core import (I as QI, J, K, ONE, ChartPoint, Quaternion, imag_unit,
                        phi, sphere_of)
from .regular_fn import (RegularSeries, _terms, divide_linear, eval_series,
                         star_mul, zeros, zeros_many)
from .twistor import (CurveSample, KleinPoint, ProjectivePoint3, _curve_columns,
                      lift, reconstruct_many, sigma, twistor_project,
                      twistor_transform)


@dataclass
class SuiteResult:
    """The checks of one suite run: how many, the labels of the first 20
    that failed, and the largest residual that a check gated."""
    name: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)
    max_residual: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, ok: bool, label: str) -> None:
        """A check with no residual."""
        self.checks += 1
        if not ok and len(self.failures) < 20:
            self.failures.append(label)

    def within(self, residual: float, tol: float, label: str) -> None:
        """A check that passes iff residual <= tol; the residual counts
        towards max_residual, and a failure's label carries it and tol."""
        self.max_residual = max(self.max_residual, residual)
        ok = residual <= tol
        self.check(ok, label if ok else f"{label}: residual {residual:.3e} > tol {tol:.3e}")

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = (f"{status} {self.name}: {self.checks} checks, "
                f"max residual {self.max_residual:.3e}")
        if self.failures:
            line += "; first failures: " + "; ".join(self.failures[:5])
        return line


SUITES: dict[str, tuple[Callable[..., None], int]] = {}


def _suite(name: str, least: int = 1):
    """Register a suite under its name with the fewest samples at which its
    checks mean anything; run_suite passes it the result."""
    def register(fn):
        SUITES[name] = fn, least
        return fn
    return register


def random_quaternion(rng, scale: float = 1.0) -> Quaternion:
    return Quaternion(*(scale * rng.uniform(-1.0, 1.0, 4)).tolist())


def random_nonreal(rng, scale: float = 1.0) -> Quaternion:
    """A quaternion at a safe distance from the real axis."""
    while True:
        q = random_quaternion(rng, scale)
        if q.im_norm() > 0.3:
            return q


def random_polynomial(rng, max_degree: int = 6, min_degree: int = 1
                      ) -> RegularSeries:
    deg = int(rng.integers(min_degree, max_degree + 1))
    t = rng.uniform(-1.0, 1.0, 4 * (deg + 1)).tolist()
    coeffs = [Quaternion(*t[k:k + 4]) for k in range(0, len(t), 4)]
    while abs(coeffs[-1]) <= 1e-3:
        coeffs[-1] = random_quaternion(rng)
    return RegularSeries(tuple(coeffs))


def _random_complex(rng, lo: float, hi: float, count: int) -> np.ndarray:
    """count numbers with real and imaginary parts uniform in [lo, hi),
    drawn as count calls of complex(rng.uniform(lo, hi), rng.uniform(lo, hi))
    would draw them."""
    return rng.uniform(lo, hi, 2 * count).view(complex)


_CHART_LO = np.array([-2.0, -2.0, -2.0, 0.1])
_CHART_SPAN = np.array([2.0, 2.0, 2.0, 2.0]) - _CHART_LO


def _random_charts(rng, count: int) -> tuple[np.ndarray, np.ndarray]:
    """count chart points (u, v): u in [-2, 2]^2 and v in [-2, 2] x [0.1, 2],
    drawn in the order u.real, u.imag, v.real, v.imag of each point.  These
    are the floats of rng.uniform(lo, hi, (count, 4)), lo + (hi - lo) r,
    without its broadcasting of list bounds."""
    uv = (_CHART_LO + _CHART_SPAN * rng.random((count, 4))).view(complex)
    return uv[:, 0], uv[:, 1]


@_suite("twistor-commute")
def suite_twistor_commute(res: SuiteResult, rng, samples: int = 1000) -> None:
    """Projecting the lift agrees with mapping the chart point."""
    # 500 at a time, each batch lifted in one stacked call
    for start in range(0, samples, 500):
        fs, us, vs = [], [], []
        for _ in range(min(500, samples - start)):
            fs.append(random_polynomial(rng))
            u, v = _random_charts(rng, 1)
            us.append(u)
            vs.append(v)
        us, vs = np.concatenate(us), np.concatenate(vs)
        lifts = lift(fs, us, vs).rows()
        for n, f, u, v, Z in zip(range(start, samples), fs, us.tolist(), vs.tolist(), lifts):
            fq = eval_series(f, phi(ChartPoint(u, v)))
            gap = abs(twistor_project(Z).affine_point() - fq)
            res.within(gap / (1.0 + abs(fq)), 1e-9, f"sample {n}")


@_suite("quartic-membership")
def suite_quartic_membership(res: SuiteResult, rng, samples: int = 1000) -> None:
    """Lifts of q^2 + qi land on the quartic scroll."""
    spot = ProjectivePoint3.of(1.0, 1.0, 1 + 1j, 1 - 1j)
    res.within(abs(quartic_K(spot)), 1e-12, "spot [1,1,1+i,1-i]")
    Z = lift(F_PAR, *_random_charts(rng, samples))
    rels = np.abs(quartic_K(Z)) / (1.0 + np.abs(Z.coords).sum(axis=-1) ** 4)
    for n, rel in enumerate(rels.tolist()):
        res.within(rel, 1e-9, f"K at sample {n}")


@_suite("klein-reality")
def suite_klein_reality(res: SuiteResult, rng, samples: int = 1000) -> None:
    """The transform satisfies the Klein relation and the reality condition."""
    random_polynomial(rng)  # sample 0 replaces it; drawn to keep the stream
    for start in range(0, samples, 100):
        f = random_polynomial(rng)
        vs = _random_complex(rng, -2.0, 2.0, min(100, samples - start))
        zeta = twistor_transform(f, vs)
        real = sigma(zeta).equals(twistor_transform(f, vs.conj()), 1e-10)
        # coordinates of largest modulus 1, so 1e-10 is relative to them
        for n, kf, ok in zip(range(start, samples),
                             np.abs(zeta.klein_form()).tolist(), real.tolist()):
            res.within(kf, 1e-10, f"Klein relation, sample {n}")
            res.check(ok, f"reality condition, sample {n}")


@_suite("transform-spot")
def suite_transform_spot(res: SuiteResult, rng, samples: int = 20) -> None:
    """Closed-form transform values for the identity and for q^2 + qi."""
    ident = RegularSeries.identity()
    for n in range(samples):
        v = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        expect_id = KleinPoint.of(v * v, 0.0, -v, v, 0.0, 1.0)
        res.check(twistor_transform(ident, v).equals(expect_id, 1e-10),
                  f"identity at v={v:.3f}")
        expect_par = KleinPoint.of(v ** 4 + v ** 2, 0.0, -v * v - 1j * v,
                                   v * v - 1j * v, 0.0, 1.0)
        res.check(twistor_transform(F_PAR, v).equals(expect_par, 1e-10),
                  f"parabola map at v={v:.3f}")


@_suite("transform-roundtrip")
def suite_transform_roundtrip(res: SuiteResult, rng, samples: int = 200) -> None:
    """Reconstruction from curve samples inverts the transform."""
    # 200 at a time: one transform per sample count, one reconstruct_many
    for start in range(0, samples, 200):
        fs, vs = [], []
        for _ in range(min(200, samples - start)):
            fs.append(random_polynomial(rng))
            vs.append(_random_complex(rng, -1.5, 1.5, 2 * fs[-1].degree + 6))
        curves = [None] * len(fs)
        for count in {len(v) for v in vs}:
            rows = [n for n, v in enumerate(vs) if len(v) == count]
            batch = np.array([vs[n] for n in rows])
            zetas = twistor_transform([fs[n] for n in rows], batch).rows()
            for n, zeta in zip(rows, zetas):
                curves[n] = [CurveSample(vs[n], zeta)]
        for n, f, pair in zip(range(start, samples), fs, reconstruct_many(curves)):
            gap = (f - pair.series).coefficient_scale()
            res.within(gap / (1.0 + f.coefficient_scale()), 1e-10, f"poly {n}: coeff gap")

    # rational curve: zeta = [1, 0, -(v-i), v+i, 0, v^2+1], i.e. g = 1/(v+i)
    def rational_sample(v: complex) -> CurveSample:
        return CurveSample(v, KleinPoint.of(1.0, 0.0, -(v - 1j), v + 1j,
                                            0.0, v * v + 1.0))

    vs = [complex(t, 0.3) for t in np.linspace(-1.0, 1.0, 9)]
    vs, cols = _curve_columns([rational_sample(v) for v in vs])
    for v, g, h in zip(vs.tolist(), cols[:, 0].tolist(), cols[:, 1].tolist()):
        res.check(abs(g - 1.0 / (v + 1j)) <= 1e-10, f"rational g at v={v}")
        res.check(abs(h) <= 1e-12, f"rational h at v={v}")
    for bad in (1j, -1j):
        try:
            _curve_columns([rational_sample(bad)])
            res.check(False, f"no pole flagged at v={bad}")
        except PoleDetected:
            res.check(True, "pole flagged")


@_suite("gradient")
def suite_gradient(res: SuiteResult, rng, samples: int = 200) -> None:
    """The differential matrix matches central finite differences."""
    h = 1e-5
    for n in range(samples):
        f = random_polynomial(rng)
        q0 = random_nonreal(rng, 1.5)
        m = differential_at(f, q0).matrix
        fd = np.zeros((4, 4))
        for col, e in enumerate((ONE, QI, J, K)):
            d = (eval_series(f, q0 + h * e) - eval_series(f, q0 - h * e)) / (2 * h)
            fd[:, col] = d
        res.within(float(np.max(np.abs(m - fd))) / (1.0 + float(np.max(np.abs(m)))),
                   1e-6, f"sample {n}")


def _engineered_singular(rng) -> tuple[RegularSeries, Quaternion]:
    """A polynomial with total multiplicity >= 2 at the sphere of q0."""
    q0 = random_nonreal(rng, 1.2)
    x, y = q0.re(), q0.im_norm()
    kind = int(rng.integers(0, 2))
    if kind == 0:
        # spherical factor: A1 = 0, rank 0 or 2 at q0
        quad = RegularSeries.polynomial(Quaternion(x * x + y * y),
                                        Quaternion(-2.0 * x), Quaternion(1.0))
        f = star_mul(quad, random_polynomial(rng, 3, 0))
    else:
        # two linear factors on the same sphere: isolated multiplicity 2
        unit = imag_unit(random_nonreal(rng))
        other = Quaternion(x) + y * unit
        f = star_mul(RegularSeries.linear(q0), RegularSeries.linear(other))
        f = star_mul(f, random_polynomial(rng, 2, 0))
    return f, q0


@_suite("rank-equivalence")
def suite_rank_equivalence(res: SuiteResult, rng, samples: int = 500) -> None:
    """Expansion-based rank and numerical Jacobian rank agree, and where
    the differential is singular the certificate's witness is the
    factorization's: on the sphere of q0, a zero of the quotient of
    f - f(q0) by (q - q0), within 1e-9 of the terms that cancel in it."""
    for n in range(samples):
        if n % 4 == 0:
            f, q0 = _engineered_singular(rng)
        else:
            f, q0 = random_polynomial(rng), random_nonreal(rng, 1.5)
        rc = rank_classify(f, q0)
        jac = differential_at(f, q0).rank()
        cert = is_singular(f, q0)
        res.check(rc.rank.value == jac,
                  f"sample {n}: classified {rc.rank.value} vs jacobian {jac}")
        if not cert.singular:
            res.check(cert.witness is None, f"sample {n}: witness at a regular point")
            continue
        g, _ = divide_linear(f, q0)
        rel = (abs(eval_series(g, cert.witness)) / _terms(f.coeffs, abs(q0), 1)
               if sphere_of(q0).contains(cert.witness) else math.inf)
        res.within(rel, 1e-9, f"sample {n}: quotient residual at witness "
                   f"{cert.witness} (inf off the sphere)")


@_suite("zeros-multiplicity")
def suite_zeros_multiplicity(res: SuiteResult, rng, samples: int = 500) -> None:
    """zeros() accounts for the full degree of random split polynomials,
    and reproduces the three canonical quadratic cases."""
    # 500 at a time: one batch at the acceptance count, bounded memory above it
    for start in range(0, samples, 500):
        fs = []
        for _ in range(min(500, samples - start)):
            f = RegularSeries.constant(Quaternion(1.0))
            for _ in range(int(rng.integers(1, 7))):
                f = star_mul(f, RegularSeries.linear(random_quaternion(rng, 1.5)))
            fs.append(f)  # monic, so of the drawn degree
        for n, (f, zs) in enumerate(zip(fs, zeros_many(fs)), start):
            res.check(zs.total_multiplicity == f.degree,
                      f"sample {n}: degree {f.degree} vs multiplicity "
                      f"{zs.total_multiplicity}")

    alpha = QI
    # distinct spheres: second root (alpha - beta-bar) beta (alpha - beta-bar)^-1
    beta = Quaternion(1.0, 0.0, 1.0)
    f = star_mul(RegularSeries.linear(alpha), RegularSeries.linear(beta))
    zs = zeros(f)
    second = Quaternion(1.0, 2.0 / 3.0, 1.0 / 3.0, -2.0 / 3.0)
    ok = (len(zs.points) == 2 and not zs.spheres
          and any(abs(p - alpha) <= 1e-8 for p, _ in zs.points)
          and any(abs(p - second) <= 1e-8 for p, _ in zs.points))
    res.check(ok, "distinct-sphere quadratic")
    # same sphere, beta != alpha-bar: double isolated zero at alpha
    f = star_mul(RegularSeries.linear(alpha),
                 RegularSeries.linear(Quaternion(0, 0, 1)))
    zs = zeros(f)
    ok = (len(zs.points) == 1 and not zs.spheres
          and abs(zs.points[0][0] - alpha) <= 1e-7 and zs.points[0][1] == 2)
    res.check(ok, "same-sphere quadratic")
    # beta = alpha-bar: the whole sphere with multiplicity 2
    f = star_mul(RegularSeries.linear(alpha), RegularSeries.linear(-alpha))
    zs = zeros(f)
    ok = (len(zs.spheres) == 1 and not zs.points
          and abs(zs.spheres[0][0].x) <= 1e-9
          and abs(zs.spheres[0][0].y - 1.0) <= 1e-9
          and zs.spheres[0][1] == 2)
    res.check(ok, "spherical quadratic")


def _gamma_point(t: float) -> Quaternion:
    return Quaternion(t * t, t)


def _paraboloid_point(r: float, a: float) -> Quaternion:
    return Quaternion(0.25 - r * r, 0.0, r * math.cos(a), r * math.sin(a))


@_suite("double-cover")
def suite_double_cover(res: SuiteResult, rng, samples: int = 1000) -> None:
    """The map q -> q^2 + qi is two-to-one off its branch locus."""
    for n in range(samples):
        c = random_quaternion(rng, 2.0)
        if on_parabola(c) or on_paraboloid(c):
            continue
        pts = preimages(c)
        res.check(len(pts) == 2, f"sample {n}: {len(pts)} preimages")
        for p in pts:
            res.within(abs(f_par(p) - c) / (1.0 + abs(c)), 1e-9, f"sample {n}: image gap")
    for n in range(50):
        c = _paraboloid_point(rng.uniform(0.05, 1.2), rng.uniform(0, 2 * math.pi))
        pts = preimages(c)
        res.check(len(pts) == 1, f"branch sample {n}: {len(pts)} preimages")


@_suite("jjjj")
def suite_jjjj(res: SuiteResult, rng, samples: int = 100) -> None:
    """Spot values and distinctness of the four extended structures."""
    minus_i = OCSValue(-QI)
    plus_i = OCSValue(QI)
    c1 = Quaternion(1.0)
    res.check(j_plus(c1).close_to(minus_i), "J+(1) = -i")
    res.check(j_minus(c1).close_to(minus_i), "J-(1) = -i")
    c2 = Quaternion(0.0, 2.0)
    res.check(j_plus(c2).close_to(plus_i), "J+(2i) = i")
    res.check(j_minus(c2).close_to(minus_i), "J-(2i) = -i")
    for n in range(50):
        c = _paraboloid_point(rng.uniform(0.05, 1.2), rng.uniform(0, 2 * math.pi))
        res.check(j_plus(c).close_to(j_minus(c)), f"branch agreement {n}")
    found = 0
    while found < samples:
        c = random_quaternion(rng, 2.0)
        if abs(c.y) < 0.1 and abs(c.z) < 0.1:
            continue
        if on_parabola(c) or in_solid(c):
            continue
        found += 1
        units = [j_plus(c).unit, j_minus(c).unit]
        units += [-u for u in units]
        distinct = all(abs(units[a] - units[b]) > 1e-6
                       for a in range(4) for b in range(a + 1, 4))
        res.check(distinct, f"distinctness at sample {found}")


def sylvester_resultant_quartic(coeffs: np.ndarray) -> float | np.ndarray:
    """Resultant of a real quartic and its derivative via the 7x7 Sylvester
    matrix; for a monic quartic this equals the discriminant.  coeffs is
    one ascending coefficient vector or a stack of them, (..., 5), and the
    answer a float or an array of the stack's shape, from one det call."""
    desc = np.asarray(coeffs, dtype=float)[..., ::-1]
    ddesc = desc[..., :-1] * np.arange(4, 0, -1)  # np.polyder's floats
    m = np.zeros(desc.shape[:-1] + (7, 7))
    for r in range(3):
        m[..., r, r:r + 5] = desc
    for r in range(4):
        m[..., 3 + r, r:r + 4] = ddesc
    det = np.linalg.det(m)
    return float(det) if det.ndim == 0 else det


@_suite("discriminant-resultant")
def suite_discriminant_resultant(res: SuiteResult, rng, samples: int = 1000) -> None:
    """The closed-form sextic is one sixteenth of the fibre discriminant."""
    # the doubles of `samples` calls of random_quaternion(rng, 2.0)
    cs = [Quaternion(*c) for c in (2.0 * rng.uniform(-1.0, 1.0, (samples, 4))).tolist()]
    resultants = sylvester_resultant_quartic([fiber_polynomial(c) for c in cs])
    for n, (c, resultant) in enumerate(zip(cs, resultants.tolist())):
        d16 = 16.0 * discriminant_D(c)
        res.within(abs(resultant - d16) / (1.0 + abs(resultant) + abs(d16)), 1e-8,
                   f"sample {n}: rel gap")
    for n in range(100):
        c = _paraboloid_point(rng.uniform(0.0, 1.2), rng.uniform(0, 2 * math.pi))
        res.within(abs(discriminant_D(c)) / (1.0 + c.norm_sq()) ** 3, 1e-9, f"branch sample {n}")
    poly = fiber_polynomial(Quaternion(0.0, 0.0, 0.5, 0.0))
    res.check(bool(np.allclose(poly, [0.25, 0.0, 1.0, 0.0, 1.0])),
              "R(v) = (v^2 + 1/2)^2 at c = j/2")


@_suite("fiber-classification")
def suite_fiber_classification(res: SuiteResult, rng, samples: int = 20) -> None:
    """The fibre/scroll trichotomy on labeled samples."""
    for n in range(samples):
        t = rng.uniform(-1.5, 1.5)
        fc = fiber_intersections(_gamma_point(t))
        res.check(fc.kind == FiberKind.ON_PARABOLA, f"gamma sample {n}")
    for n in range(samples):
        w1 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        c = Quaternion.from_complex(w1)
        if on_parabola(c) or abs(w1 - 0.25) < 1e-6:
            continue
        fc = fiber_intersections(c)
        res.check(fc.kind == FiberKind.ON_PLANE_LI, f"plane sample {n}")
    for n in range(samples):
        c = _paraboloid_point(rng.uniform(0.05, 1.2), rng.uniform(0, 2 * math.pi))
        fc = fiber_intersections(c)
        res.check(fc.kind == FiberKind.ON_PARABOLOID, f"paraboloid sample {n}")
        rts = fc.ruling_parameters
        paired = any(abs(rts[a] - rts[b]) <= 1e-4 * (1.0 + abs(rts[a]))
                     for a in range(4) for b in range(a + 1, 4))
        res.check(paired, f"tangency (double root) sample {n}")
    for n in range(samples):
        c = random_quaternion(rng, 2.0)
        if abs(c.x) < 0.1 or (abs(c.y) < 0.1 and abs(c.z) < 0.1):
            continue
        fc = fiber_intersections(c)
        res.check(fc.kind == FiberKind.GENERIC_FOUR, f"generic sample {n}")
        rts = fc.ruling_parameters
        distinct = all(abs(rts[a] - rts[b]) > 1e-5 * (1.0 + abs(rts[a]))
                       for a in range(4) for b in range(a + 1, 4))
        res.check(distinct, f"generic sample {n}: roots not distinct")
    fc = fiber_intersections(Quaternion(0.25))
    res.check(fc.kind == FiberKind.AT_FOCUS, "focus")


def monomial_rows(z: np.ndarray, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """The exponents of the monomials of that degree in z's coordinates,
    one row each in lexicographic order, and their values at each point:
    rows[n, m] = prod_k z[n, k] ** exponents[m, k]."""
    exponents = np.array([e for e in itertools.product(range(degree + 1), repeat=z.shape[-1])
                          if sum(e) == degree])
    return exponents, np.prod(z[:, None, :] ** exponents, axis=-1)


def fibre_chart_points(ts: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Points [1, lam, w1, conj(w1) lam] of the fibre over each w1 = t^2 + it
    of the parabola, then its point at infinity [0, 1, 0, conj(w1)], one
    row each, scaled by the row's largest modulus."""
    w1 = ts * ts + 1j * ts
    z = np.zeros((len(ts), len(lams) + 1, 4), dtype=complex)
    z[:, :-1, 0] = z[:, -1, 1] = 1.0
    z[:, :-1, 1] = lams
    z[:, :-1, 2] = w1[:, None]
    z[:, :-1, 3] = np.conj(w1)[:, None] * lams
    z[:, -1, 3] = np.conj(w1)
    z = z.reshape(-1, 4)
    return z / np.abs(z).max(axis=1, keepdims=True)


# K = (Z1 Z2 - Z0 Z3)^2 + 2 Z0 Z1 (Z1 Z2 + Z0 Z3) expanded on monomials
_K_EXPANDED = {
    (0, 2, 2, 0): 1.0, (1, 1, 1, 1): -2.0, (2, 0, 0, 2): 1.0,
    (1, 2, 1, 0): 2.0, (2, 1, 0, 1): 2.0,
}


@_suite("nullstellensatz", least=9)
def suite_nullstellensatz(res: SuiteResult, rng, samples: int = 40) -> None:
    """Quartics vanishing on fibres over the parabola are multiples of K.
    Below 9 fibres the monomial matrix cannot have nullity 1."""
    lams = np.array([0.0, 1.0, -1.0, 1j, 0.5 - 0.5j, 2.0 + 1j])
    exponents, mat = monomial_rows(
        fibre_chart_points(np.linspace(-2.0, 2.0, samples), lams), 4)
    _, sv, vh = np.linalg.svd(mat, full_matrices=False)
    res.within(sv[-1] / sv[0], 1e-8, "rank deficiency (s_min / s_max)")
    res.check(sv[-2] > 1e-6 * sv[0], f"deficiency exactly 1 (s_34 {sv[-2]:.2e})")
    null = vh[-1]
    k_vec = np.array([_K_EXPANDED.get(tuple(e), 0.0) for e in exponents.tolist()], complex)
    k_vec = k_vec / np.linalg.norm(k_vec)
    proj = null - (np.vdot(k_vec, null)) * k_vec
    res.within(float(np.linalg.norm(proj)), 1e-6, "null vector spans K (off-K part)")


@_suite("singular-locus")
def suite_singular_locus(res: SuiteResult, rng, samples: int = 100) -> None:
    """The gradient of K vanishes exactly on the three double lines."""
    for n in range(samples):
        t = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        pts = [ProjectivePoint3.of(0.0, 0.0, 1.0, t),   # m01
               ProjectivePoint3.of(0.0, 1.0, 0.0, t),   # m02
               ProjectivePoint3.of(1.0, 0.0, t, 0.0)]   # m13
        for Z in pts:
            res.within(float(np.max(np.abs(grad_K(Z)))), 1e-10, f"double line, sample {n}")
    grads = np.abs(grad_K(lift(F_PAR, *_random_charts(rng, samples)))).max(axis=-1)
    for n, g in enumerate(grads.tolist()):
        res.check(g > 1e-6, f"smooth point {n}: gradient {g:.2e}")
    res.check(singular_locus_class(ProjectivePoint3.of(0, 1, 0, 0.25))
              == SurfaceClass.CUSP, "cusp at [0,1,0,1/4]")
    res.check(singular_locus_class(ProjectivePoint3.of(1, 0, 0.25, 0))
              == SurfaceClass.CUSP, "cusp at [1,0,1/4,0]")



def run_suite(name: str, seed: int = 0, samples: int | None = None) -> SuiteResult:
    """Run the suite of that name; fewer samples than it takes are a ValueError."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    suite, least = SUITES[name]
    if samples is not None and samples < least:
        raise ValueError(f"suite {name} takes at least {least} samples, got {samples}")
    res = SuiteResult(name)
    rng = np.random.default_rng(seed)
    if samples is None:
        suite(res, rng)
    else:
        suite(res, rng, samples)
    return res
