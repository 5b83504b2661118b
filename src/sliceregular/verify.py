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

from .differential import Rank, differential_at, is_singular, rank_classify
from .errors import PoleDetected
from .parabola import (F_PAR, FiberKind, SurfaceClass, discriminant_D, f_par,
                       fiber_intersections, fiber_polynomial, grad_K, in_solid,
                       j_minus, j_plus, on_parabola, on_paraboloid, preimages,
                       quartic_K, singular_locus_class)
from .ocs import OCSValue
from .quat_core import (I as QI, J, K, ONE, ChartPoint, Quaternion, imag_unit,
                        phi)
from .regular_fn import RegularSeries, eval_series, star_mul, zeros
from .twistor import (CurveSample, KleinPoint, ProjectivePoint3, lift,
                      normalized_curve_values, reconstruct, sigma,
                      twistor_project, twistor_transform)


@dataclass
class SuiteResult:
    name: str
    passed: bool = True
    checks: int = 0
    failures: list[str] = field(default_factory=list)
    max_residual: float = 0.0

    def check(self, ok: bool, label: str, residual: float = 0.0):
        self.checks += 1
        self.max_residual = max(self.max_residual, residual)
        if not ok:
            self.passed = False
            if len(self.failures) < 20:
                self.failures.append(label)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = (f"{status} {self.name}: {self.checks} checks, "
                f"max residual {self.max_residual:.3e}")
        if self.failures:
            line += "; first failures: " + "; ".join(self.failures[:5])
        return line


SUITES: dict[str, Callable[..., None]] = {}


def _suite(name: str):
    """Register a suite under its name; run_suite passes it the result."""
    def register(fn):
        SUITES[name] = fn
        return fn
    return register


def random_quaternion(rng, scale: float = 1.0) -> Quaternion:
    return Quaternion(*(float(scale * t) for t in rng.uniform(-1.0, 1.0, 4)))


def random_nonreal(rng, scale: float = 1.0) -> Quaternion:
    """A quaternion at a safe distance from the real axis."""
    while True:
        q = random_quaternion(rng, scale)
        if q.im_norm() > 0.3:
            return q


def random_polynomial(rng, max_degree: int = 6, min_degree: int = 1
                      ) -> RegularSeries:
    deg = int(rng.integers(min_degree, max_degree + 1))
    coeffs = [random_quaternion(rng) for _ in range(deg + 1)]
    while coeffs[-1].is_zero(1e-3):
        coeffs[-1] = random_quaternion(rng)
    return RegularSeries(tuple(coeffs))


def _random_chart(rng) -> tuple[complex, complex]:
    u = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    v = complex(rng.uniform(-2, 2), rng.uniform(0.1, 2.0))
    return u, v


@_suite("twistor-commute")
def suite_twistor_commute(res: SuiteResult, rng, samples: int = 1000) -> None:
    """Projecting the lift agrees with mapping the chart point."""
    for n in range(samples):
        f = random_polynomial(rng)
        u, v = _random_chart(rng)
        q = phi(ChartPoint(u, v))
        fq = eval_series(f, q)
        proj = twistor_project(lift(f, u, v))
        gap = abs(proj.affine_point() - fq)
        rel = gap / (1.0 + abs(fq))
        res.check(rel <= 1e-9, f"sample {n}: residual {rel:.2e}", rel)


@_suite("quartic-membership")
def suite_quartic_membership(res: SuiteResult, rng, samples: int = 1000) -> None:
    """Lifts of q^2 + qi land on the quartic scroll."""
    spot = ProjectivePoint3.of(1.0, 1.0, 1 + 1j, 1 - 1j)
    res.check(abs(quartic_K(spot)) <= 1e-12, "spot [1,1,1+i,1-i]",
              abs(quartic_K(spot)))
    for n in range(samples):
        u, v = _random_chart(rng)
        Z = lift(F_PAR, u, v)
        val = quartic_K(Z)
        scale = 1.0 + sum(abs(Z[k]) for k in range(4)) ** 4
        rel = abs(val) / scale
        res.check(rel <= 1e-9, f"sample {n}: K residual {rel:.2e}", rel)


@_suite("klein-reality")
def suite_klein_reality(res: SuiteResult, rng, samples: int = 1000) -> None:
    """The transform satisfies the Klein relation and the reality condition."""
    f = random_polynomial(rng)
    for n in range(samples):
        if n % 100 == 0:
            f = random_polynomial(rng)
        v = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        zeta = twistor_transform(f, v)
        kf = abs(zeta.klein_form())
        res.check(zeta.on_klein_quadric(1e-10), f"Klein relation, sample {n}", kf)
        res.check(sigma(zeta).equals(twistor_transform(f, v.conjugate()), 1e-10),
                  f"reality condition, sample {n}")


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


def _transform_samples(f: RegularSeries, vs) -> list[CurveSample]:
    return [CurveSample(v, twistor_transform(f, v)) for v in vs]


@_suite("transform-roundtrip")
def suite_transform_roundtrip(res: SuiteResult, rng, samples: int = 200) -> None:
    """Reconstruction from curve samples inverts the transform."""
    for n in range(samples):
        f = random_polynomial(rng)
        vs = [complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
              for _ in range(2 * f.degree + 6)]
        pair = reconstruct(_transform_samples(f, vs))
        gap = (f - pair.series).coefficient_scale()
        scale = 1.0 + f.coefficient_scale()
        res.check(gap <= 1e-10 * scale, f"poly {n}: coeff gap {gap:.2e}",
                  gap / scale)

    # rational curve: zeta = [1, 0, -(v-i), v+i, 0, v^2+1], i.e. g = 1/(v+i)
    def rational_sample(v: complex) -> CurveSample:
        return CurveSample(v, KleinPoint.of(1.0, 0.0, -(v - 1j), v + 1j,
                                            0.0, v * v + 1.0))

    vs = [complex(t, 0.3) for t in np.linspace(-1.0, 1.0, 9)]
    values = normalized_curve_values([rational_sample(v) for v in vs])
    for v, g, h, _, _ in values:
        res.check(abs(g - 1.0 / (v + 1j)) <= 1e-10, f"rational g at v={v}")
        res.check(abs(h) <= 1e-12, f"rational h at v={v}")
    for bad in (1j, -1j):
        try:
            normalized_curve_values([rational_sample(bad)])
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
        scale = 1.0 + float(np.max(np.abs(m)))
        gap = float(np.max(np.abs(m - fd)))
        res.check(gap <= 1e-6 * scale, f"sample {n}: gap {gap:.2e}", gap / scale)


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
    """Expansion-based rank, numerical Jacobian rank and the multiplicity
    test tell one consistent story."""
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
        res.check(cert.singular == (rc.rank != Rank.RANK4),
                  f"sample {n}: singular={cert.singular} but rank {rc.rank.value}")


@_suite("zeros-multiplicity")
def suite_zeros_multiplicity(res: SuiteResult, rng, samples: int = 500) -> None:
    """zeros() accounts for the full degree of random split polynomials,
    and reproduces the three canonical quadratic cases."""
    for n in range(samples):
        deg = int(rng.integers(1, 7))
        f = RegularSeries.constant(Quaternion(1.0))
        for _ in range(deg):
            f = star_mul(f, RegularSeries.linear(random_quaternion(rng, 1.5)))
        zs = zeros(f)
        res.check(zs.total_multiplicity == deg,
                  f"sample {n}: degree {deg} vs multiplicity "
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
            gap = abs(f_par(p) - c)
            res.check(gap <= 1e-9 * (1.0 + abs(c)),
                      f"sample {n}: image gap {gap:.2e}", gap / (1.0 + abs(c)))
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


def sylvester_resultant_quartic(coeffs: np.ndarray) -> float:
    """Resultant of a real quartic and its derivative via the 7x7 Sylvester
    matrix; for a monic quartic this equals the discriminant."""
    desc = coeffs[::-1]
    ddesc = np.polyder(desc)
    m = np.zeros((7, 7))
    for r in range(3):
        m[r, r:r + 5] = desc
    for r in range(4):
        m[3 + r, r:r + 4] = ddesc
    return float(np.linalg.det(m))


@_suite("discriminant-resultant")
def suite_discriminant_resultant(res: SuiteResult, rng, samples: int = 1000) -> None:
    """The closed-form sextic is one sixteenth of the fibre discriminant."""
    for n in range(samples):
        c = random_quaternion(rng, 2.0)
        poly = fiber_polynomial(c)
        resultant = sylvester_resultant_quartic(poly)
        d16 = 16.0 * discriminant_D(c)
        gap = abs(resultant - d16)
        rel = gap / (1.0 + abs(resultant) + abs(d16))
        res.check(rel <= 1e-8, f"sample {n}: rel gap {rel:.2e}", rel)
    for n in range(100):
        c = _paraboloid_point(rng.uniform(0.0, 1.2), rng.uniform(0, 2 * math.pi))
        d = discriminant_D(c)
        scale = (1.0 + c.norm_sq()) ** 3
        res.check(abs(d) <= 1e-9 * scale, f"branch sample {n}: D = {d:.2e}",
                  abs(d) / scale)
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


def _quartic_monomials():
    return [e for e in itertools.product(range(5), repeat=4) if sum(e) == 4]


# K = (Z1 Z2 - Z0 Z3)^2 + 2 Z0 Z1 (Z1 Z2 + Z0 Z3) expanded on monomials
_K_EXPANDED = {
    (0, 2, 2, 0): 1.0, (1, 1, 1, 1): -2.0, (2, 0, 0, 2): 1.0,
    (1, 2, 1, 0): 2.0, (2, 1, 0, 1): 2.0,
}


@_suite("nullstellensatz")
def suite_nullstellensatz(res: SuiteResult, rng, samples: int = 40) -> None:
    """Quartics vanishing on fibres over the parabola are multiples of K."""
    monomials = _quartic_monomials()
    rows = []
    ts = np.linspace(-2.0, 2.0, samples)
    lams = [0.0, 1.0, -1.0, 1j, 0.5 - 0.5j, 2.0 + 1j]
    for t in ts:
        w1 = complex(t * t, t)
        for lam in lams:
            z = np.array([1.0, lam, w1, np.conj(w1) * lam], dtype=complex)
            z = z / np.max(np.abs(z))
            rows.append([np.prod(z ** np.array(e)) for e in monomials])
        # include the point at infinity of the fibre, [0, 1, 0, w1-bar]
        z = np.array([0.0, 1.0, 0.0, np.conj(w1)], dtype=complex)
        z = z / np.max(np.abs(z))
        rows.append([np.prod(z ** np.array(e)) for e in monomials])
    mat = np.array(rows)
    sv = np.linalg.svd(mat, compute_uv=False)
    res.check(sv[-1] <= 1e-8 * sv[0], f"rank deficiency (s_min {sv[-1]:.2e})",
              sv[-1] / sv[0])
    res.check(sv[-2] > 1e-6 * sv[0], f"deficiency exactly 1 (s_34 {sv[-2]:.2e})")
    _, _, vh = np.linalg.svd(mat)
    null = vh[-1]
    k_vec = np.array([_K_EXPANDED.get(e, 0.0) for e in monomials], dtype=complex)
    k_vec = k_vec / np.linalg.norm(k_vec)
    proj = null - (np.vdot(k_vec, null)) * k_vec
    res.check(float(np.linalg.norm(proj)) <= 1e-6,
              f"null vector spans K (off-K part {np.linalg.norm(proj):.2e})",
              float(np.linalg.norm(proj)))


@_suite("singular-locus")
def suite_singular_locus(res: SuiteResult, rng, samples: int = 100) -> None:
    """The gradient of K vanishes exactly on the three double lines."""
    for n in range(samples):
        t = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        pts = [ProjectivePoint3.of(0.0, 0.0, 1.0, t),   # m01
               ProjectivePoint3.of(0.0, 1.0, 0.0, t),   # m02
               ProjectivePoint3.of(1.0, 0.0, t, 0.0)]   # m13
        for Z in pts:
            g = float(np.max(np.abs(grad_K(Z))))
            res.check(g <= 1e-10, f"gradient on double line, sample {n}", g)
    for n in range(samples):
        u, v = _random_chart(rng)
        Z = lift(F_PAR, u, v)
        g = float(np.max(np.abs(grad_K(Z))))
        res.check(g > 1e-6, f"smooth point {n}: gradient {g:.2e}")
    res.check(singular_locus_class(ProjectivePoint3.of(0, 1, 0, 0.25))
              == SurfaceClass.CUSP, "cusp at [0,1,0,1/4]")
    res.check(singular_locus_class(ProjectivePoint3.of(1, 0, 0.25, 0))
              == SurfaceClass.CUSP, "cusp at [1,0,1/4,0]")



def run_suite(name: str, seed: int = 0, samples: int | None = None) -> SuiteResult:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    res = SuiteResult(name)
    rng = np.random.default_rng(seed)
    if samples is None:
        SUITES[name](res, rng)
    else:
        SUITES[name](res, rng, samples)
    return res
