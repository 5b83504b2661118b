"""Twistor projection, lifts and the Klein-quadric transform.

A regular f splits on the slice L_i as g + hj; the lift
[1, u, g(v) - u h^(v), h(v) + u g^(v)] covers f through the projection
[Z0, Z1, Z2, Z3] -> [Z0 + Z1 j, Z2 + Z3 j], and wedging the two plane
equations of the image line gives a holomorphic curve in CP^5 from
which f can be reconstructed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .errors import FitError, PoleDetected
from .quat_core import Quaternion
from .regular_fn import RegularSeries, eval_series

PROJ_TOL = 1e-9


@dataclass(frozen=True)
class ProjectivePoint:
    """Homogeneous coordinates, stored with the largest coordinate at 1."""

    coords: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=complex)
        mags = np.abs(coords)
        k = int(np.argmax(mags))  # the first NaN, if there is one
        if not 0.0 < mags[k] < math.inf:
            raise ValueError("projective coordinates must be finite, not all zero")
        object.__setattr__(self, "coords", coords / coords[k])

    def equals(self, other: "ProjectivePoint", tol: float = PROJ_TOL) -> bool:
        """All 2x2 minors of the two coordinate rows vanish to tol."""
        a, b = self.coords, other.coords
        bound = tol * max(1.0, float(np.max(np.abs(a)) * np.max(np.abs(b))))
        n = len(a)
        for i in range(n):
            for j in range(i + 1, n):
                if abs(a[i] * b[j] - a[j] * b[i]) > bound:
                    return False
        return True

    def to_json(self) -> list:
        return [[z.real, z.imag] for z in self.coords]


class ProjectivePoint3(ProjectivePoint):
    """[Z0, Z1, Z2, Z3] in CP^3."""

    @staticmethod
    def of(z0, z1, z2, z3) -> "ProjectivePoint3":
        return ProjectivePoint3(np.array([z0, z1, z2, z3], dtype=complex))

    def __getitem__(self, k: int) -> complex:
        return complex(self.coords[k])


@dataclass(frozen=True)
class HP1Point:
    """[q1, q2] with left homogeneity [q1, q2] = [p q1, p q2]."""

    q1: Quaternion
    q2: Quaternion

    def __post_init__(self):
        if not (any(self.q1) or any(self.q2)):
            raise ValueError("[0, 0] is not a point of HP^1")

    @staticmethod
    def infinity() -> "HP1Point":
        return HP1Point(Quaternion(), Quaternion(1.0))

    @property
    def is_infinite(self) -> bool:
        """|q1| <= 1e-12 |q2|, at any scale: hypot neither under- nor overflows."""
        return math.hypot(*self.q1) <= 1e-12 * math.hypot(*self.q2)

    def affine_point(self) -> Quaternion:
        if self.is_infinite:
            raise ZeroDivisionError("the point at infinity has no affine form")
        return self.q1.inverse() * self.q2

    def equals(self, other: "HP1Point", tol: float = PROJ_TOL) -> bool:
        if self.is_infinite or other.is_infinite:
            return self.is_infinite and other.is_infinite
        a, b = self.affine_point(), other.affine_point()
        return abs(a - b) <= tol * (1.0 + abs(a) + abs(b))


class KleinPoint(ProjectivePoint):
    """A point of CP^5 in the basis e01, e02, e03, e12, e13, e23."""

    @staticmethod
    def of(*zeta) -> "KleinPoint":
        return KleinPoint(np.array(zeta, dtype=complex))

    def __getitem__(self, k: int) -> complex:
        """1-based index matching the zeta_1 ... zeta_6 convention."""
        return complex(self.coords[k - 1])

    def klein_form(self) -> complex:
        z = self.coords
        return z[0] * z[5] - z[1] * z[4] + z[2] * z[3]

    def on_klein_quadric(self, tol: float = 1e-10) -> bool:
        z = self.coords
        scale = max(1.0, abs(z[0] * z[5]) + abs(z[1] * z[4]) + abs(z[2] * z[3]))
        return abs(self.klein_form()) <= tol * scale


def twistor_project(Z: ProjectivePoint3) -> HP1Point:
    """[Z0, Z1, Z2, Z3] -> [Z0 + Z1 j, Z2 + Z3 j]."""
    q1 = Quaternion.from_complex_pair(Z[0], Z[1])
    q2 = Quaternion.from_complex_pair(Z[2], Z[3])
    return HP1Point(q1, q2)


def on_quadric(Z: ProjectivePoint3, tol: float = 1e-10) -> bool:
    """Z0 Z3 = Z1 Z2, the graph of the standard structure."""
    scale = max(1.0, abs(Z[0] * Z[3]) + abs(Z[1] * Z[2]))
    return abs(Z[0] * Z[3] - Z[1] * Z[2]) <= tol * scale


def in_q_plus(Z: ProjectivePoint3, tol: float = 1e-10) -> bool:
    if not on_quadric(Z, tol):
        return False
    if abs(Z[0]) > tol and (Z[2] / Z[0]).imag > 0:
        return True
    if abs(Z[1]) > tol and (Z[3] / Z[1]).imag > 0:
        return True
    return False


@dataclass(frozen=True)
class SplitPair:
    """The splitting f = g + hj on L_i, read off the series f itself.

    On the slice f(v) = g(v) + h(v)j, and the hats are the Schwarz
    reflections g^(v) = conj g(conj v), h^(v) = conj h(conj v) of the
    splitting of `reflected`.  None stands for f itself, the symmetric
    case; a non-symmetric curve supplies its reflected series.
    """

    series: RegularSeries
    reflected: RegularSeries | None = None

    @property
    def symmetric(self) -> bool:
        """True iff the hats are the Schwarz reflections of g and h."""
        return self.reflected is None

    def values(self, v: complex) -> tuple[complex, complex, complex, complex]:
        """(g(v), h(v), g^(v), h^(v)); raises OutsideRadius for |v| >= radius."""
        v = complex(v)
        hats = self.series if self.reflected is None else self.reflected
        gv, hv = eval_series(self.series, Quaternion.from_complex(v)).complex_pair()
        gr, hr = eval_series(hats, Quaternion.from_complex(v.conjugate())
                             ).complex_pair()
        return gv, hv, gr.conjugate(), hr.conjugate()


def lift(f: RegularSeries, u: complex | None, v: complex) -> ProjectivePoint3:
    """Twistor lift of f at chart point (u, v); u = None marks u at infinity."""
    gv, hv, ghv, hhv = SplitPair(f).values(v)
    if u is None:
        return ProjectivePoint3.of(0.0, 1.0, -hhv, ghv)
    return ProjectivePoint3.of(1.0, u, gv - u * hhv, hv + u * ghv)


def twistor_transform(f: RegularSeries, v: complex) -> KleinPoint:
    """The curve [g g^ + h^ h, h, -g, g^, h^, 1] at v; where g g^ + h^ h overflows,
    the coordinates, quadratic in (g, h, g^, h^, 1), take all five scaled by 2^-e."""
    gv, hv, ghv, hhv = SplitPair(f).values(v)
    zeta1 = gv * ghv + hhv * hv
    if math.isfinite(zeta1.real) and math.isfinite(zeta1.imag):
        return KleinPoint.of(zeta1, hv, -gv, ghv, hhv, 1.0)
    m = max(abs(t) for z in (gv, hv, ghv, hhv) for t in (z.real, z.imag))
    s = math.ldexp(1.0, -math.frexp(m)[1])
    gv, hv, ghv, hhv = gv * s, hv * s, ghv * s, hhv * s
    return KleinPoint.of(gv * ghv + hhv * hv, hv * s, -gv * s, ghv * s, hhv * s, s * s)


def sigma(zeta: KleinPoint) -> KleinPoint:
    """The real structure induced by j on CP^5; an involution."""
    z = zeta.coords
    return KleinPoint.of(np.conj(z[0]), np.conj(z[4]), -np.conj(z[3]),
                         -np.conj(z[2]), np.conj(z[1]), np.conj(z[5]))


def j_involution(Z: ProjectivePoint3) -> ProjectivePoint3:
    """The fixed-point-free antiholomorphic involution covering the antipode."""
    return ProjectivePoint3.of(-np.conj(Z[1]), np.conj(Z[0]),
                               -np.conj(Z[3]), np.conj(Z[2]))


def fiber_plucker(qtilde: Quaternion | None) -> KleinPoint:
    """Plucker coordinates of the fiber over q~ = w1 + w2 j; None marks infinity."""
    if qtilde is None:
        return KleinPoint.of(1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    w1, w2 = qtilde.complex_pair()
    return KleinPoint.of(abs(w1) ** 2 + abs(w2) ** 2, w2, -w1,
                         np.conj(w1), np.conj(w2), 1.0)


def line_plucker(p: SplitPair, v: complex) -> KleinPoint:
    """Plucker coordinates of the image line, by wedging the plane normals.

    The line Z2 = g Z0 - h^ Z1, Z3 = h Z0 + g^ Z1 is spanned in the dual
    by [g, -h^, -1, 0] and [h, g^, 0, -1]; their exterior product gives
    the same Klein point as the transform, computed independently.
    """
    gv, hv, ghv, hhv = p.values(v)
    r1 = np.array([gv, -hhv, -1.0, 0.0], dtype=complex)
    r2 = np.array([hv, ghv, 0.0, -1.0], dtype=complex)
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    zeta = [r1[i] * r2[j] - r1[j] * r2[i] for i, j in pairs]
    return KleinPoint.of(*zeta)


@dataclass(frozen=True)
class CurveSample:
    v: complex
    zeta: KleinPoint


POLE_TOL = 1e-10


def normalized_curve_values(samples: list[CurveSample]
                            ) -> list[tuple[complex, complex, complex, complex, complex]]:
    """(v, g, h, g^, h^) pointwise, after normalizing zeta_6 to 1.

    Raises PoleDetected where zeta_6 vanishes: the curve meets the fiber
    over infinity there, signalling a sphere of non-removable poles.
    """
    out = []
    for s in samples:
        z = s.zeta.coords
        scale = float(np.max(np.abs(z)))
        if abs(z[5]) <= POLE_TOL * scale:
            raise PoleDetected(f"zeta_6 vanishes at v = {s.v}")
        z = z / z[5]
        out.append((s.v, -z[2], z[1], z[3], z[4]))
    return out


def _fit_columns(vs: np.ndarray, cols: np.ndarray, max_degree: int,
                 tol: float) -> list[np.ndarray]:
    """Fit each column by the polynomial of least degree whose residual is
    within tol of the column's largest value, one least-squares problem
    per degree; an exactly zero column fits at degree 0."""
    gates = tol * np.max(np.abs(cols), axis=0, initial=0.0)
    fits = [None] * cols.shape[1]
    for d in range(0, min(max_degree, len(vs) - 1) + 1):
        vand = np.vander(vs, d + 1, increasing=True)
        coeffs, *_ = np.linalg.lstsq(vand, cols, rcond=None)
        resid = np.max(np.abs(vand @ coeffs - cols), axis=0)
        for k in range(len(fits)):
            if fits[k] is None and resid[k] <= gates[k]:
                fits[k] = coeffs[:, k]
        if all(c is not None for c in fits):
            return fits
    raise FitError(f"no polynomial of degree <= {max_degree} fits the samples")


def _pair_series(g: np.ndarray, h: np.ndarray) -> RegularSeries:
    """The series with coefficients a_n = g_n + h_n j."""
    pairs = zip_longest(g.tolist(), h.tolist(), fillvalue=0j)
    return RegularSeries(tuple([Quaternion.from_complex_pair(b, c) for b, c in pairs]))


def reconstruct(samples: list[CurveSample], max_degree: int = 24,
                fit_tol: float = 1e-9) -> SplitPair:
    """Recover the split pair of the regular map behind a sampled curve.

    After normalizing zeta_6 = 1, g = -zeta_3, h = zeta_2, g^ = zeta_4 and
    h^ = zeta_5 are fitted by increasing-degree interpolation.  A curve
    whose reflected series (with coefficients conj g^_n + conj h^_n j)
    differs from the series of g, h beyond 1e-8 of their coefficient
    scale does not extend symmetrically; it keeps its reflected series,
    so that its symmetric is False.
    """
    values = normalized_curve_values(samples)
    vs = np.array([t[0] for t in values], dtype=complex)
    cols = np.array([t[1:] for t in values], dtype=complex).reshape(-1, 4)
    g, h, ghat, hhat = _fit_columns(vs, cols, max_degree, fit_tol)
    series = _pair_series(g, h)
    reflected = _pair_series(np.conj(ghat), np.conj(hhat))
    scale = max(series.coefficient_scale(), reflected.coefficient_scale())
    if (series - reflected).coefficient_scale() <= 1e-8 * scale:
        return SplitPair(series)
    return SplitPair(series, reflected)
