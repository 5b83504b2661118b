"""Twistor projection, lifts and the Klein-quadric transform.

A regular f splits on the slice L_i as g + hj; the lift
[1, u, g(v) - u h^(v), h(v) + u g^(v)] covers f through the projection
[Z0, Z1, Z2, Z3] -> [Z0 + Z1 j, Z2 + Z3 j], and wedging the two plane
equations of the image line gives a holomorphic curve in CP^5 from
which f can be reconstructed.

The lift, the transform and the image line take v as one complex number
or as a 1-d array of them.  A batch is one point object whose coords
hold a row per v, and the point methods act on the last axis, so each
formula serves a point and a batch alike.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .errors import FitError, OutsideRadius, PoleDetected
from .quat_core import Quaternion
from .regular_fn import RegularSeries, _slice_pair

PROJ_TOL = 1e-9


def _stack(*z) -> np.ndarray:
    """The coordinates z as the last axis of one complex array: numbers,
    or 1-d arrays of one length with a number repeating down its column."""
    if any(isinstance(t, np.ndarray) for t in z):  # numbers skip broadcasting
        z = np.broadcast_arrays(*z)
    return np.array(z, dtype=complex).T


def _every(ok) -> bool:
    """Whether every verdict holds: a batch's array of them, or one point's,
    read without a numpy reduction, which costs more than the rest of a
    point's check."""
    return bool(ok.all() if getattr(ok, "ndim", 0) else ok)


def _on_points(fn):
    """Let fn's last argument v be a complex number or a 1-d array of them.

    A batch runs with numpy's overflow and invalid-value warnings off, as
    Python's complex arithmetic runs for one point: a row that overflows
    fails the finiteness check of its point instead.
    """
    @functools.wraps(fn)
    def run(*args):
        *rest, v = args
        if not isinstance(v, np.ndarray):
            return fn(*rest, complex(v))
        with np.errstate(over="ignore", invalid="ignore"):
            return fn(*rest, np.asarray(v, dtype=complex))
    return run


@dataclass(frozen=True)
class ProjectivePoint:
    """Homogeneous coordinates, stored with the largest coordinate at 1.

    coords of shape (n, k) hold a batch of n points, each row normalized.
    """

    coords: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=complex)
        mags = np.abs(coords)
        k = mags.argmax(axis=-1)  # the first NaN, if there is one
        largest = (*np.indices(k.shape, sparse=True), k)
        if not _every((0.0 < mags[largest]) & (mags[largest] < math.inf)):
            raise ValueError("projective coordinates must be finite, not all zero")
        object.__setattr__(self, "coords", (coords.T / coords[largest]).T)

    @classmethod
    def of(cls, *z):
        """The point with coordinates z, or the batch whose columns they are."""
        return cls(_stack(*z))

    def equals(self, other: "ProjectivePoint", tol: float = PROJ_TOL):
        """All 2x2 minors of the two coordinate rows vanish to tol; for a
        batch, one verdict per row."""
        a, b = self.coords, other.coords
        bound = tol * np.maximum(1.0, np.abs(a).max(axis=-1) * np.abs(b).max(axis=-1))
        ab = a[..., :, None] * b[..., None, :]  # minor (i, j) is ab_ij - ab_ji
        minors = np.abs(ab - np.swapaxes(ab, -1, -2))
        return (minors <= bound[..., None, None]).all(axis=(-2, -1))

    def to_json(self) -> list:
        return [[z.real, z.imag] for z in self.coords]


class ProjectivePoint3(ProjectivePoint):
    """[Z0, Z1, Z2, Z3] in CP^3."""

    def __getitem__(self, k: int):
        """Z_k: a complex number, or the column of a batch."""
        z = self.coords
        return complex(z[k]) if z.ndim == 1 else z[:, k]


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

    def equals(self, other: "HP1Point") -> bool:
        if self.is_infinite or other.is_infinite:
            return self.is_infinite and other.is_infinite
        a, b = self.affine_point(), other.affine_point()
        return abs(a - b) <= PROJ_TOL * (1.0 + abs(a) + abs(b))


class KleinPoint(ProjectivePoint):
    """A point of CP^5 in the basis e01, e02, e03, e12, e13, e23."""

    def klein_form(self):
        z = self.coords.T
        return z[0] * z[5] - z[1] * z[4] + z[2] * z[3]


def twistor_project(Z: ProjectivePoint3) -> HP1Point:
    """[Z0, Z1, Z2, Z3] -> [Z0 + Z1 j, Z2 + Z3 j]; raises ValueError for
    a batch, since an HP1Point holds one point."""
    if Z.coords.ndim != 1:
        raise ValueError(f"twistor_project takes one point, got a batch of "
                         f"shape {Z.coords.shape}")
    q1 = Quaternion.from_complex_pair(Z[0], Z[1])
    q2 = Quaternion.from_complex_pair(Z[2], Z[3])
    return HP1Point(q1, q2)


def _verdicts(Z: ProjectivePoint3, ok):
    """One bool for a point, or the array of a batch's row verdicts."""
    return bool(ok) if Z.coords.ndim == 1 else ok


def on_quadric(Z: ProjectivePoint3):
    """Z0 Z3 = Z1 Z2, the graph of the standard structure, to 1e-10
    relative; one verdict per row of a batch."""
    z0, z1, z2, z3 = Z.coords.T
    scale = np.maximum(1.0, abs(z0 * z3) + abs(z1 * z2))
    return _verdicts(Z, abs(z0 * z3 - z1 * z2) <= 1e-10 * scale)


def in_q_plus(Z: ProjectivePoint3):
    """On the quadric, with Im(Z2 / Z0) > 0 where |Z0| > 1e-10, or else
    Im(Z3 / Z1) > 0 where |Z1| > 1e-10; one verdict per row of a batch."""
    z0, z1, z2, z3 = Z.coords.T
    with np.errstate(divide="ignore", invalid="ignore"):
        first = (abs(z0) > 1e-10) & ((z2 / z0).imag > 0)
        second = (abs(z1) > 1e-10) & ((z3 / z1).imag > 0)
    return _verdicts(Z, on_quadric(Z) & (first | second))


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

    @_on_points
    def values(self, v):
        """(g(v), h(v), g^(v), h^(v)), as arrays for an array of v; raises
        OutsideRadius if any |v| >= radius."""
        if not self.series.is_polynomial and np.any(np.abs(v) >= self.series.radius):
            raise OutsideRadius(f"|v| >= radius {self.series.radius}")
        g, h, gr, hr = _slice_pair(self.series.coeffs, v)
        if self.reflected is not None:
            _, _, gr, hr = _slice_pair(self.reflected.coeffs, v)
        return g, h, gr.conjugate(), hr.conjugate()


@_on_points
def lift(f: RegularSeries, u, v) -> ProjectivePoint3:
    """Twistor lift of f at chart point (u, v); u = None marks u at infinity.

    For a 1-d array v, u is a number, None, or an array with one entry
    per v.
    """
    gv, hv, ghv, hhv = SplitPair(f).values(v)
    if u is None:
        return ProjectivePoint3.of(0.0, 1.0, -hhv, ghv)
    return ProjectivePoint3(_stack(1.0, u, gv - u * hhv, hv + u * ghv))


@_on_points
def twistor_transform(f: RegularSeries, v) -> KleinPoint:
    """The curve [g g^ + h^ h, h, -g, g^, h^, 1] at v, one row per v of an
    array; where g g^ + h^ h overflows, the row, quadratic in
    (g, h, g^, h^, 1), takes all five scaled by 2^-e."""
    gv, hv, ghv, hhv = SplitPair(f).values(v)
    zeta1 = gv * ghv + hhv * hv
    finite = np.isfinite(zeta1)
    if _every(finite):
        return KleinPoint.of(zeta1, hv, -gv, ghv, hhv, 1.0)
    parts = np.array([gv, hv, ghv, hhv])
    m = np.maximum(abs(parts.real), abs(parts.imag)).max(axis=0)
    s = np.where(finite, 1.0, np.ldexp(1.0, -np.frexp(m)[1]))
    with np.errstate(over="ignore", invalid="ignore"):  # g itself may be inf
        gv, hv, ghv, hhv = gv * s, hv * s, ghv * s, hhv * s
        return KleinPoint.of(gv * ghv + hhv * hv, hv * s, -gv * s, ghv * s,
                             hhv * s, s * s)


_SIGMA_ORDER = np.array([0, 4, 3, 2, 1, 5])


def sigma(zeta: KleinPoint) -> KleinPoint:
    """The real structure induced by j on CP^5; an involution."""
    z = np.conj(zeta.coords[..., _SIGMA_ORDER])
    z[..., 2:4] = -z[..., 2:4]
    return KleinPoint(z)


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


@_on_points
def line_plucker(p: SplitPair, v) -> KleinPoint:
    """Plucker coordinates of the image line, by wedging the plane normals;
    one row per v of an array.

    The line Z2 = g Z0 - h^ Z1, Z3 = h Z0 + g^ Z1 is spanned in the dual
    by [g, -h^, -1, 0] and [h, g^, 0, -1]; their exterior product gives
    the same Klein point as the transform, computed independently.
    """
    gv, hv, ghv, hhv = p.values(v)
    r1 = (gv, -hhv, -1.0, 0.0)
    r2 = (hv, ghv, 0.0, -1.0)
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    zeta = [r1[i] * r2[j] - r1[j] * r2[i] for i, j in pairs]
    return KleinPoint.of(*zeta)


@dataclass(frozen=True)
class CurveSample:
    """The curve at v, or at each v of an array with zeta the batch."""

    v: complex | np.ndarray
    zeta: KleinPoint


POLE_TOL = 1e-10


def _curve_columns(samples: list[CurveSample]) -> tuple[np.ndarray, np.ndarray]:
    """The sample points and the columns g, h, g^, h^ of the curve values,
    after normalizing zeta_6 to 1.

    Raises PoleDetected where zeta_6 vanishes: the curve meets the fiber
    over infinity there, signalling a sphere of non-removable poles.
    """
    if not samples:
        return np.zeros(0, complex), np.zeros((0, 4), complex)
    vs = np.concatenate([np.ravel(s.v) for s in samples])
    z = np.concatenate([np.reshape(s.zeta.coords, (-1, 6)) for s in samples])
    pole = np.abs(z[:, 5]) <= POLE_TOL * np.abs(z).max(axis=1)
    if pole.any():
        raise PoleDetected(f"zeta_6 vanishes at v = {vs[pole.argmax()]}")
    z = z / z[:, 5:]
    return vs, np.stack([-z[:, 2], z[:, 1], z[:, 3], z[:, 4]], axis=1)


def _fit_columns(vs: np.ndarray, cols: np.ndarray, max_degree: int,
                 tol: float) -> list[np.ndarray]:
    """Fit each column by the polynomial of least degree whose residual is
    within tol of the column's largest value; an exactly zero column fits
    at degree 0.

    One QR of the largest Vandermonde matrix serves every degree: the fit
    of degree d is the projection onto the first d + 1 columns of Q, so
    cumulative sums of the projections give the residual at each degree.
    R is upper triangular, so one solve gives every column its fit, with
    the projections past the column's degree set to zero.
    """
    top = min(max_degree, len(vs) - 1)
    if top < 0:
        raise FitError("no samples to fit")
    q, r = np.linalg.qr(np.vander(vs, top + 1, increasing=True))
    proj = q.conj().T @ cols
    fits = np.cumsum(q.T[:, :, None] * proj[:, None, :], axis=0)
    resid = np.abs(fits - cols).max(axis=1)
    passed = resid <= tol * np.abs(cols).max(axis=0, initial=0.0)
    if not passed.any(axis=0).all():
        raise FitError(f"no polynomial of degree <= {max_degree} fits the samples")
    degrees = passed.argmax(axis=0)
    d = degrees.max()
    rhs = np.where(np.arange(d + 1)[:, None] <= degrees, proj[:d + 1], 0.0)
    coeffs = np.linalg.solve(r[:d + 1, :d + 1], rhs)
    return [coeffs[:n + 1, k] for k, n in enumerate(degrees)]


def _pair_series(g: np.ndarray, h: np.ndarray) -> RegularSeries:
    """The series with coefficients a_n = g_n + h_n j."""
    pairs = zip_longest(g.tolist(), h.tolist(), fillvalue=0j)
    return RegularSeries(tuple([Quaternion.from_complex_pair(b, c) for b, c in pairs]))


def reconstruct(samples: list[CurveSample]) -> SplitPair:
    """Recover the split pair of the regular map behind a sampled curve.

    After normalizing zeta_6 = 1, g = -zeta_3, h = zeta_2, g^ = zeta_4 and
    h^ = zeta_5 are fitted by increasing-degree interpolation, up to
    degree 24, each to 1e-9 of its column's largest value.  A curve
    whose reflected series (with coefficients conj g^_n + conj h^_n j)
    differs from the series of g, h beyond 1e-8 of their coefficient
    scale does not extend symmetrically; it keeps its reflected series,
    so that its symmetric is False.
    """
    vs, cols = _curve_columns(samples)
    g, h, ghat, hhat = _fit_columns(vs, cols, 24, 1e-9)
    series = _pair_series(g, h)
    reflected = _pair_series(np.conj(ghat), np.conj(hhat))
    scale = max(series.coefficient_scale(), reflected.coefficient_scale())
    if (series - reflected).coefficient_scale() <= 1e-8 * scale:
        return SplitPair(series)
    return SplitPair(series, reflected)
