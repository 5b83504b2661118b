"""Twistor projection, lifts and the Klein-quadric transform.

A regular f splits on the slice L_i as g + hj; the lift
[1, u, g(v) - u h^(v), h(v) + u g^(v)] covers f through the projection
[Z0, Z1, Z2, Z3] -> [Z0 + Z1 j, Z2 + Z3 j], and wedging the two plane
equations of the image line gives a holomorphic curve in CP^5 from
which f can be reconstructed.

The lift, the transform and the image line take v as one complex number
or as a 1-d array of them.  A batch is one point object whose coords
hold a row per v, and the point methods act on the last axis, so each
formula serves a point and a batch alike.  The lift and the transform
also take a list of series, one per row of v, all evaluated by one
stacked Horner loop: lift(fs, u, v) lifts fs[n] at v[n], and
twistor_transform(fs, v) maps fs[n] at the m points of row n of v, of
shape (n, m).  reconstruct_many fits many sampled curves at once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .errors import FitError, OutsideRadius, PoleDetected
from .quat_core import Quaternion
from .regular_fn import RegularSeries, _coeff_rows, _slice_pair, _slice_stack

PROJ_TOL = 1e-9


def _stack(*z) -> np.ndarray:
    """The coordinates z as the last axis of one complex array: numbers,
    or arrays of one shape with a number repeating through its column."""
    if not any(isinstance(t, np.ndarray) for t in z):  # numbers skip broadcasting
        return np.array(z, dtype=complex)
    return np.moveaxis(np.array(np.broadcast_arrays(*z), dtype=complex), 0, -1)


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

    coords of shape (n, k) hold a batch of n points, each row normalized;
    a batch may have more leading axes, as (n, m, k).
    """

    coords: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=complex)
        mags = np.abs(coords)
        k = mags.argmax(axis=-1)  # the first NaN, if there is one
        largest = (*np.indices(k.shape, sparse=True), k)
        if not _every((0.0 < mags[largest]) & (mags[largest] < math.inf)):
            raise ValueError("projective coordinates must be finite, not all zero")
        object.__setattr__(self, "coords", (coords.T / coords[largest].T).T)

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

    def rows(self) -> list:
        """The points of a batch along its first axis, whose coordinates
        are normalized already and so are not divided again."""
        out = []
        for z in self.coords:
            point = object.__new__(type(self))
            object.__setattr__(point, "coords", z)
            out.append(point)
        return out

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
        z = np.moveaxis(self.coords, -1, 0)
        return z[0] * z[5] - z[1] * z[4] + z[2] * z[3]


def twistor_project(Z: ProjectivePoint3) -> HP1Point:
    """[Z0, Z1, Z2, Z3] -> [Z0 + Z1 j, Z2 + Z3 j]; raises ValueError for
    a batch, since an HP1Point holds one point."""
    if Z.coords.ndim != 1:
        raise ValueError(f"twistor_project takes one point, got a batch of "
                         f"shape {Z.coords.shape}")
    z0, z1, z2, z3 = Z.coords.tolist()
    return HP1Point(Quaternion.from_complex_pair(z0, z1), Quaternion.from_complex_pair(z2, z3))


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


def _split_values(f, v):
    """_slice_pair of the series f at v, or of a list f of series, row n
    of the array v at f[n], from one stacked loop; raises OutsideRadius
    if any |v| >= the radius of its series."""
    if isinstance(f, RegularSeries):
        if not f.is_polynomial and np.any(np.abs(v) >= f.radius):
            raise OutsideRadius(f"|v| >= radius {f.radius}")
        return _slice_pair(f.coeffs, v)
    if np.ndim(v) == 0 or len(f) != len(v):
        raise ValueError(f"{len(f)} series take an array of points with one row "
                         f"each, got shape {np.shape(v)}")
    for n, s in enumerate(f):
        if not s.is_polynomial and np.any(np.abs(v[n]) >= s.radius):
            raise OutsideRadius(f"|v| >= radius {s.radius} in row {n}")
    return tuple(_slice_stack(_coeff_rows([s.coeffs for s in f]), v))


@dataclass(frozen=True)
class SplitPair:
    """The splitting f = g + hj on L_i, read off the series f itself.

    On the slice f(v) = g(v) + h(v)j, and the hats are the Schwarz
    reflections g^(v) = conj g(conj v), h^(v) = conj h(conj v) of the
    splitting of `reflected`.  None stands for f itself, the symmetric
    case; a non-symmetric curve supplies its reflected series.  Either
    may be a list of series instead, one per row of an array v.
    """

    series: RegularSeries | list[RegularSeries]
    reflected: RegularSeries | list[RegularSeries] | None = None

    @property
    def symmetric(self) -> bool:
        """True iff the hats are the Schwarz reflections of g and h."""
        return self.reflected is None

    @_on_points
    def values(self, v):
        """(g(v), h(v), g^(v), h^(v)), as arrays for an array of v; raises
        OutsideRadius if any |v| >= radius, and ValueError if a list of
        series does not have one per row of v."""
        g, h, gr, hr = _split_values(self.series, v)
        if self.reflected is not None:
            _, _, gr, hr = _split_values(self.reflected, v)
        return g, h, gr.conjugate(), hr.conjugate()


@_on_points
def lift(f: RegularSeries, u, v) -> ProjectivePoint3:
    """Twistor lift of f at chart point (u, v); u = None marks u at infinity.

    For a 1-d array v, u is a number, None, or an array with one entry
    per v, and f may be a list of series, one per v.
    """
    gv, hv, ghv, hhv = SplitPair(f).values(v)
    if u is None:
        return ProjectivePoint3.of(0.0, 1.0, -hhv, ghv)
    return ProjectivePoint3(_stack(1.0, u, gv - u * hhv, hv + u * ghv))


@_on_points
def twistor_transform(f: RegularSeries, v) -> KleinPoint:
    """The curve [g g^ + h^ h, h, -g, g^, h^, 1] at v, one row per v of an
    array; where g g^ + h^ h overflows, the row, quadratic in
    (g, h, g^, h^, 1), takes all five scaled by 2^-e, and the other rows
    keep the floats of a call of their own.  f may be a list of
    series, one per row of v of shape (n, m), whose curve rows are
    coords[n]."""
    gv, hv, ghv, hhv = SplitPair(f).values(v)
    zeta = _stack(gv * ghv + hhv * hv, hv, -gv, ghv, hhv, 1.0)
    finite = np.isfinite(zeta[..., 0])
    if _every(finite):
        return KleinPoint(zeta)
    parts = np.array([gv, hv, ghv, hhv])
    m = np.maximum(abs(parts.real), abs(parts.imag)).max(axis=0)
    s = np.ldexp(1.0, -np.frexp(m)[1])
    with np.errstate(over="ignore", invalid="ignore"):  # g itself may be inf
        gv, hv, ghv, hhv = gv * s, hv * s, ghv * s, hhv * s
        scaled = _stack(gv * ghv + hhv * hv, hv * s, -gv * s, ghv * s, hhv * s, s * s)
    return KleinPoint(np.where(finite[..., None], zeta, scaled))


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


def _vander(vs: np.ndarray, width: int) -> np.ndarray:
    """np.vander(v, width, increasing=True) for each row v of vs, with its
    floats: each column past the first is the one before times v."""
    out = np.empty(vs.shape + (width,), complex)
    out[..., 0] = 1.0
    out[..., 1:] = vs[..., None]
    np.multiply.accumulate(out[..., 1:], axis=-1, out=out[..., 1:])
    return out


def _fit_columns(vs: np.ndarray, cols: np.ndarray, top: int,
                 tol: float) -> list[list[np.ndarray] | None]:
    """Fit each column of c curves of m samples each, stacked as vs of
    shape (c, m) and cols (c, m, 4), by the polynomial of least degree
    <= top whose residual is within tol of the column's largest value; an
    exactly zero column fits at degree 0.  A curve's four coefficient
    arrays, or None where a column fits at no degree.

    One QR of each curve's Vandermonde matrix serves every degree: the
    fit of degree d is the projection onto the first d + 1 columns of Q,
    so adding one projection at a time gives the residual at each
    degree, up to the first at which every column fits.  R is upper
    triangular, so one solve gives every column its fit, with the
    projections past the column's degree set to zero.  The curves share
    one stacked qr, product and running sum, and the curves of one fit
    size one solve, each curve's floats those of a call of its own.
    """
    q, r = np.linalg.qr(_vander(vs, top + 1))
    proj = np.conj(q).swapaxes(-1, -2) @ cols
    gate = tol * np.abs(cols).max(axis=-2, initial=0.0)
    degrees = np.full(gate.shape, -1)
    fit = np.zeros_like(cols)
    for d in range(top + 1):
        fit += q[..., d, None] * proj[..., d, None, :]
        degrees[(degrees < 0) & (np.abs(fit - cols).max(axis=-2) <= gate)] = d
        if degrees.min() >= 0:
            break
    fitted = (degrees >= 0).all(axis=1)
    out = [None] * len(vs)
    for d in set(degrees[fitted].max(axis=1).tolist()):
        at = np.flatnonzero(fitted & (degrees.max(axis=1) == d))
        rhs = np.where(np.arange(d + 1)[:, None] <= degrees[at, None], proj[at, :d + 1], 0.0)
        coeffs = np.linalg.solve(r[at, :d + 1, :d + 1], rhs)
        for n, c, ds in zip(at.tolist(), coeffs, degrees[at].tolist()):
            out[n] = [c[:k + 1, col] for col, k in enumerate(ds)]
    return out


def _pair_series(g: np.ndarray, h: np.ndarray) -> RegularSeries:
    """The series with coefficients a_n = g_n + h_n j."""
    pairs = zip_longest(g.tolist(), h.tolist(), fillvalue=0j)
    return RegularSeries(tuple([Quaternion.from_complex_pair(b, c) for b, c in pairs]))


def _split_pair(g, h, ghat, hhat) -> SplitPair:
    """The pair of the fitted columns, symmetric where the reflected
    series agrees with the series to 1e-8 of their coefficient scale."""
    series = _pair_series(g, h)
    reflected = _pair_series(np.conj(ghat), np.conj(hhat))
    scale = max(series.coefficient_scale(), reflected.coefficient_scale())
    if (series - reflected).coefficient_scale() <= 1e-8 * scale:
        return SplitPair(series)
    return SplitPair(series, reflected)


def reconstruct_many(curves) -> list[SplitPair]:
    """[reconstruct(c) for c in curves], bit for bit, with the fixed cost
    of a fit paid once: the curves of one sample count and degree cap
    share one stacked QR, projection and running sum, and among them the
    fits of one size one stacked solve.  Every curve is checked for poles
    and for two distinct points before any is fitted, so a batch raises
    what reconstruct raises for its first bad member (a curve that no
    degree fits shows only once all are fitted)."""
    columns = []
    for samples in curves:
        vs, cols = _curve_columns(samples)
        points = len(set(vs.tolist()))
        if points < 2:
            raise FitError(f"{points} distinct sample points check no fit; "
                           "a fit of degree d takes d + 2")
        columns.append((vs, cols, min(24, points - 2)))
    groups = {}
    for n, (vs, _, top) in enumerate(columns):
        groups.setdefault((len(vs), top), []).append(n)
    fits = [None] * len(columns)
    for (_, top), members in groups.items():
        vs = np.array([columns[n][0] for n in members])
        cols = np.array([columns[n][1] for n in members])
        for n, fit in zip(members, _fit_columns(vs, cols, top, 1e-9)):
            fits[n] = fit
    for (_, _, top), fit in zip(columns, fits):
        if fit is None:
            raise FitError(f"no polynomial of degree <= {top} fits the samples"
                           + (f", the most that {top + 2} distinct points check"
                              if top < 24 else ""))
    return [_split_pair(*fit) for fit in fits]


def reconstruct(samples: list[CurveSample]) -> SplitPair:
    """Recover the split pair of the regular map behind a sampled curve.

    After normalizing zeta_6 = 1, g = -zeta_3, h = zeta_2, g^ = zeta_4 and
    h^ = zeta_5 are fitted by increasing-degree interpolation, up to
    degree 24, each to 1e-9 of its column's largest value.  A fit of
    degree d counts only where at least d + 2 distinct sample points
    check it, since d + 1 of them interpolate any values: k distinct
    points fit up to degree k - 2, and fewer than two raise FitError, as
    a curve that no degree fits does.  A curve whose reflected series
    (with coefficients conj g^_n + conj h^_n j) differs from the series
    of g, h beyond 1e-8 of their coefficient scale does not extend
    symmetrically; it keeps its reflected series, so that its symmetric
    is False.  This is reconstruct_many([samples])[0].
    """
    return reconstruct_many([samples])[0]
