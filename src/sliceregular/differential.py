"""The real differential of a regular function and its rank structure.

Everything is driven by the first two expansion coefficients A1, A2 at
the sphere through the base point: the differential acts by right
multiplication by A1 + 2 Im(q0) A2 on the slice plane and by A1 on its
orthogonal complement.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConditioningWarning
from .quat_core import Quaternion, Sphere, hamilton, imag_unit_q4, is_real_q4
from .regular_fn import (Q4, RegularSeries, _check_radius, _divide_linear,
                         _expansion, _norm, _q4, _slice_values)

NEAR_REAL_BAND = 1e-6

_BASIS: tuple[Q4, ...] = ((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0),
                          (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0))
_ONE4 = _BASIS[0]


@dataclass(frozen=True)
class RealLinearMap4:
    """A real-linear endomorphism of H = R^4 in the basis 1, i, j, k."""

    matrix: np.ndarray

    def apply(self, v: Quaternion) -> Quaternion:
        out = self.matrix @ np.array([v.w, v.x, v.y, v.z])
        return Quaternion(*out)

    def rank(self, rel_tol: float = 1e-8) -> int:
        s = np.linalg.svd(self.matrix, compute_uv=False)
        if s[0] == 0.0:
            return 0
        return int(np.sum(s > rel_tol * s[0]))

    def to_json(self) -> list:
        return [float(t) for t in self.matrix.reshape(-1)]


class Rank(Enum):
    RANK0 = 0
    RANK2 = 2
    RANK4 = 4


@dataclass(frozen=True)
class RankClass:
    rank: Rank
    a1: Quaternion
    a2: Quaternion


# The functions below convert f and q0 to 4-tuples once, compute with
# regular_fn's kernels and build Quaternions only for what they return.
# Each float operation is the one the Quaternion arithmetic did, in its
# order and on its operands, signed zeros included: 2 Im(q0) is
# (0.0, 2x, 2y, 2z), ONE + t adds 1.0 and 0.0, a dot product sums all
# four terms and an inverse is conj * (1/n) (tests/test_differential.py
# keeps the object versions as oracles).


def _point(q0: Quaternion) -> Q4:
    """q0 as a 4-tuple; raises ValueError unless |q0|^2 is finite in float64."""
    if not math.isfinite(q0.norm_sq()):
        raise ValueError(f"the point must be finite with |q0|^2 finite in "
                         f"float64, got {q0}")
    return (q0.w, q0.x, q0.y, q0.z)


def _scale(coeffs: list) -> float:
    """max(1, f.coefficient_scale()) from f's 4-tuple coefficients."""
    return max(1.0, max(map(_norm, coeffs), default=0.0))


def _expansion_pair(f: RegularSeries, p: Q4) -> tuple[list, Q4, Q4]:
    """f's coefficients as 4-tuples, and A1 and A2 about p on the sphere
    through p."""
    w, x, y, z = p
    _check_radius(f, w, math.sqrt(x * x + y * y + z * z))
    coeffs = [_q4(c) for c in f.coeffs]
    _, a1, a2 = _expansion(coeffs, p, w, 2)
    return coeffs, a1, a2


def _add(a: Q4, b: Q4) -> Q4:
    return tuple([s + t for s, t in zip(a, b)])


def _sub(a: Q4, b: Q4) -> Q4:
    return tuple([s - t for s, t in zip(a, b)])


def _times(t: float, a: Q4) -> Q4:
    return tuple([s * t for s in a])


def _dot(a: Q4, b: Q4) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3]


def _twice_im(p: Q4) -> Q4:
    _, x, y, z = p
    return (0.0, x * 2.0, y * 2.0, z * 2.0)


def directional_derivative(f: RegularSeries, q0: Quaternion,
                           v: Quaternion) -> Quaternion:
    """Derivative of f along unit v at q0: v A1 + (q0 v - v q0-bar) A2."""
    n = abs(v)
    if n == 0.0:
        raise ValueError("direction must be nonzero")
    v4 = _q4(v)
    if abs(n - 1.0) > 1e-12:
        v4 = _times(1.0 / n, v4)
    p = _point(q0)
    _, a1, a2 = _expansion_pair(f, p)
    w, x, y, z = p
    lie = _sub(hamilton(p, v4), hamilton(v4, (w, -x, -y, -z)))
    return Quaternion(*_add(hamilton(v4, a1), hamilton(lie, a2)))


def _matrix_from(a1: Q4, a2: Q4, p: Q4, non_real: bool) -> np.ndarray:
    if non_real:
        unit = imag_unit_q4(p)
        factor = _add(a1, hamilton(_twice_im(p), a2))
        cols = []
        for e in _BASIS:
            u = _add(_times(_dot(e, _ONE4), _ONE4), _times(_dot(e, unit), unit))
            cols.append(_add(hamilton(u, factor), hamilton(_sub(e, u), a1)))
    else:
        cols = [hamilton(e, a1) for e in _BASIS]
    return np.array(cols).T


def differential_at(f: RegularSeries, q0: Quaternion) -> RealLinearMap4:
    """The 4x4 real matrix of the differential of f at q0.

    On the real axis (is_real) the map degenerates to v -> v A1.  Off it
    but within |Im q0| < 1e-6 both the non-real and the real-limit formulas
    are evaluated and a ConditioningWarning is emitted if they disagree.
    Raises ValueError unless |q0|^2 is finite.
    """
    p = _point(q0)
    _, a1, a2 = _expansion_pair(f, p)
    if is_real_q4(p):
        return RealLinearMap4(_matrix_from(a1, a2, p, non_real=False))
    m = _matrix_from(a1, a2, p, non_real=True)
    _, x, y, z = p
    if math.sqrt(x * x + y * y + z * z) < NEAR_REAL_BAND:
        m_real = _matrix_from(a1, a2, p, non_real=False)
        gap = float(np.max(np.abs(m - m_real)))
        if gap > 1e-6 * max(1.0, float(np.max(np.abs(m)))):
            warnings.warn(
                f"differential at {q0} is ill-conditioned near the real axis "
                f"(formula gap {gap:.3e})", ConditioningWarning)
    return RealLinearMap4(m)


def _in_perp(p: Q4, a1: Q4, a2: Q4) -> bool:
    """Whether 1 + 2 Im(p) A2 A1^-1 is orthogonal to 1 and to I_p."""
    bw, bx, by, bz = a1
    t = 1.0 / (bw * bw + bx * bx + by * by + bz * bz)
    dw, dx, dy, dz = hamilton(hamilton(_twice_im(p), a2),
                              (bw * t, -bx * t, -by * t, -bz * t))
    w, x, y, z = 1.0 + dw, 0.0 + dx, 0.0 + dy, 0.0 + dz
    _, ux, uy, uz = imag_unit_q4(p)
    ptol = 1e-9 * (1.0 + math.sqrt(w * w + x * x + y * y + z * z))
    return (abs(w * 1.0 + x * 0.0 + y * 0.0 + z * 0.0) <= ptol
            and abs(w * 0.0 + x * ux + y * uy + z * uz) <= ptol)


def rank_classify(f: RegularSeries, q0: Quaternion) -> RankClass:
    """Rank of the differential from the expansion coefficients alone.

    Raises ValueError unless |q0|^2 is finite.
    """
    p = _point(q0)
    coeffs, a1, a2 = _expansion_pair(f, p)
    tol = 1e-10 * _scale(coeffs)
    if is_real_q4(p):
        rank = Rank.RANK0 if _norm(a1) <= tol else Rank.RANK4
    elif _norm(a1) <= tol:
        rank = Rank.RANK0 if _norm(a2) <= tol else Rank.RANK2
    else:
        rank = Rank.RANK2 if _in_perp(p, a1, a2) else Rank.RANK4
    return RankClass(rank, Quaternion(*a1), Quaternion(*a2))


@dataclass(frozen=True)
class SingularityCertificate:
    singular: bool
    witness: Quaternion | None  # the q0-tilde of the factorization, if any


def _singularity(f: RegularSeries, p: Q4) -> tuple[bool, Q4 | None, Q4]:
    """(singular, witness, f(p)) for a polynomial f at a checked point p.

    The quotient of f - f(p) by (q - p) is probed for a zero on the
    sphere through p.  It is the quotient of f itself: synthetic
    division reads the constant coefficient only for the remainder.
    """
    coeffs = [_q4(c) for c in f.coeffs]
    scale = _scale(coeffs)
    g, value = _divide_linear(coeffs, p)
    if not g:
        return False, None, value
    if is_real_q4(p):
        # real point: singular iff (q - x0)^2 divides f - f(q0)
        if _norm(_divide_linear(g, p)[1]) <= 1e-8 * scale:
            return True, p, value
        return False, None, value
    w, x, y, z = p
    r = math.sqrt(x * x + y * y + z * z)
    alpha, beta = _slice_values(g, w, r)
    if _norm(beta) <= 1e-9 * scale:
        if _norm(alpha) <= 1e-9 * scale:
            # g vanishes on the whole sphere: spherical multiplicity >= 2
            return True, (w, -x, -y, -z), value
        return False, None, value
    bw, bx, by, bz = beta
    t = 1.0 / (bw * bw + bx * bx + by * by + bz * bz)
    cw, cx, cy, cz = hamilton(alpha, (bw * t, -bx * t, -by * t, -bz * t))
    cand = (-cw, -cx, -cy, -cz)
    size = _norm(cand)
    if abs(cand[0]) > 1e-7 * (1.0 + size) or abs(size - 1.0) > 1e-7:
        return False, None, value
    _, ux, uy, uz = imag_unit_q4(cand)
    witness = (w + 0.0 * r, 0.0 + ux * r, 0.0 + uy * r, 0.0 + uz * r)
    if _norm(_divide_linear(g, witness)[1]) <= 1e-8 * scale:
        return True, witness, value
    return False, None, value


def is_singular(f: RegularSeries, q0: Quaternion) -> SingularityCertificate:
    """Whether f - f(q0) has total multiplicity >= 2 at the sphere through q0.

    The quotient of f - f(q0) by (q - q0) is probed for a zero on the
    sphere; that zero is the factorization witness.  Raises ValueError
    for a series, or unless |q0|^2 is finite.
    """
    if not f.is_polynomial:
        raise ValueError("is_singular expects a polynomial")
    singular, witness, _ = _singularity(f, _point(q0))
    return SingularityCertificate(
        singular, None if witness is None else Quaternion(*witness))


def is_degenerate_sphere(f: RegularSeries, sphere: Sphere) -> bool:
    """True iff f is constant on the sphere, i.e. A1 vanishes there."""
    if sphere.y <= 0:
        raise ValueError("degeneracy is defined for genuine spheres (y > 0)")
    p = _point(Quaternion(sphere.x, sphere.y))
    _check_radius(f, sphere.x, sphere.y)
    coeffs = [_q4(c) for c in f.coeffs]
    return _norm(_expansion(coeffs, p, sphere.x, 1)[1]) <= 1e-9 * _scale(coeffs)
