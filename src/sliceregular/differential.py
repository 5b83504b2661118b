"""The real differential of a regular function and its rank structure.

Everything is driven by the first two expansion coefficients A1, A2 at
the sphere through the base point: the differential acts by right
multiplication by A1 + 2 Im(q0) A2 on the slice plane and by A1 on its
orthogonal complement.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConditioningWarning
from .quat_core import (I, J, K, ONE, Quaternion, Sphere, imag_unit, is_real,
                        sphere_of)
from .regular_fn import (RegularSeries, divide_linear, eval_series,
                         spherical_expansion, slice_values)

NEAR_REAL_BAND = 1e-6


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


def _expansion_pair(f: RegularSeries, q0: Quaternion) -> tuple[Quaternion, Quaternion]:
    exp = spherical_expansion(f, sphere_of(q0), q0, 2)
    return exp.a(1), exp.a(2)


def directional_derivative(f: RegularSeries, q0: Quaternion,
                           v: Quaternion) -> Quaternion:
    """Derivative of f along unit v at q0: v A1 + (q0 v - v q0-bar) A2."""
    n = abs(v)
    if n == 0.0:
        raise ValueError("direction must be nonzero")
    if abs(n - 1.0) > 1e-12:
        v = v / n
    a1, a2 = _expansion_pair(f, q0)
    return v * a1 + (q0 * v - v * q0.conj()) * a2


def _matrix_from(a1: Quaternion, a2: Quaternion, q0: Quaternion,
                 non_real: bool) -> np.ndarray:
    cols = []
    if non_real:
        unit = imag_unit(q0)
        factor = a1 + (2.0 * q0.im()) * a2
        for e in (ONE, I, J, K):
            u = e.dot(ONE) * ONE + e.dot(unit) * unit
            w = e - u
            cols.append(u * factor + w * a1)
    else:
        for e in (ONE, I, J, K):
            cols.append(e * a1)
    return np.array([[c.w, c.x, c.y, c.z] for c in cols]).T


def differential_at(f: RegularSeries, q0: Quaternion) -> RealLinearMap4:
    """The 4x4 real matrix of the differential of f at q0.

    On the real axis (is_real) the map degenerates to v -> v A1.  Off it
    but within |Im q0| < 1e-6 both the non-real and the real-limit formulas
    are evaluated and a ConditioningWarning is emitted if they disagree.
    """
    a1, a2 = _expansion_pair(f, q0)
    if is_real(q0):
        return RealLinearMap4(_matrix_from(a1, a2, q0, non_real=False))
    m = _matrix_from(a1, a2, q0, non_real=True)
    if q0.im_norm() < NEAR_REAL_BAND:
        m_real = _matrix_from(a1, a2, q0, non_real=False)
        gap = float(np.max(np.abs(m - m_real)))
        if gap > 1e-6 * max(1.0, float(np.max(np.abs(m)))):
            warnings.warn(
                f"differential at {q0} is ill-conditioned near the real axis "
                f"(formula gap {gap:.3e})", ConditioningWarning)
    return RealLinearMap4(m)


def rank_classify(f: RegularSeries, q0: Quaternion) -> RankClass:
    """Rank of the differential from the expansion coefficients alone."""
    a1, a2 = _expansion_pair(f, q0)
    scale = max(1.0, f.coefficient_scale())
    tol = 1e-10 * scale
    if is_real(q0):
        rank = Rank.RANK0 if abs(a1) <= tol else Rank.RANK4
        return RankClass(rank, a1, a2)
    if abs(a1) <= tol:
        rank = Rank.RANK0 if abs(a2) <= tol else Rank.RANK2
        return RankClass(rank, a1, a2)
    p = ONE + (2.0 * q0.im()) * a2 * a1.inverse()
    unit = imag_unit(q0)
    ptol = 1e-9 * (1.0 + abs(p))
    in_perp = abs(p.dot(ONE)) <= ptol and abs(p.dot(unit)) <= ptol
    return RankClass(Rank.RANK2 if in_perp else Rank.RANK4, a1, a2)


@dataclass(frozen=True)
class SingularityCertificate:
    singular: bool
    witness: Quaternion | None  # the q0-tilde of the factorization, if any


def is_singular(f: RegularSeries, q0: Quaternion) -> SingularityCertificate:
    """Whether f - f(q0) has total multiplicity >= 2 at the sphere through q0.

    The quotient of f - f(q0) by (q - q0) is probed for a zero on the
    sphere; that zero is the factorization witness.
    """
    if not f.is_polynomial:
        raise ValueError("is_singular expects a polynomial")
    scale = max(1.0, f.coefficient_scale())
    shifted = f.shift(eval_series(f, q0))
    g, _ = divide_linear(shifted, q0)
    if g.is_zero:
        return SingularityCertificate(False, None)
    if is_real(q0):
        # real point: singular iff (q - x0)^2 divides f - f(q0)
        r = eval_series(g, q0)
        if abs(r) <= 1e-8 * scale:
            return SingularityCertificate(True, q0)
        return SingularityCertificate(False, None)
    sph = sphere_of(q0)
    alpha, beta = slice_values(g, sph.x, sph.y)
    if abs(beta) <= 1e-9 * scale:
        if abs(alpha) <= 1e-9 * scale:
            # g vanishes on the whole sphere: spherical multiplicity >= 2
            return SingularityCertificate(True, q0.conj())
        return SingularityCertificate(False, None)
    cand = -(alpha * beta.inverse())
    if abs(cand.re()) > 1e-7 * (1.0 + abs(cand)) or abs(abs(cand) - 1.0) > 1e-7:
        return SingularityCertificate(False, None)
    witness = Quaternion(sph.x) + sph.y * imag_unit(cand)
    _, r = divide_linear(g, witness)
    if abs(r) <= 1e-8 * scale:
        return SingularityCertificate(True, witness)
    return SingularityCertificate(False, None)


def is_degenerate_sphere(f: RegularSeries, sphere: Sphere) -> bool:
    """True iff f is constant on the sphere, i.e. A1 vanishes there."""
    if sphere.y <= 0:
        raise ValueError("degeneracy is defined for genuine spheres (y > 0)")
    q0 = Quaternion(sphere.x, sphere.y)
    exp = spherical_expansion(f, sphere, q0, 1)
    return abs(exp.a(1)) <= 1e-9 * max(1.0, f.coefficient_scale())
