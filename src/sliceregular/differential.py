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
from .quat_core import (I, J, K, ONE, Quaternion, Sphere, hamilton, imag_unit,
                        is_real)
from .regular_fn import (Q4, RegularSeries, _check_radius, _divide_linear,
                         _expansion, _horner, _minus_quotient, _norm,
                         _slice_values, _sphere_zero)

NEAR_REAL_BAND = 1e-6


@dataclass(frozen=True)
class RealLinearMap4:
    """A real-linear endomorphism of H = R^4 in the basis 1, i, j, k."""

    matrix: np.ndarray

    def apply(self, v: Quaternion) -> Quaternion:
        return Quaternion(*(self.matrix @ np.array(v)))

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


# The functions below run regular_fn's 4-tuple kernels on f's
# coefficients and q0, and the Quaternion operators on what those
# return.  Each float operation is the one of the object code, in its
# order and on its operands, signed zeros included
# (tests/test_differential.py keeps the object versions as oracles).


def _point(q0: Quaternion) -> Quaternion:
    """q0 itself; raises ValueError unless |q0|^2 is finite in float64."""
    if not math.isfinite(q0.norm_sq()):
        raise ValueError(f"the point must be finite with |q0|^2 finite in "
                         f"float64, got {q0}")
    return q0


def _expansion_pair(f: RegularSeries, p: Quaternion) -> tuple[Quaternion, Quaternion]:
    """A1 and A2 about p on the sphere through p."""
    _check_radius(f, p.w, p.im_norm())
    _, a1, a2 = _expansion(f.coeffs, p, p.w, 2)
    return Quaternion(*a1), Quaternion(*a2)


def directional_derivative(f: RegularSeries, q0: Quaternion,
                           v: Quaternion) -> Quaternion:
    """Derivative of f along unit v at q0: v A1 + (q0 v - v q0-bar) A2."""
    n = abs(v)
    if n == 0.0:
        raise ValueError("direction must be nonzero")
    if abs(n - 1.0) > 1e-12:
        v = v / n
    p = _point(q0)
    a1, a2 = _expansion_pair(f, p)
    return v * a1 + (p * v - v * p.conj()) * a2


def _matrix_from(a1: Quaternion, a2: Quaternion, p: Quaternion,
                 non_real: bool) -> np.ndarray:
    if non_real:
        unit = imag_unit(p)
        factor = a1 + (2.0 * p.im()) * a2
        cols = []
        for e in (ONE, I, J, K):
            u = e.dot(ONE) * ONE + e.dot(unit) * unit
            cols.append(u * factor + (e - u) * a1)
    else:
        cols = [e * a1 for e in (ONE, I, J, K)]
    return np.array(cols).T


def differential_at(f: RegularSeries, q0: Quaternion) -> RealLinearMap4:
    """The 4x4 real matrix of the differential of f at q0.

    On the real axis (is_real) the map degenerates to v -> v A1.  Off it
    but within |Im q0| < 1e-6 both the non-real and the real-limit formulas
    are evaluated and a ConditioningWarning is emitted if they disagree.
    Raises ValueError unless |q0|^2 is finite.
    """
    p = _point(q0)
    a1, a2 = _expansion_pair(f, p)
    if is_real(p):
        return RealLinearMap4(_matrix_from(a1, a2, p, non_real=False))
    m = _matrix_from(a1, a2, p, non_real=True)
    if p.im_norm() < NEAR_REAL_BAND:
        m_real = _matrix_from(a1, a2, p, non_real=False)
        gap = float(np.max(np.abs(m - m_real)))
        if gap > 1e-6 * max(1.0, float(np.max(np.abs(m)))):
            warnings.warn(
                f"differential at {q0} is ill-conditioned near the real axis "
                f"(formula gap {gap:.3e})", ConditioningWarning)
    return RealLinearMap4(m)


def _in_perp(p: Quaternion, a1: Q4, a2: Q4) -> bool:
    """Whether 1 + 2 Im(p) A2 A1^-1 is orthogonal to 1 and to I_p, with
    the Quaternion operators inlined: rank_classify is on the hot path
    of the fibre classification."""
    _, x, y, z = p
    # ONE + d as ONE - (-d), the same floats in IEEE arithmetic
    nw, nx, ny, nz = _minus_quotient(hamilton((0.0, x * 2.0, y * 2.0, z * 2.0), a2), a1)
    w, x, y, z = 1.0 - nw, 0.0 - nx, 0.0 - ny, 0.0 - nz
    _, ux, uy, uz = imag_unit(p)
    ptol = 1e-9 * (1.0 + math.sqrt(w * w + x * x + y * y + z * z))
    return (abs(w * 1.0 + x * 0.0 + y * 0.0 + z * 0.0) <= ptol
            and abs(w * 0.0 + x * ux + y * uy + z * uz) <= ptol)


def rank_classify(f: RegularSeries, q0: Quaternion) -> RankClass:
    """Rank of the differential from the expansion coefficients alone.

    Raises ValueError unless |q0|^2 is finite.
    """
    p = _point(q0)
    a1, a2 = _expansion_pair(f, p)
    tol = 1e-10 * max(1.0, f.coefficient_scale())
    if is_real(p):
        rank = Rank.RANK0 if _norm(a1) <= tol else Rank.RANK4
    elif _norm(a1) <= tol:
        rank = Rank.RANK0 if _norm(a2) <= tol else Rank.RANK2
    else:
        rank = Rank.RANK2 if _in_perp(p, a1, a2) else Rank.RANK4
    return RankClass(rank, a1, a2)


@dataclass(frozen=True)
class SingularityCertificate:
    singular: bool
    witness: Quaternion | None  # the q0-tilde of the factorization, if any


def _singularity(f: RegularSeries, p: Quaternion) -> tuple[bool, Q4 | None, Q4]:
    """(singular, witness, f(p)) for a polynomial f at a checked point p.

    The quotient of f - f(p) by (q - p) is probed for a zero on the
    sphere through p.  It is the quotient of f itself: synthetic
    division reads the constant coefficient only for the remainder.
    """
    scale = max(1.0, f.coefficient_scale())
    g, value = _divide_linear(f.coeffs, p)
    if not g:
        return False, None, value
    if is_real(p):
        # real point: singular iff (q - x0)^2 divides f - f(q0)
        if _norm(_horner(g, p)) <= 1e-8 * scale:
            return True, p, value
        return False, None, value
    w, r = p.w, p.im_norm()
    alpha, beta = _slice_values(g, w, r)
    if _norm(beta) <= 1e-9 * scale:
        if _norm(alpha) <= 1e-9 * scale:
            # g vanishes on the whole sphere: spherical multiplicity >= 2
            return True, p.conj(), value
        return False, None, value
    witness = _sphere_zero(g, w, r, alpha, beta, 1e-7, 1e-8 * scale)
    return witness is not None, witness, value


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
    return (_norm(_expansion(f.coeffs, p, sphere.x, 1)[1])
            <= 1e-9 * max(1.0, f.coefficient_scale()))
