"""The real differential of a regular function and its rank structure.

Everything is driven by the first two expansion coefficients A1, A2 at
the sphere through the base point: the differential sends v to
v A1 + (q0 v - v q0-bar) A2, on the real axis, where the second term
vanishes, and off it alike.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .quat_core import I, J, K, ONE, Quaternion, Sphere, hamilton, is_real
from .regular_fn import (Q4, RegularSeries, _check_radius, _divide_linear,
                         _expansion, _horner, _minus_quotient, _norm,
                         _slice_values, _sphere_zero, _terms)


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


def _derivatives(f: RegularSeries, q0: Quaternion,
                 directions: tuple[Quaternion, ...]) -> list[Quaternion]:
    """v A1 + (q0 v - v q0-bar) A2 for each v: the derivatives along them."""
    p = _point(q0)
    a1, a2 = _expansion_pair(f, p)
    return [v * a1 + (p * v - v * p.conj()) * a2 for v in directions]


def directional_derivative(f: RegularSeries, q0: Quaternion,
                           v: Quaternion) -> Quaternion:
    """Derivative of f along unit v at q0: v A1 + (q0 v - v q0-bar) A2.

    v is normalized, after scaling by a power of two where |v|^2 is not
    a normal float.  Raises ValueError for a zero or non-finite v, or
    unless |q0|^2 is finite.
    """
    if not all(map(math.isfinite, v)):
        raise ValueError(f"direction must be finite, got {v}")
    if not sys.float_info.min <= v.norm_sq() < math.inf:
        m = max(map(abs, v))
        if m == 0.0:
            raise ValueError("direction must be nonzero")
        e = math.frexp(m)[1]
        v = Quaternion(*[math.ldexp(t, -e) for t in v])
    n = abs(v)
    if abs(n - 1.0) > 1e-12:
        v = v / n
    return _derivatives(f, q0, (v,))[0]


def differential_at(f: RegularSeries, q0: Quaternion) -> RealLinearMap4:
    """The 4x4 real matrix of the differential of f at q0: column k is the
    derivative along the k-th of 1, i, j, k, on the real axis and off it.
    Raises ValueError unless |q0|^2 is finite."""
    return RealLinearMap4(np.array(_derivatives(f, q0, (ONE, I, J, K))).T)


def _in_perp(p: Quaternion, a1: Q4, a2: Q4) -> bool:
    """Whether 1 + 2 Im(p) A2 A1^-1 is orthogonal to 1 and to I_p, with
    the Quaternion operators inlined: rank_classify is on the hot path
    of the fibre classification.  On the real axis the quotient is 1,
    which fails the first test before I_p is needed."""
    _, px, py, pz = p
    # ONE + d as ONE - (-d), the same floats in IEEE arithmetic
    d = hamilton((0.0, px * 2.0, py * 2.0, pz * 2.0), a2)
    nw, nx, ny, nz = _minus_quotient(d, a1)
    w, x, y, z = 1.0 - nw, 0.0 - nx, 0.0 - ny, 0.0 - nz
    ptol = 1e-9 * (1.0 + math.sqrt(w * w + x * x + y * y + z * z))
    if not abs(w * 1.0 + x * 0.0 + y * 0.0 + z * 0.0) <= ptol:
        return False
    n = math.sqrt(px * px + py * py + pz * pz)  # imag_unit(p), also where is_real(p)
    return abs(w * 0.0 + x * (px / n) + y * (py / n) + z * (pz / n)) <= ptol


def rank_classify(f: RegularSeries, q0: Quaternion) -> RankClass:
    """Rank of the differential from the expansion coefficients alone.

    The differential is v A1 on the complement of the slice through q0
    and v (A1 + 2 Im(q0) A2) on the slice, on the real axis and off it.
    So with A1 negligible the rank is 0 where 2 Im(q0) A2 vanishes, that
    is where A2 is negligible or q0 is real, and 2 elsewhere.  Raises
    ValueError unless |q0|^2 is finite.  A1 and A2 are negligible within
    1e-10 of the terms that cancel in them (their Taylor coefficients on
    the real axis), at any scale of f and q0.
    """
    p = _point(q0)
    a1, a2 = _expansion_pair(f, p)
    r = abs(p)
    if _norm(a1) <= 1e-10 * _terms(f.coeffs, r, 1):
        real = p.x == p.y == p.z == 0.0
        rank = (Rank.RANK0 if real or _norm(a2) <= 1e-10 * _terms(f.coeffs, r, 2)
                else Rank.RANK2)
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
    Its values on the sphere are gated against the terms that cancel
    in them, sum n |a_n| |p|^(n-1), so the verdict holds at any scale
    of f.
    """
    terms = _terms(f.coeffs, abs(p), 1)
    g, value = _divide_linear(f.coeffs, p)
    if not g:
        return False, None, value
    if is_real(p):
        # real point: singular iff A1 = g(q0-bar), which is f'(x0) on the
        # real axis, vanishes
        if _norm(_horner(g, p.conj())) <= 1e-8 * terms:
            return True, p, value
        return False, None, value
    w, r = p.w, p.im_norm()
    alpha, beta = _slice_values(g, w, r)
    if _norm(beta) <= 1e-9 * terms:
        if _norm(alpha) <= 1e-9 * terms:
            # g vanishes on the whole sphere: spherical multiplicity >= 2
            return True, p.conj(), value
        return False, None, value
    witness = _sphere_zero(g, w, r, alpha, beta, 1e-7, 1e-8 * terms)
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
    """True iff f is constant on the sphere, i.e. A1 vanishes there
    against the terms that cancel in it, at any scale of f."""
    if sphere.y <= 0:
        raise ValueError("degeneracy is defined for genuine spheres (y > 0)")
    p = _point(Quaternion(sphere.x, sphere.y))
    _check_radius(f, sphere.x, sphere.y)
    return (_norm(_expansion(f.coeffs, p, sphere.x, 1)[1])
            <= 1e-9 * _terms(f.coeffs, abs(p), 1))
