"""The real differential of a regular function and its rank structure.

Everything is driven by the first two expansion coefficients A1, A2 at
the sphere through the base point: the differential sends v to
v A1 + (q0 v - v q0-bar) A2, on the real axis, where the second term
vanishes, and off it alike.  The rank read off them is the one
singularity decision: is_singular and ocs.induced_ocs use it too.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .quat_core import I, J, K, ONE, Quaternion, Sphere, _last_call, hamilton
from .regular_fn import (Q4, RegularSeries, _check_radius, _expansion, _norm,
                         _terms)


@dataclass(frozen=True)
class RealLinearMap4:
    """A real-linear endomorphism of H = R^4 in the basis 1, i, j, k."""

    matrix: np.ndarray

    def apply(self, v: Quaternion) -> Quaternion:
        return Quaternion(*(self.matrix @ np.array(v)))

    def rank(self) -> int:
        """The number of singular values above 1e-8 of the largest."""
        s = np.linalg.svd(self.matrix, compute_uv=False)
        if s[0] == 0.0:
            return 0
        return int(np.sum(s > 1e-8 * s[0]))

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


def _expansion_at(f: RegularSeries, p: Quaternion) -> list[Quaternion]:
    """A0 = f(p), A1 and A2 about p on the sphere through p."""
    _check_radius(f, p.w, p.im_norm())
    return [Quaternion(*a) for a in _expansion(f.coeffs, p, p.w, 2)]


def _derivatives(f: RegularSeries, q0: Quaternion,
                 directions: tuple[Quaternion, ...]) -> list[Quaternion]:
    """v A1 + (q0 v - v q0-bar) A2 for each v: the derivatives along them."""
    p = _point(q0)
    _, a1, a2 = _expansion_at(f, p)
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


def _minus_quotient(a: Q4, b: Q4) -> Q4:
    """-a b^-1, with b^-1 = conj(b) * (1/|b|^2) as Quaternion.inverse
    computes it; where |b|^2 is not a normal float, a and b are first
    scaled by the power of two that brings b's largest component into
    [1/2, 1), which leaves the quotient as it is."""
    bw, bx, by, bz = b
    n = bw * bw + bx * bx + by * by + bz * bz
    if not sys.float_info.min <= n < math.inf:
        e = -math.frexp(max(map(abs, b)))[1]
        a = [math.ldexp(t, e) for t in a]
        bw, bx, by, bz = (math.ldexp(t, e) for t in b)
        n = bw * bw + bx * bx + by * by + bz * bz
    t = 1.0 / n
    cw, cx, cy, cz = hamilton(a, (bw * t, -bx * t, -by * t, -bz * t))
    return (-cw, -cx, -cy, -cz)


def _negligible(f: RegularSeries, a: Q4, r: float, order: int) -> bool:
    """Whether the expansion coefficient A_order of f on a sphere of norm r
    is within 1e-10 of the terms that cancel in it."""
    return _norm(a) <= 1e-10 * _terms(f.coeffs, r, order)


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


@_last_call
def _classify(f: RegularSeries, p: Quaternion
              ) -> tuple[Rank, Quaternion | None, Quaternion, Quaternion, Quaternion]:
    """(rank, witness, A0, A1, A2) at a checked point p: the one decision
    behind rank_classify, is_singular and induced_ocs, remembered for
    the very f and p of the last call.

    Below rank 4 the witness is the zero on the sphere of the linear
    part A1 + (q - p-bar) A2 of the quotient of f - f(p) by (q - p):
    p-bar - A1 A2^-1, or p-bar where A1 is negligible, with p-bar the
    point 2 Re(p) - p that the expansion divides at.
    """
    a0, a1, a2 = _expansion_at(f, p)
    r = abs(p)
    if _negligible(f, a1, r, 1):
        real = p.x == p.y == p.z == 0.0
        rank = Rank.RANK0 if real or _negligible(f, a2, r, 2) else Rank.RANK2
        return rank, Quaternion(2.0 * p.w) - p, a0, a1, a2
    if _in_perp(p, a1, a2):
        return Rank.RANK2, Quaternion(2.0 * p.w) - p - a1 * a2.inverse(), a0, a1, a2
    return Rank.RANK4, None, a0, a1, a2


def rank_classify(f: RegularSeries, q0: Quaternion) -> RankClass:
    """Rank of the differential from the expansion coefficients alone.

    The differential is v A1 on the complement of the slice through q0
    and v (A1 + 2 Im(q0) A2) on the slice, on the real axis and off it.
    So with A1 negligible the rank is 0 where 2 Im(q0) A2 vanishes, that
    is where A2 is negligible or q0 is real, and 2 elsewhere.  Raises
    ValueError unless |q0|^2 is finite.  A1 and A2 are negligible within
    1e-10 of the terms that cancel in them (their Taylor coefficients on
    the real axis), at any scale of f and q0.

    A repeat call with the very f and q0 of the last call here, in
    is_singular or in ocs.induced_ocs returns the remembered decision.
    """
    rank, _, _, a1, a2 = _classify(f, _point(q0))
    return RankClass(rank, a1, a2)


@dataclass(frozen=True)
class SingularityCertificate:
    singular: bool
    witness: Quaternion | None  # the q0-tilde of the factorization, if any


def is_singular(f: RegularSeries, q0: Quaternion) -> SingularityCertificate:
    """Whether f - f(q0) has total multiplicity >= 2 at the sphere through q0,
    that is whether the differential has rank below 4 there.

    The witness is the zero on that sphere of the quotient of f - f(q0)
    by (q - q0).  A constant is singular everywhere.  Raises ValueError
    for a series, or unless |q0|^2 is finite.  A repeat call with the
    very f and q0 of the last decision returns it, as in rank_classify.
    """
    if not f.is_polynomial:
        raise ValueError("is_singular expects a polynomial")
    rank, witness, *_ = _classify(f, _point(q0))
    return SingularityCertificate(rank is not Rank.RANK4, witness)


def is_degenerate_sphere(f: RegularSeries, sphere: Sphere) -> bool:
    """True iff f is constant on the sphere, i.e. A1 is negligible there
    as rank_classify reads it, at any scale of f."""
    if sphere.y <= 0:
        raise ValueError("degeneracy is defined for genuine spheres (y > 0)")
    p = _point(Quaternion(sphere.x, sphere.y))
    _check_radius(f, sphere.x, sphere.y)
    return _negligible(f, _expansion(f.coeffs, p, sphere.x, 1)[1], abs(p), 1)
