"""Quaternion arithmetic, imaginary units, spheres and the (u, v) chart.

A quaternion q = w + xi + yj + zk is a named 4-tuple of floats: it
unpacks, indexes and compares like (w, x, y, z), so the float kernels
take it as they take a plain 4-tuple.  Every non-real q decomposes
uniquely as Re(q) + I_q |Im(q)| with I_q an imaginary unit; the sphere
through q is x + yS with x = Re(q) and y = |Im(q)|.  The chart
phi(u, v) = (1 + uj)^-1 v (1 + uj) gives holomorphic coordinates on
the complement of the real axis.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

from .errors import NotUnit, RealArgument

# A quaternion counts as real when |Im(q)| <= REAL_EPS * max(1, |q|).
REAL_EPS = 1e-10
_new = tuple.__new__  # operators skip the NamedTuple's Python-level __new__


class Quaternion(NamedTuple):
    """q = w + xi + yj + zk with real components."""

    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0
    # numpy scalars defer to the operators below instead of treating
    # q as a sequence: np.float64(2) * q is a Quaternion, not an array
    __array_ufunc__ = None

    @staticmethod
    def from_complex(v: complex) -> "Quaternion":
        """Embed v = a + bi into the slice L_i."""
        return Quaternion(v.real, v.imag, 0.0, 0.0)

    @staticmethod
    def from_complex_pair(w1: complex, w2: complex) -> "Quaternion":
        """q = w1 + w2 j with w1, w2 in L_i."""
        return Quaternion(w1.real, w1.imag, w2.real, w2.imag)

    @staticmethod
    def from_json(data) -> "Quaternion":
        """[w, x, y, z]; raises ValueError unless these are four finite numbers."""
        if len(data) != 4:
            raise ValueError(f"a quaternion has four components, got {data!r}")
        w, x, y, z = (float(t) for t in data)
        if not all(map(math.isfinite, (w, x, y, z))):
            raise ValueError(f"non-finite quaternion component in {data!r}")
        return Quaternion(w, x, y, z)

    def to_json(self) -> list:
        return [self.w, self.x, self.y, self.z]

    def complex_pair(self) -> tuple[complex, complex]:
        """The splitting q = w1 + w2 j."""
        return complex(self.w, self.x), complex(self.y, self.z)

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return _new(Quaternion, (self.w + other.w, self.x + other.x,
                                 self.y + other.y, self.z + other.z))

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return _new(Quaternion, (self.w - other.w, self.x - other.x,
                                 self.y - other.y, self.z - other.z))

    def __neg__(self) -> "Quaternion":
        return _new(Quaternion, (-self.w, -self.x, -self.y, -self.z))

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            return _new(Quaternion, hamilton(self, other))
        return self.scale(float(other))

    def __rmul__(self, other):
        return self.scale(float(other))

    def scale(self, t: float) -> "Quaternion":
        return _new(Quaternion, (self.w * t, self.x * t, self.y * t, self.z * t))

    def __truediv__(self, t: float) -> "Quaternion":
        return self.scale(1.0 / t)

    def __abs__(self) -> float:
        return math.sqrt(self.norm_sq())

    def norm_sq(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def conj(self) -> "Quaternion":
        return _new(Quaternion, (self.w, -self.x, -self.y, -self.z))

    def inverse(self) -> "Quaternion":
        """conj(q) / |q|^2; raises ZeroDivisionError for q = 0 and for
        a q below about 5e-309 in size, whose inverse is beyond float64.

        Where |q|^2 underflows or overflows, q = 2^e s with |s| near 1
        and q^-1 = s^-1 2^-e, so any q whose inverse is in range has one.
        """
        n = self.norm_sq()
        if sys.float_info.min <= n < math.inf:  # a normal float
            return self.conj() / n
        m = max(map(abs, self))
        if m == 0.0:
            raise ZeroDivisionError("zero quaternion has no inverse")
        e = math.frexp(m)[1]
        s = Quaternion(*[math.ldexp(t, -e) for t in self])
        try:
            return Quaternion(*[math.ldexp(t, -e) for t in s.conj() / s.norm_sq()])
        except OverflowError:
            raise ZeroDivisionError(f"the inverse of {self} overflows float64") from None

    def re(self) -> float:
        return self.w

    def im(self) -> "Quaternion":
        return Quaternion(0.0, self.x, self.y, self.z)

    def im_norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def dot(self, other: "Quaternion") -> float:
        """Euclidean inner product on R^4."""
        return (self.w * other.w + self.x * other.x
                + self.y * other.y + self.z * other.z)

    def is_zero(self, tol: float = 0.0) -> bool:
        return abs(self) <= tol


ZERO = Quaternion()
ONE = Quaternion(1.0)
I = Quaternion(0.0, 1.0)
J = Quaternion(0.0, 0.0, 1.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


def hamilton(p: tuple, q: tuple) -> tuple:
    """Hamilton product of two (w, x, y, z) 4-tuples; i*j = k, j*k = i, k*i = j."""
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    return (pw * qw - px * qx - py * qy - pz * qz,
            pw * qx + px * qw + py * qz - pz * qy,
            pw * qy - px * qz + py * qw + pz * qx,
            pw * qz + px * qy - py * qx + pz * qw)


def is_real(q: tuple) -> bool:
    """|Im(q)| <= REAL_EPS * max(1, |q|) for any (w, x, y, z), the one
    real-axis test."""
    w, x, y, z = q
    return (math.sqrt(x * x + y * y + z * z)
            <= REAL_EPS * max(1.0, math.sqrt(w * w + x * x + y * y + z * z)))


def imag_unit(q: tuple) -> Quaternion:
    """I_q = Im(q)/|Im(q)|, the imaginary unit through any (w, x, y, z).

    Raises RealArgument on the real axis, where I_q is undefined.
    """
    if is_real(q):
        raise RealArgument(f"imaginary unit undefined at real point {Quaternion(*q)}")
    _, x, y, z = q
    n = math.sqrt(x * x + y * y + z * z)
    return Quaternion(0.0, x / n, y / n, z / n)


@dataclass(frozen=True)
class Sphere:
    """The sphere x + yS; y = 0 degenerates to the real point x."""

    x: float
    y: float

    def __post_init__(self):
        if self.y < 0:
            raise ValueError("sphere radius must be nonnegative")

    def contains(self, q: Quaternion, tol: float = 1e-9) -> bool:
        """Re q and |Im q| within tol of x and y, relative to max(|q|, |x| + y)."""
        s = max(math.hypot(*q), abs(self.x) + self.y)
        return (abs(q.w - self.x) <= tol * s
                and abs(math.hypot(q.x, q.y, q.z) - self.y) <= tol * s)

    def sample(self, count: int) -> list[Quaternion]:
        """Points of the sphere at evenly rotated imaginary units."""
        pts = []
        for n in range(count):
            a = 2.0 * math.pi * n / count
            b = math.pi * (2.0 * n + 1.0) / (2.0 * count)
            u = Quaternion(0.0, math.cos(a) * math.sin(b),
                           math.sin(a) * math.sin(b), math.cos(b))
            pts.append(Quaternion(self.x) + self.y * u)
        return pts


def sphere_of(q: Quaternion) -> Sphere:
    """The sphere Re(q) + |Im(q)| S through q."""
    return Sphere(q.re(), q.im_norm())


@dataclass(frozen=True)
class ChartPoint:
    """Coordinates (u, v) with q = (1+uj)^-1 v (1+uj); u None marks u = infinity."""

    u: complex | None
    v: complex

    @property
    def infinite(self) -> bool:
        return self.u is None


def _q_u(u: complex) -> Quaternion:
    return Quaternion(1.0, 0.0, u.real, u.imag)


def phi(c: ChartPoint) -> Quaternion:
    """q = Q_u^-1 v Q_u; only the finite-u chart."""
    if c.infinite:
        raise ValueError("phi is defined on the finite-u chart only")
    qu = _q_u(c.u)
    return qu.inverse() * Quaternion.from_complex(c.v) * qu


def phi_inverse(q: Quaternion) -> ChartPoint:
    """Chart coordinates of a non-real quaternion.

    v = Re(q) + i|Im(q)| lies in the closed upper half-plane and
    u = -i(b+ic)/(1+a) where I_q = ai + bj + ck; u is infinite exactly
    when I_q = -i.
    """
    unit = imag_unit(q)  # raises RealArgument on the real axis
    v = complex(q.re(), q.im_norm())
    a, b, c = unit.x, unit.y, unit.z
    if 1.0 + a <= 1e-14:
        return ChartPoint(None, v)
    u = -1j * complex(b, c) / (1.0 + a)
    return ChartPoint(u, v)


def conj_by_unit(eps: Quaternion, q: Quaternion) -> Quaternion:
    """eps^-1 q eps for unit eps; a rotation fixing the real axis."""
    if abs(abs(eps) - 1.0) > 1e-9:
        raise NotUnit(f"|eps| = {abs(eps)} is not 1")
    return eps.inverse() * q * eps
