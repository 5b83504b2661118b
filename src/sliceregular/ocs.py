"""Orthogonal complex structures on H minus the real axis.

The standard structure acts on tangent vectors by left multiplication
by I_q; a regular function pushes it forward to left multiplication by
the same I_q at the image point.  Linear fractional transformations and
the subgroup preserving the standard structure round out the toolkit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PoleHit, SingularPoint
from .quat_core import I, J, K, ONE, Quaternion, conj_by_unit, imag_unit
from .regular_fn import RegularSeries, eval_series
from .differential import _point, _singularity

__all__ = [
    "OCSValue", "MobiusCoeffs", "j_standard", "induced_ocs", "mobius",
    "is_so2h", "conj_by_unit",
]


@dataclass(frozen=True)
class OCSValue:
    """A constant-coefficient complex structure v -> I v with I an imaginary unit."""

    unit: Quaternion

    def apply(self, v: Quaternion) -> Quaternion:
        return self.unit * v

    def matrix(self) -> np.ndarray:
        """Left-multiplication matrix in the basis 1, i, j, k."""
        return np.array([self.apply(e) for e in (ONE, I, J, K)]).T

    def close_to(self, other: "OCSValue", tol: float = 1e-9) -> bool:
        return abs(self.unit - other.unit) <= tol

    def __neg__(self) -> "OCSValue":
        return OCSValue(-self.unit)


def j_standard(q: Quaternion) -> OCSValue:
    """The standard structure at q, left multiplication by I_q."""
    return OCSValue(imag_unit(q))


def induced_ocs(f: RegularSeries, q: Quaternion) -> tuple[Quaternion, OCSValue]:
    """The push-forward structure of f at f(q).

    The structure at the image point is left multiplication by I_q (not
    by the imaginary unit of the image).  Fails with SingularPoint where
    the differential of f is not invertible, and with ValueError unless
    |q|^2 is finite.  The singularity test computes f(q) on the way.
    """
    p = _point(q)
    unit = imag_unit(p)  # RealArgument on the real axis
    if not f.is_polynomial:
        return eval_series(f, q), OCSValue(unit)
    singular, _, value = _singularity(f, p)
    if singular:
        raise SingularPoint(f"differential of f not invertible at {q}")
    return Quaternion(*value), OCSValue(unit)


@dataclass(frozen=True)
class MobiusCoeffs:
    """Coefficients of q -> (qc + d)^-1 (qa + b)."""

    a: Quaternion
    b: Quaternion
    c: Quaternion
    d: Quaternion

    def __post_init__(self):
        if not self.invertible():
            raise ValueError("coefficients fail the invertibility condition")

    def determinant(self) -> float:
        return _determinant(self.a, self.b, self.c, self.d)

    def invertible(self) -> bool:
        """|determinant| > 1e-12 (|a|^2 + |b|^2 + |c|^2 + |d|^2)^2.

        Both sides are homogeneous of degree 4, so the test is made on
        the coefficients scaled by the one power of two that brings the
        largest component into [1/2, 1): the fourth powers then stay in
        range at any scale.  All-zero coefficients fail it.
        """
        coeffs = (self.a, self.b, self.c, self.d)
        m = max(abs(t) for q in coeffs for t in q)
        if m == 0.0:
            return False
        e = math.frexp(m)[1]
        a, b, c, d = (Quaternion(*[math.ldexp(t, -e) for t in q]) for q in coeffs)
        n = a.norm_sq() + b.norm_sq() + c.norm_sq() + d.norm_sq()
        return abs(_determinant(a, b, c, d)) > 1e-12 * (n * n)


def _determinant(a: Quaternion, b: Quaternion, c: Quaternion, d: Quaternion) -> float:
    return (a.norm_sq() * d.norm_sq() + b.norm_sq() * c.norm_sq()
            - 2.0 * (b.conj() * d * c.conj() * a).re())


def mobius(m: MobiusCoeffs, q: Quaternion) -> Quaternion:
    """The linear fractional transformation (qc + d)^-1 (qa + b).

    Raises PoleHit where |qc + d| <= 1e-12 (|q||c| + |d|), a test that
    does not depend on the scale of q or of the coefficients, and
    ValueError when q is not finite or a value overflows float64.
    Moduli are hypot()s, which do not overflow.
    """
    denom = q * m.c + m.d
    numer = q * m.a + m.b
    # a non-finite q makes one of them non-finite too (inf * 0 is NaN)
    if not all(map(math.isfinite, (*denom, *numer))):
        raise ValueError(f"the point must be finite with qc + d and qa + b "
                         f"finite in float64, got {q}")
    size = math.hypot(*q) * math.hypot(*m.c) + math.hypot(*m.d)
    if math.hypot(*denom) <= 1e-12 * size:
        raise PoleHit(f"qc + d vanishes at {q}")
    try:
        value = denom.inverse() * numer
    except ZeroDivisionError:  # qc + d is too small to invert in float64
        raise ValueError(f"the value overflows float64 at {q}") from None
    if not all(map(math.isfinite, value)):
        raise ValueError(f"the value overflows float64 at {q}")
    return value


def is_so2h(m: MobiusCoeffs, tol: float = 1e-10) -> bool:
    """Whether all four coefficients are real multiples of one unit, to tol relative."""
    coeffs = [m.a, m.b, m.c, m.d]
    ref = max(coeffs, key=lambda c: math.hypot(*c))
    scale = math.hypot(*ref)  # > 0: the coefficients are invertible
    eps = Quaternion(*(t / scale for t in ref))  # 1 / scale overflows below 6e-309
    for c in coeffs:
        t = c.dot(eps)
        if math.hypot(*(c - t * eps)) > tol * scale:
            return False
    return True
