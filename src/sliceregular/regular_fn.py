"""Quaternionic polynomials and truncated power series with right coefficients.

The ring operation is the star product (convolution of coefficient
sequences); conjugation and symmetrization turn zero finding into a
real-coefficient problem whose complex roots label the candidate
spheres.  Multiplicities are then extracted by synthetic division.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotReal, OutsideRadius, ZeroPolynomial
from .quat_core import ONE, Quaternion, Sphere, sphere_of, imag_unit, I as QI

# Tolerances for zero extraction (see module tests for their calibration).
CLUSTER_TOL = 1e-7       # merge radius for roots of the symmetrization
REAL_SNAP_TOL = 1e-8     # |Im| below this snaps a root to the real axis
DIVISION_TOL = 1e-8      # relative remainder norm accepted as exact division


def _trim(coeffs: tuple[Quaternion, ...]) -> tuple[Quaternion, ...]:
    n = len(coeffs)
    while n > 0 and coeffs[n - 1].is_zero():
        n -= 1
    return coeffs[:n]


@dataclass(frozen=True)
class RegularSeries:
    """f(q) = sum q^n a_n; radius = inf marks a polynomial."""

    coeffs: tuple[Quaternion, ...]
    radius: float = math.inf

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim(tuple(self.coeffs)))

    @staticmethod
    def polynomial(*coeffs: Quaternion) -> "RegularSeries":
        return RegularSeries(tuple(coeffs))

    @staticmethod
    def constant(a: Quaternion) -> "RegularSeries":
        return RegularSeries((a,))

    @staticmethod
    def identity() -> "RegularSeries":
        return RegularSeries((Quaternion(), ONE))

    @staticmethod
    def linear(p: Quaternion) -> "RegularSeries":
        """The monic linear factor q - p."""
        return RegularSeries((-p, ONE))

    @staticmethod
    def from_json(data) -> "RegularSeries":
        """{"coeffs": [[w, x, y, z], ...], "radius": r}; raises ValueError or
        TypeError unless every coefficient is four finite numbers and r > 0."""
        if not isinstance(data, dict) or "coeffs" not in data:
            raise ValueError(f'a series is an object with "coeffs", got {data!r}')
        radius = data.get("radius", "inf")
        r = math.inf if radius in ("inf", None) else float(radius)
        if not r > 0.0:
            raise ValueError(f"radius must be positive, got {radius!r}")
        return RegularSeries(tuple(Quaternion.from_json(c) for c in data["coeffs"]), r)

    def to_json(self) -> dict:
        r = "inf" if math.isinf(self.radius) else self.radius
        return {"coeffs": [c.to_json() for c in self.coeffs], "radius": r}

    @property
    def is_polynomial(self) -> bool:
        return math.isinf(self.radius)

    @property
    def degree(self) -> int:
        """Degree of the coefficient list; -1 for the zero series."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient_scale(self) -> float:
        return max((abs(c) for c in self.coeffs), default=0.0)

    def coeff(self, n: int) -> Quaternion:
        return self.coeffs[n] if 0 <= n < len(self.coeffs) else Quaternion()

    def __add__(self, other: "RegularSeries") -> "RegularSeries":
        n = max(len(self.coeffs), len(other.coeffs))
        return RegularSeries(tuple(self.coeff(k) + other.coeff(k) for k in range(n)),
                             min(self.radius, other.radius))

    def __sub__(self, other: "RegularSeries") -> "RegularSeries":
        n = max(len(self.coeffs), len(other.coeffs))
        return RegularSeries(tuple(self.coeff(k) - other.coeff(k) for k in range(n)),
                             min(self.radius, other.radius))

    def __neg__(self) -> "RegularSeries":
        return RegularSeries(tuple(-c for c in self.coeffs), self.radius)

    def shift(self, a: Quaternion) -> "RegularSeries":
        """f - a, subtracting a from the constant coefficient."""
        return self - RegularSeries.constant(a)


def star_mul(f: RegularSeries, g: RegularSeries) -> RegularSeries:
    """The star product: c_n = sum_{k<=n} a_k b_{n-k}."""
    if f.is_zero or g.is_zero:
        return RegularSeries((), min(f.radius, g.radius))
    out = [Quaternion() for _ in range(len(f.coeffs) + len(g.coeffs) - 1)]
    for k, a in enumerate(f.coeffs):
        for l, b in enumerate(g.coeffs):
            out[k + l] = out[k + l] + a * b
    return RegularSeries(tuple(out), min(f.radius, g.radius))


def star_power(f: RegularSeries, n: int) -> RegularSeries:
    out = RegularSeries((ONE,))
    for _ in range(n):
        out = star_mul(out, f)
    return out


def eval_series(f: RegularSeries, q: Quaternion) -> Quaternion:
    """Horner evaluation of sum q^n a_n; raises OutsideRadius for |q| >= R."""
    if not f.is_polynomial and abs(q) >= f.radius:
        raise OutsideRadius(f"|q| = {abs(q)} >= radius {f.radius}")
    acc = Quaternion()
    for a in reversed(f.coeffs):
        acc = q * acc + a
    return acc


def conjugate(f: RegularSeries) -> RegularSeries:
    """Coefficientwise quaternion conjugation f^c."""
    return RegularSeries(tuple(c.conj() for c in f.coeffs), f.radius)


def symmetrize(f: RegularSeries) -> RegularSeries:
    """f^s = f * f^c, which has real coefficients.

    Imaginary parts up to 1e-12 of the coefficient scale are truncated;
    anything larger signals an upstream arithmetic bug and raises NotReal.
    """
    fs = star_mul(f, conjugate(f))
    scale = max(1.0, fs.coefficient_scale())
    out = []
    for c in fs.coeffs:
        if c.im_norm() > 1e-12 * scale:
            raise NotReal(f"symmetrization coefficient {c} is not real")
        out.append(Quaternion(c.w))
    return RegularSeries(tuple(out), f.radius)


def divide_linear(f: RegularSeries, p: Quaternion) -> tuple[RegularSeries, Quaternion]:
    """Synthetic division f = (q - p) * g + r with constant remainder r = f(p)."""
    if not f.is_polynomial:
        raise ValueError("divide_linear expects a polynomial")
    if f.is_zero:
        return f, Quaternion()
    b = [Quaternion()] * max(len(f.coeffs) - 1, 0)
    acc = Quaternion()
    for n in range(len(f.coeffs) - 1, 0, -1):
        acc = f.coeffs[n] + p * acc
        b[n - 1] = acc
    r = f.coeffs[0] + p * acc
    return RegularSeries(tuple(b), f.radius), r


def divide_real_quadratic(f: RegularSeries, x: float, y: float
                          ) -> tuple[RegularSeries, RegularSeries]:
    """Divide by the real quadratic (q - x)^2 + y^2, returning (quotient, remainder).

    Real coefficients are central, so ordinary long division applies.
    """
    c1 = -2.0 * x
    c0 = x * x + y * y
    rem = list(f.coeffs)
    d = len(rem) - 1
    quot = [Quaternion()] * max(d - 1, 0)
    for n in range(d, 1, -1):
        b = rem[n]
        quot[n - 2] = b
        rem[n - 1] = rem[n - 1] - c1 * b
        rem[n - 2] = rem[n - 2] - c0 * b
    return RegularSeries(tuple(quot), f.radius), RegularSeries(tuple(rem[:2]), f.radius)


@dataclass(frozen=True)
class SphericalExpansion:
    """Coefficients A_n of f(q) = sum [(q-x0)^2+y0^2]^n [A_2n + (q-q0) A_2n+1]."""

    sphere: Sphere
    center: Quaternion
    coeffs: tuple[Quaternion, ...]

    def a(self, n: int) -> Quaternion:
        return self.coeffs[n] if n < len(self.coeffs) else Quaternion()

    def reconstruct(self, q: Quaternion) -> Quaternion:
        """Evaluate the expansion at q."""
        x0, y0 = self.sphere.x, self.sphere.y
        s = (q - Quaternion(x0)) * (q - Quaternion(x0)) + Quaternion(y0 * y0)
        lin = q - self.center
        out = Quaternion()
        p_even = ONE
        for n in range(0, len(self.coeffs), 2):
            out = out + p_even * self.a(n) + p_even * lin * self.a(n + 1)
            p_even = p_even * s
        return out


def spherical_expansion(f: RegularSeries, sphere: Sphere, q0: Quaternion,
                        n_coeffs: int) -> SphericalExpansion:
    """Expansion at x0 + y0 S about q0, by alternating division at q0 and at q0-bar.

    A_0 is the remainder at q0, A_1 the remainder of the quotient at
    x0 - I y0, and so on.
    """
    if not sphere.contains(q0, tol=1e-8):
        raise ValueError(f"center {q0} not on sphere {sphere}")
    if not f.is_polynomial:
        if math.hypot(sphere.x, sphere.y) >= f.radius:
            raise OutsideRadius("sphere not inside convergence radius")
        f = RegularSeries(f.coeffs)  # expand the truncation as a polynomial
    q0_bar = Quaternion(2.0 * sphere.x) - q0
    coeffs = []
    g = f
    for n in range(n_coeffs + 1):
        g, r = divide_linear(g, q0 if n % 2 == 0 else q0_bar)
        coeffs.append(r)
        if g.is_zero and len(coeffs) > n_coeffs:
            break
    return SphericalExpansion(sphere, q0, tuple(coeffs))


@dataclass
class ZeroSet:
    """Zeros of a polynomial: spheres with even spherical multiplicity 2m,
    and points with isolated multiplicity n."""

    spheres: list[tuple[Sphere, int]] = field(default_factory=list)
    points: list[tuple[Quaternion, int]] = field(default_factory=list)

    @property
    def total_multiplicity(self) -> int:
        return (sum(m for _, m in self.spheres)
                + sum(n for _, n in self.points))

    def to_json(self) -> dict:
        return {
            "spheres": [{"x": s.x, "y": s.y, "multiplicity": m}
                        for s, m in self.spheres],
            "points": [{"point": p.to_json(), "multiplicity": n}
                       for p, n in self.points],
        }


def slice_values(f: RegularSeries, x: float, y: float) -> tuple[Quaternion, Quaternion]:
    """(alpha, beta) with f(x + yI) = alpha + I beta for every I in S."""
    fp = eval_series(f, Quaternion(x, y))
    fm = eval_series(f, Quaternion(x, -y))
    alpha = 0.5 * (fp + fm)
    beta = (-QI) * (0.5 * (fp - fm))
    return alpha, beta


def _zero_on_sphere(f: RegularSeries, x: float, y: float,
                    scale: float) -> Quaternion | None:
    """The unique zero of f on x + yS, if any.

    Writes f(x + yI) = alpha + I beta; a zero exists iff -alpha beta^-1
    is an imaginary unit, and the candidate is accepted only if the
    division remainder at it is negligible.
    """
    alpha, beta = slice_values(f, x, y)
    if abs(beta) <= DIVISION_TOL * max(1.0, scale):
        return None
    cand = -(alpha * beta.inverse())
    if abs(cand.re()) > 1e-6 * max(1.0, abs(cand)):
        return None
    if abs(abs(cand) - 1.0) > 1e-6:
        return None
    unit = imag_unit(cand)  # snap to an exact imaginary unit
    p = Quaternion(x) + y * unit
    _, r = divide_linear(f, p)
    if abs(r) > DIVISION_TOL * max(1.0, scale):
        return None
    return p


def _merge(points: list[tuple[complex, int]], tol: float) -> list[tuple[complex, int]]:
    """Greedy merge of weighted points within tol, by weighted mean."""
    clusters: list[tuple[complex, int]] = []
    for z, k in points:
        for idx, (center, n) in enumerate(clusters):
            if abs(z - center) <= tol * (1.0 + abs(center)):
                clusters[idx] = ((center * n + z * k) / (n + k), n + k)
                break
        else:
            clusters.append((z, k))
    return clusters


def _cluster_roots(roots: np.ndarray) -> list[tuple[complex, int]]:
    """Fold to the closed upper half-plane and merge nearby roots.

    Conjugate pairs land on top of each other; perturbed multiple roots
    spread symmetrically, so the cluster mean cancels the leading error.
    A looser second pass absorbs sub-clusters of higher-order roots.
    """
    half = sorted((complex(z.real, abs(z.imag)) for z in roots),
                  key=lambda z: (z.real, z.imag))
    clusters = _merge([(z, 1) for z in half], CLUSTER_TOL)
    return _merge(clusters, 3e-5)


def _polish_simple_root(coeffs: np.ndarray, z0: complex) -> complex:
    """Guarded Newton iteration.

    Near a multiple root the tiny derivative amplifies round-off, so a
    polish that drifts beyond the cluster radius is discarded and the
    (already mean-cancelled) cluster center kept.
    """
    deriv = np.polyder(coeffs)
    z = z0
    for _ in range(8):
        dz = np.polyval(deriv, z)
        if dz == 0:
            break
        step = np.polyval(coeffs, z) / dz
        z = z - step
        if abs(step) < 1e-15 * (1.0 + abs(z)):
            break
    if abs(z - z0) > CLUSTER_TOL * (1.0 + abs(z0)):
        return z0
    return z


def zeros(f: RegularSeries) -> ZeroSet:
    """Zero set of a nonzero polynomial, with multiplicities.

    Roots of the symmetrization f^s seed candidate spheres and real
    points; spherical multiplicity is the largest power of
    (q-x)^2 + y^2 dividing f, and isolated chains are peeled off by
    synthetic division at zeros located on each sphere.  Raises
    ValueError when the coefficients of f^s overflow float64.
    """
    if f.is_zero:
        raise ZeroPolynomial("the zero polynomial vanishes identically")
    if not f.is_polynomial:
        raise ValueError("zeros is defined for polynomials only")
    out = ZeroSet()
    if f.degree == 0:
        return out
    scale = f.coefficient_scale()
    fs = symmetrize(f)
    fs_coeffs = np.array([c.w for c in reversed(fs.coeffs)])
    if not np.all(np.isfinite(fs_coeffs)):
        raise ValueError("the symmetrization f^s overflows float64")
    roots = np.roots(fs_coeffs)
    for center, _size in _cluster_roots(roots):
        # plain Newton converges (at least linearly) for any multiplicity
        z = _polish_simple_root(fs_coeffs, center)
        if abs(z.imag) <= REAL_SNAP_TOL * (1.0 + abs(z)):
            p = Quaternion(z.real)
            g, n = f, 0
            while not g.is_zero:
                g2, r = divide_linear(g, p)
                if abs(r) > DIVISION_TOL * max(1.0, scale):
                    break
                g, n = g2, n + 1
            if n > 0:
                out.points.append((p, n))
            continue
        x, y = z.real, abs(z.imag)
        g, m = f, 0
        while g.degree >= 2:
            g2, rem = divide_real_quadratic(g, x, y)
            if rem.coefficient_scale() > DIVISION_TOL * max(1.0, scale):
                break
            g, m = g2, m + 1
        if m > 0:
            out.spheres.append((Sphere(x, y), 2 * m))
        p1 = _zero_on_sphere(g, x, y, scale)
        if p1 is not None:
            n = 0
            while p1 is not None:
                g, _ = divide_linear(g, p1)
                n += 1
                first = p1 if n == 1 else first
                p1 = _zero_on_sphere(g, x, y, scale) if not g.is_zero else None
            out.points.append((first, n))
    return out


def quadratic_roots(alpha: Quaternion, beta: Quaternion) -> ZeroSet:
    """Zero set of (q - alpha) * (q - beta) in closed form.

    Distinct spheres give roots alpha and (alpha - beta-bar) beta
    (alpha - beta-bar)^-1; the same sphere gives a unique double root,
    or the whole sphere when alpha = beta-bar.
    """
    tol = 1e-10 * (1.0 + abs(alpha) + abs(beta))
    sa, sb = sphere_of(alpha), sphere_of(beta)
    same_sphere = abs(sa.x - sb.x) <= tol and abs(sa.y - sb.y) <= tol
    out = ZeroSet()
    if same_sphere and abs(alpha - beta.conj()) <= tol:
        if sa.y > tol:
            out.spheres.append((Sphere(sa.x, 0.5 * (sa.y + sb.y)), 2))
        else:
            out.points.append((alpha, 2))
    elif same_sphere:
        out.points.append((alpha, 2))
    else:
        d = alpha - beta.conj()
        second = d * beta * d.inverse()
        out.points.append((alpha, 1))
        out.points.append((second, 1))
    return out
