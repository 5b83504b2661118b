"""Quaternionic polynomials and truncated power series with right coefficients.

The ring operation is the star product (convolution of coefficient
sequences); conjugation and symmetrization turn zero finding into a
real-coefficient problem whose complex roots label the candidate
spheres.  Multiplicities are then extracted by synthetic division.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import zip_longest

import numpy as np

from .errors import NotReal, OutsideRadius, ZeroPolynomial
from .quat_core import ONE, Quaternion, Sphere, hamilton

# Tolerances for zero extraction (see module tests for their calibration).
CLUSTER_TOL = 1e-7       # merge radius for roots of the symmetrization
REAL_SNAP_TOL = 1e-8     # |Im| below this snaps a root to the real axis
DIVISION_TOL = 1e-8      # relative remainder norm accepted as exact division


def _trim(coeffs, zero=(0.0, 0.0, 0.0, 0.0)):
    """Drop the trailing coefficients equal to zero, every component exactly 0.

    An exact test, not a norm: a norm underflows to 0 for coefficients
    below about 1e-162 and would drop them.
    """
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == zero:
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
        return _series(_add(self.coeffs, other.coeffs), min(self.radius, other.radius))

    def __sub__(self, other: "RegularSeries") -> "RegularSeries":
        return _series(_sub(self.coeffs, other.coeffs), min(self.radius, other.radius))

    def __neg__(self) -> "RegularSeries":
        return _series(_neg(self.coeffs), self.radius)

    def shift(self, a: Quaternion) -> "RegularSeries":
        """f - a, subtracting a from the constant coefficient."""
        return self - RegularSeries.constant(a)


# The kernels below work on plain floats: a quaternion is any 4-tuple
# (w, x, y, z), a Quaternion included, and a polynomial a sequence of
# them, constant term first.  What they build are exact tuples, which
# CPython unpacks on a faster path than a tuple subclass, so zeros()
# copies f's coefficients to exact tuples once.  Each kernel does its
# float operations in the order, and on the operands, of the Quaternion
# arithmetic it stands for, so its answers are bit for bit those of
# the object code (tests/test_regular_fn.py keeps the object versions
# as oracles).

Q4 = tuple[float, float, float, float]
_ZERO4: Q4 = (0.0, 0.0, 0.0, 0.0)
_ONE4: Q4 = (1.0, 0.0, 0.0, 0.0)
_MINUS_I: Q4 = (-0.0, -1.0, -0.0, -0.0)  # -I, signed zeros included


def _norm(a: Q4) -> float:
    w, x, y, z = a
    return math.sqrt(w * w + x * x + y * y + z * z)


def _series(coeffs, radius: float) -> RegularSeries:
    # tuple() of a list, not of a generator: a tuple grown from a
    # generator keeps its over-allocated memory for the series' lifetime
    return RegularSeries(tuple([Quaternion(*c) for c in coeffs]), radius)


def _add(a, b) -> list:
    """a + b: the shorter padded with zero coefficients, the result trimmed."""
    pairs = zip_longest(a, b, fillvalue=_ZERO4)
    return _trim([(aw + bw, ax + bx, ay + by, az + bz)
                  for (aw, ax, ay, az), (bw, bx, by, bz) in pairs])


def _sub(a, b) -> list:
    """a - b, padded and trimmed as _add does.  Not a + (-b): where b is
    the shorter, c - 0.0 keeps a -0.0 component that c + 0.0 clears."""
    pairs = zip_longest(a, b, fillvalue=_ZERO4)
    return _trim([(aw - bw, ax - bx, ay - by, az - bz)
                  for (aw, ax, ay, az), (bw, bx, by, bz) in pairs])


def _neg(a) -> list:
    return [(-w, -x, -y, -z) for w, x, y, z in a]


def _star_product(a: list, b: list) -> list:
    """c_n = sum_{k<=n} a_k b_{n-k}, summed from 0.0 over increasing k."""
    out = [_ZERO4] * (len(a) + len(b) - 1)
    for k, (pw, px, py, pz) in enumerate(a):
        for n, (qw, qx, qy, qz) in enumerate(b, k):
            ow, ox, oy, oz = out[n]
            # out_n + hamilton(a_k, b_{n-k}), inlined: this is the hot loop
            out[n] = (ow + (pw * qw - px * qx - py * qy - pz * qz),
                      ox + (pw * qx + px * qw + py * qz - pz * qy),
                      oy + (pw * qy - px * qz + py * qw + pz * qx),
                      oz + (pw * qz + px * qy - py * qx + pz * qw))
    return out


def _star_mul(a: list, b: list) -> list:
    """The trimmed star product; the zero series has no coefficients."""
    return _trim(_star_product(a, b)) if a and b else []


def _star_power(coeffs: list, n: int) -> list:
    """f^n as n star products from 1: binary exponentiation would round
    differently."""
    out = [_ONE4]
    for _ in range(n):
        out = _star_mul(out, coeffs)
    return out


def _divide_linear(coeffs: list, p: Q4) -> tuple[list, Q4]:
    """Synthetic division by q - p: (quotient, remainder), the remainder
    being the Horner value at p."""
    pw, px, py, pz = p
    quot = [_ZERO4] * max(len(coeffs) - 1, 0)
    aw = ax = ay = az = 0.0
    for n in range(len(coeffs) - 1, -1, -1):
        cw, cx, cy, cz = coeffs[n]
        # acc = c_n + p * acc, with hamilton(p, acc) inlined: this is the hot loop
        aw, ax, ay, az = (cw + (pw * aw - px * ax - py * ay - pz * az),
                          cx + (pw * ax + px * aw + py * az - pz * ay),
                          cy + (pw * ay - px * az + py * aw + pz * ax),
                          cz + (pw * az + px * ay - py * ax + pz * aw))
        if n:
            quot[n - 1] = (aw, ax, ay, az)
    return _trim(quot), (aw, ax, ay, az)


def _horner(coeffs, p: Q4) -> Q4:
    """The Horner value at p: _divide_linear's remainder, without the quotient."""
    pw, px, py, pz = p
    aw = ax = ay = az = 0.0
    for cw, cx, cy, cz in reversed(coeffs):
        aw, ax, ay, az = (cw + (pw * aw - px * ax - py * ay - pz * az),
                          cx + (pw * ax + px * aw + py * az - pz * ay),
                          cy + (pw * ay - px * az + py * aw + pz * ax),
                          cz + (pw * az + px * ay - py * ax + pz * aw))
    return aw, ax, ay, az


def _divide_real_quadratic(coeffs: list, x: float, y: float) -> tuple[list, list]:
    c1 = -2.0 * x
    c0 = x * x + y * y
    rem = list(coeffs)
    d = len(rem) - 1
    quot = [_ZERO4] * max(d - 1, 0)
    for n in range(d, 1, -1):
        bw, bx, by, bz = quot[n - 2] = rem[n]
        w, x1, y1, z1 = rem[n - 1]
        rem[n - 1] = (w - bw * c1, x1 - bx * c1, y1 - by * c1, z1 - bz * c1)
        w, x1, y1, z1 = rem[n - 2]
        rem[n - 2] = (w - bw * c0, x1 - bx * c0, y1 - by * c0, z1 - bz * c0)
    return _trim(quot), _trim(rem[:2])


def _slice_values(coeffs: list, x: float, y: float) -> tuple[Q4, Q4]:
    # _horner at (x, y, 0, 0) and (x, -y, 0, 0) at once; 0.0 * a keeps its signed zeros
    aw = ax = ay = az = bw = bx = by = bz = 0.0
    m = -y
    for cw, cx, cy, cz in reversed(coeffs):
        aw, ax, ay, az, bw, bx, by, bz = (cw + (x * aw - y * ax - 0.0 * ay - 0.0 * az),
                                          cx + (x * ax + y * aw + 0.0 * az - 0.0 * ay),
                                          cy + (x * ay - y * az + 0.0 * aw + 0.0 * ax),
                                          cz + (x * az + y * ay - 0.0 * ax + 0.0 * aw),
                                          cw + (x * bw - m * bx - 0.0 * by - 0.0 * bz),
                                          cx + (x * bx + m * bw + 0.0 * bz - 0.0 * by),
                                          cy + (x * by - m * bz + 0.0 * bw + 0.0 * bx),
                                          cz + (x * bz + m * by - 0.0 * bx + 0.0 * bw))
    alpha = ((aw + bw) * 0.5, (ax + bx) * 0.5, (ay + by) * 0.5, (az + bz) * 0.5)
    beta = hamilton(_MINUS_I, ((aw - bw) * 0.5, (ax - bx) * 0.5,
                               (ay - by) * 0.5, (az - bz) * 0.5))
    return alpha, beta


def _symmetrize(coeffs: list) -> list[float]:
    """Coefficients of f^s = f * f^c, constant term first; raises NotReal."""
    conj = [(w, -x, -y, -z) for w, x, y, z in coeffs]
    fs = _trim(_star_product(coeffs, conj))
    scale = max(1.0, max(map(_norm, fs), default=0.0))
    for w, x, y, z in fs:
        if math.sqrt(x * x + y * y + z * z) > 1e-12 * scale:
            raise NotReal(f"symmetrization coefficient {Quaternion(w, x, y, z)} "
                          "is not real")
    return _trim([w for w, *_ in fs], 0.0)


def star_mul(f: RegularSeries, g: RegularSeries) -> RegularSeries:
    """The star product: c_n = sum_{k<=n} a_k b_{n-k}."""
    return _series(_star_mul(f.coeffs, g.coeffs), min(f.radius, g.radius))


def star_power(f: RegularSeries, n: int) -> RegularSeries:
    # f^0 is the polynomial 1, whatever the radius of f
    return _series(_star_power(f.coeffs, n), f.radius if n else math.inf)


def eval_series(f: RegularSeries, q: Quaternion) -> Quaternion:
    """Horner evaluation of sum q^n a_n; raises OutsideRadius for |q| >= R."""
    if not f.is_polynomial and abs(q) >= f.radius:
        raise OutsideRadius(f"|q| = {abs(q)} >= radius {f.radius}")
    return Quaternion(*_horner(f.coeffs, q))


def conjugate(f: RegularSeries) -> RegularSeries:
    """Coefficientwise quaternion conjugation f^c."""
    return RegularSeries(tuple(c.conj() for c in f.coeffs), f.radius)


def symmetrize(f: RegularSeries) -> RegularSeries:
    """f^s = f * f^c, which has real coefficients.

    Imaginary parts up to 1e-12 of the coefficient scale are truncated;
    anything larger signals an upstream arithmetic bug and raises NotReal.
    """
    if f.is_zero:
        return RegularSeries((), f.radius)
    ws = _symmetrize(f.coeffs)
    return _series([(w,) for w in ws], f.radius)


def divide_linear(f: RegularSeries, p: Quaternion) -> tuple[RegularSeries, Quaternion]:
    """Synthetic division f = (q - p) * g + r with constant remainder r = f(p)."""
    if not f.is_polynomial:
        raise ValueError("divide_linear expects a polynomial")
    quot, r = _divide_linear(f.coeffs, p)
    return _series(quot, f.radius), Quaternion(*r)


def divide_real_quadratic(f: RegularSeries, x: float, y: float
                          ) -> tuple[RegularSeries, RegularSeries]:
    """Divide by the real quadratic (q - x)^2 + y^2, returning (quotient, remainder).

    Real coefficients are central, so ordinary long division applies.
    """
    quot, rem = _divide_real_quadratic(f.coeffs, x, y)
    return _series(quot, f.radius), _series(rem, f.radius)


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
    _check_radius(f, sphere.x, sphere.y)
    coeffs = _expansion(f.coeffs, q0, sphere.x, n_coeffs)
    return SphericalExpansion(sphere, q0, tuple([Quaternion(*c) for c in coeffs]))


def _check_radius(f: RegularSeries, x: float, y: float) -> None:
    """Raise OutsideRadius unless the sphere x + yS lies inside f's radius.

    A series is then expanded as the polynomial of its truncation.
    """
    if not f.is_polynomial and math.hypot(x, y) >= f.radius:
        raise OutsideRadius("sphere not inside convergence radius")


def _expansion(coeffs: list, p: Q4, x: float, n_coeffs: int) -> list[Q4]:
    """A_0, ..., A_n about p on a sphere with real part x: the remainders
    of alternating synthetic division at p and at 2x - p."""
    pw, px, py, pz = p
    p_bar = (2.0 * x - pw, 0.0 - px, 0.0 - py, 0.0 - pz)  # Quaternion(2x) - p
    out = []
    for n in range(n_coeffs + 1):
        coeffs, r = _divide_linear(coeffs, p_bar if n % 2 else p)
        out.append(r)
    return out


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
    alpha, beta = _slice_values(f.coeffs, x, y)
    return Quaternion(*alpha), Quaternion(*beta)


def _minus_quotient(a: Q4, b: Q4) -> Q4:
    """-a b^-1, with b^-1 = conj(b) * (1/|b|^2) as Quaternion.inverse
    computes it where |b|^2 is a normal float."""
    bw, bx, by, bz = b
    t = 1.0 / (bw * bw + bx * bx + by * by + bz * bz)
    cw, cx, cy, cz = hamilton(a, (bw * t, -bx * t, -by * t, -bz * t))
    return (-cw, -cx, -cy, -cz)


def _sphere_zero(coeffs: list, x: float, y: float, alpha: Q4, beta: Q4,
                 unit_tol: float, tol: float) -> Q4 | None:
    """The one zero of f on x + yS that is not the whole sphere, if any.

    With f(x + yI) = alpha + I beta and beta nonzero, a zero exists iff
    c = -alpha beta^-1 is an imaginary unit, to unit_tol; it is then
    x + yc, with c snapped to unit length, and is accepted only if the
    division remainder there is within tol.
    """
    c = _minus_quotient(alpha, beta)
    size = _norm(c)
    if abs(c[0]) > unit_tol * max(1.0, size) or abs(size - 1.0) > unit_tol:
        return None
    _, ux, uy, uz = c
    n = math.sqrt(ux * ux + uy * uy + uz * uz)
    p = (x + 0.0 * y, 0.0 + ux / n * y, 0.0 + uy / n * y, 0.0 + uz / n * y)
    return p if _norm(_horner(coeffs, p)) <= tol else None


def _zero_on_sphere(coeffs: list, x: float, y: float, tol: float) -> Q4 | None:
    """The isolated zero of f on x + yS, if any; none where beta is
    within tol of 0."""
    alpha, beta = _slice_values(coeffs, x, y)
    if _norm(beta) <= tol:
        return None
    return _sphere_zero(coeffs, x, y, alpha, beta, 1e-6, tol)


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


def _polish(coeffs: np.ndarray, centers: list[complex]) -> list[complex]:
    """Guarded Newton iteration on f^s from every cluster center at once.

    Each root steps until the derivative vanishes there, the step falls
    below 1e-15 relative, or 8 steps are done.  Near a multiple root the
    tiny derivative amplifies round-off, so a polish that drifts beyond
    the cluster radius is discarded and the (already mean-cancelled)
    cluster center kept.  Moduli are hypot(re, im), as abs() of a
    complex scalar computes them.  Where f^s or its derivative overflows
    at a point, the step is not finite and the center is kept too.

    Each step evaluates f^s and its derivative in one Horner loop over
    the live points taken twice, against the coefficient rows
    [c_k]*m + [d_k]*m.  The derivative, padded with a leading 0.0,
    starts from exact zeros as np.polyval's zeros_like does, so every
    point sees the complex operations np.polyval would do.
    """
    if not centers:
        return []
    rows = np.stack((coeffs, np.concatenate(([0.0], np.polyder(coeffs)))), axis=1)
    z0 = np.array(centers, dtype=complex)
    z = z0.copy()
    live = np.arange(len(z))
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(8):
            m = live.size
            x = np.concatenate((z[live], z[live]))
            y = np.zeros_like(x)
            for row in np.repeat(rows, m, axis=1):
                y = y * x + row
            moving = y[m:] != 0
            live = live[moving]
            step = y[:m][moving] / y[m:][moving]
            z[live] -= step
            zl = z[live]
            done = ~(np.hypot(step.real, step.imag)
                     >= 1e-15 * (1.0 + np.hypot(zl.real, zl.imag)))
            live = live[~done]
            if not live.size:
                break
        d = z - z0
        drifted = ~(np.hypot(d.real, d.imag)
                    <= CLUSTER_TOL * (1.0 + np.hypot(z0.real, z0.imag)))
    z[drifted] = z0[drifted]
    return z.tolist()


def zeros(f: RegularSeries) -> ZeroSet:
    """Zero set of a nonzero polynomial, with multiplicities.

    Roots of the symmetrization f^s seed candidate spheres and real
    points; spherical multiplicity is the largest power of
    (q-x)^2 + y^2 dividing f, and isolated chains are peeled off by
    synthetic division at zeros located on each sphere.  Raises
    ValueError when the coefficients of f^s or of its monic companion
    matrix overflow float64, or when its leading coefficient underflows
    to 0.
    """
    if f.is_zero:
        raise ZeroPolynomial("the zero polynomial vanishes identically")
    if not f.is_polynomial:
        raise ValueError("zeros is defined for polynomials only")
    out = ZeroSet()
    if f.degree == 0:
        return out
    coeffs = list(map(tuple, f.coeffs))
    tol = DIVISION_TOL * max(1.0, f.coefficient_scale())
    fs_coeffs = np.array(_symmetrize(coeffs)[::-1])
    if not np.all(np.isfinite(fs_coeffs)):
        raise ValueError("the symmetrization f^s overflows float64")
    if len(fs_coeffs) <= 2 * f.degree:
        # the leading coefficient |a_d|^2 underflowed, taking roots with it
        raise ValueError("the symmetrization f^s underflows float64")
    with np.errstate(over="ignore"):
        monic = fs_coeffs[1:] / fs_coeffs[0]
    if not np.all(np.isfinite(monic)):
        raise ValueError("the companion matrix of f^s overflows float64")
    clusters = _cluster_roots(np.roots(fs_coeffs))
    # plain Newton converges (at least linearly) for any multiplicity
    for z in _polish(fs_coeffs, [center for center, _size in clusters]):
        if abs(z.imag) <= REAL_SNAP_TOL * (1.0 + abs(z)):
            p = (z.real, 0.0, 0.0, 0.0)
            g, n = coeffs, 0
            while g:
                g2, r = _divide_linear(g, p)
                if _norm(r) > tol:
                    break
                g, n = g2, n + 1
            if n > 0:
                out.points.append((Quaternion(*p), n))
            continue
        x, y = z.real, abs(z.imag)
        g, m = coeffs, 0
        while len(g) >= 3:
            g2, rem = _divide_real_quadratic(g, x, y)
            if max(map(_norm, rem), default=0.0) > tol:
                break
            g, m = g2, m + 1
        if m > 0:
            out.spheres.append((Sphere(x, y), 2 * m))
        p1 = _zero_on_sphere(g, x, y, tol)
        if p1 is not None:
            first, n = p1, 0
            while p1 is not None:
                g, _ = _divide_linear(g, p1)
                n += 1
                p1 = _zero_on_sphere(g, x, y, tol) if g else None
            out.points.append((Quaternion(*first), n))
    return out

