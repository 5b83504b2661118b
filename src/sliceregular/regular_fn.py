"""Quaternionic polynomials and truncated power series with right coefficients.

The ring operation is the star product (convolution of coefficient
sequences).  The zeros of f lie on the spheres x + yS whose x + yi are
roots of the symmetrization f^s; they come from the eigenvalues of a
complex block companion of f, and their multiplicities from how those
eigenvalues group.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from itertools import chain, zip_longest

import numpy as np

from .errors import ConditioningWarning, NotReal, OutsideRadius, ZeroPolynomial
from .quat_core import ONE, Quaternion, Sphere, hamilton

# Tolerances of the zero finder, both relative backward errors, chosen
# on the 10,000 polynomials of the benchmark's zeros-stream seeds 1-10:
# the one its grouping allows the companion's eigenvalues, and the one
# within which a value counts as zero against the terms that cancel in it.
GROUP_TOL = 1e-7
RESIDUAL_TOL = 1e-8


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


def _slice_pair(coeffs, v):
    """(g(v), h(v), g(v-bar), h(v-bar)) for a_n = b_n + c_n j, by one complex
    Horner loop, g = b_n + v g and h = c_n + v h, for v and v-bar at once;
    v is a complex number or an array of them.

    On a complex v these are eval_series's floats: its quaternion Horner
    step at v in L_i does the same products in the same order, and adds
    the zero products of the j-part besides, which change only the sign
    of an exactly zero sum, and so a value only where a coefficient has
    a -0.0 component.
    """
    vc = v.conjugate()
    g = h = gc = hc = 0j
    for w, x, y, z in reversed(coeffs):
        b, c = complex(w, x), complex(y, z)
        g, h, gc, hc = b + v * g, c + v * h, b + vc * gc, c + vc * hc
    return g, h, gc, hc


# zeros() works on complex pairs: a quaternion b + cj is the pair (b, c),
# and (b, c)(b', c') = (b b' - c conj(c'), b c' + c conj(b')).


def _pair_mul(b, c, b2, c2):
    return b * b2 - c * c2.conjugate(), b * c2 + c * b2.conjugate()


def _scaled_monic(coeffs: list) -> tuple[list, np.ndarray, int]:
    """(e, w, k): the monic e_n = 2^(k(n-d)) a_n a_d^-1, whose zeros are
    f's times 2^-k, and the 2d eigenvalues w of its complex block
    companion, each coefficient entering as its adjoint [[b, c],
    [-conj c, conj b]]: they are the roots of e^s (Seródio, Pereira &
    Vitória, 2001).  2^k rounds M = max |a_n / a_d|^(1/(d-n)), with a_0 / 2
    for a_0, to a power of two, so that the zeros are at most the
    Fujiwara bound 2 M 2^-k <= 2 sqrt 2; exponents come first, so that
    nothing overflows."""
    if not all(map(math.isfinite, chain.from_iterable(coeffs))):
        raise ValueError("the companion matrix of f overflows float64: "
                         "a coefficient is not finite")
    d = len(coeffs) - 1
    exps = [math.frexp(max(map(abs, a)))[1] for a in coeffs]
    logs = [math.log2(math.hypot(*[math.ldexp(t, -x) for t in a])) + x if any(a) else -math.inf
            for a, x in zip(coeffs, exps)]
    logs[0] -= 1.0
    k = round(max((logs[n] - logs[d]) / (d - n) for n in range(d)))
    lw, lx, ly, lz = (math.ldexp(t, -exps[d]) for t in coeffs[d])
    s = 1.0 / (lw * lw + lx * lx + ly * ly + lz * lz)
    inv = (lw * s, -lx * s, -ly * s, -lz * s)  # a_d^-1 2^exps[d]
    e = [hamilton([math.ldexp(t, k * (n - d) - exps[d]) for t in a], inv)
         for n, a in enumerate(coeffs[:d])]
    b = np.array([complex(w, x) for w, x, _, _ in e])
    c = np.array([complex(y, z) for _, _, y, z in e])
    m = np.zeros((2 * d, 2 * d), complex)
    m[2:, :-2] = np.eye(2 * d - 2)
    m[0::2, -2], m[0::2, -1] = -b, -c
    m[1::2, -2], m[1::2, -1] = c.conjugate(), -b.conjugate()
    return e + [_ONE4], np.linalg.eigvals(m), k


def _radii(n: int, shrink: float) -> np.ndarray:
    """r(k) for k = 0..n, relative to a group's modulus: k folded
    eigenvalues of a root of multiplicity k/2 of e^s, perturbed by
    GROUP_TOL, spread by about 8 GROUP_TOL^(2/k).  Beyond a triple root
    r stays at r(6), so that a 34-fold root, spread by eps^(1/34) = 0.35,
    does not count."""
    with np.errstate(divide="ignore"):
        return shrink * 8.0 * GROUP_TOL ** (2.0 / np.minimum(np.arange(n + 1), 6))


def _tight(values: np.ndarray) -> bool:
    """Whether k values are the roots of t^k + s_2 t^(k-2) + ... + s_k in
    t = z - c, c their mean, with every |s_j| <= GROUP_TOL (8 |c|)^j: one
    k-fold root perturbed as r(k) assumes, whatever the shape of the
    spread, where distinct roots in a row fail at s_2 = -sum(t^2) / 2."""
    t = values - values.mean()
    bound = GROUP_TOL * (8.0 * abs(values.mean())) ** np.arange(2, len(t) + 1)
    return bool(abs(np.sum(t * t)) <= 2.0 * bound[0]
                and np.all(np.abs(np.poly(t)[2:]) <= bound))


def _groups(w: np.ndarray, radii: np.ndarray) -> list[np.ndarray]:
    """Indices of w in groups of even size, largest first.  A group of
    k >= 4 is a value and its k - 1 nearest others, folded to the upper
    half-plane, within r(k) |z| of it and _tight (unfolded, where its mean
    is real to r(k)).  When none is left, the rest pair off as mutual
    nearest neighbours, of which the closest two are always one."""
    z = w.real + 1j * np.abs(w.imag)
    left, out = np.arange(len(z)), []
    while left.size >= 4:
        dist = np.abs(z[left, None] - z[left])
        near = np.sort(dist, axis=1)[:, 3::2]  # the 4th, 6th, ... nearest
        ok = near <= radii[4:left.size + 1:2] * np.abs(z[left, None])
        for col in np.flatnonzero(ok.any(axis=0))[::-1]:
            seed = np.argmin(np.where(ok[:, col], near[:, col], np.inf))
            picked = np.argsort(dist[seed], kind="stable")[:2 * col + 4]
            c = z[left[picked]].mean()
            if _tight((w if c.imag <= radii[2 * col + 4] * abs(c) else z)[left[picked]]):
                out.append(left[picked])
                left = np.delete(left, picked)
                break
        else:
            break
    dist = np.abs(z[left, None] - z[left])
    np.fill_diagonal(dist, np.inf)
    while left.size:
        nn = dist.argmin(axis=1)
        first = np.flatnonzero((nn[nn] == np.arange(left.size)) & (np.arange(left.size) < nn))
        out += list(np.stack((left[first], left[nn[first]]), axis=1))
        keep = np.ones(left.size, bool)
        keep[first] = keep[nn[first]] = False
        left, dist = left[keep], dist[keep][:, keep]
    return out


def _terms(coeffs: list, r, order: int = 0):
    """sum C(n, order) |a_n| r^(n - order): the size of the terms that
    cancel in the order-th Taylor coefficient of f at |q| = r."""
    out = 0.0
    for n in range(len(coeffs) - 1, order - 1, -1):
        out = out * r + math.comb(n, order) * _norm(coeffs[n])
    return out


def _slice_parts(coeffs: list, v):
    """alpha and beta of f(x + yI) = alpha + I beta at v = x + yi, as
    pairs, by the representation formula from f(v) and f(v-bar)."""
    g, h, gc, hc = _slice_pair(coeffs, v)
    return (0.5 * (g + gc), 0.5 * (h + hc)), (-0.5j * (g - gc), -0.5j * (h - hc))


def _newton(e: list, v: np.ndarray, order: int, reach: np.ndarray) -> np.ndarray:
    """v after a Newton step on the order-th derivative of e^s, where the
    step is within reach.  On the slice e^s(v) = g(v) g^(v) + h(v) h^(v),
    g^(v) = conj g(conj v), so Leibniz's rule gives its derivatives from
    the split pair's Horner loop over the differentiated coefficients."""
    parts = []
    for _ in range(order + 2):
        parts.append(_slice_pair(e, v))
        e = [(n * w, n * x, n * y, n * z) for n, (w, x, y, z) in enumerate(e)][1:]
    at = [sum(math.comb(k, j) * (parts[j][0] * np.conj(parts[k - j][2])
                                 + parts[j][1] * np.conj(parts[k - j][3]))
              for j in range(k + 1)) for k in (order, order + 1)]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        step = at[0] / at[1]
    return np.where(np.abs(step) <= reach, v - step, v)


def _locate(v, alpha, beta, scale):
    """The points x + y u at v = x + yi, u the unit of -alpha beta^-1, and
    whether each is an isolated zero: |alpha + u beta| is within
    RESIDUAL_TOL of the terms that cancel and |beta| is not, as it is
    where f vanishes on the whole sphere.  Values so small that their
    products underflow fail."""
    (ab, ac), (bb, bc) = alpha, beta
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        cb, cc = _pair_mul(ab, ac, bb.conjugate(), -bc)  # -alpha conj(beta), up to sign
        size = np.hypot(cb.imag, np.abs(cc))
        ub, uc = -1j * (cb.imag / size), -cc / size
        rb, rc = _pair_mul(ub, uc, bb, bc)
    residual = np.hypot(np.abs(ab + rb), np.abs(ac + rc))
    points = zip(v.real.tolist(), (v.imag * ub.imag).tolist(),
                 (v.imag * uc.real).tolist(), (v.imag * uc.imag).tolist())
    return list(points), ((residual <= RESIDUAL_TOL * scale)
                          & (np.hypot(np.abs(bb), np.abs(bc)) > RESIDUAL_TOL * scale))


def _read(e: list, w: np.ndarray, groups: list, radii: np.ndarray):
    """(entries, failed): each group read as a real point, a sphere or an
    isolated point, an entry being (x, y), the point (None for the sphere
    x + yS) and the multiplicity; and the groups that do not check out.

    2 mu eigenvalues whose folded mean is real to r(k) are a real point
    of multiplicity mu; elsewhere a sphere carrying mu = 2m + n:
    (q - x)^2 + y^2 divides e m times, and the quotient, with no
    spherical factor there, has one zero of multiplicity n on it
    (Gentili & Stoppato, 2008).  A pair is _tight where s_2 =
    -(z_1 - z_2)^2 / 4 is.  A mean that spreads beyond RESIDUAL_TOL / 100
    takes a Newton step as a simple root of the derivative of e^s one
    below its multiplicity there: mu off the real axis, 2 mu on it.
    """
    z = w.real + 1j * np.abs(w.imag)
    size = np.array([len(g) for g in groups])
    label, start = np.repeat(np.arange(len(groups)), size), np.cumsum(size) - size
    members = np.concatenate(groups)
    center = (np.bincount(label, z.real[members]) + 1j * np.bincount(label, z.imag[members])) / size
    real = center.imag <= radii[size] * np.abs(center)
    v = np.where(real, center.real, center)
    values = np.where(real[label], w[members], z[members])  # a real root spreads both ways
    tight = (size > 2) | (np.abs(values[start] - values[start + 1])
                          <= 16.0 * math.sqrt(GROUP_TOL) * np.abs(v))
    spread = np.maximum.reduceat(np.abs(values - v[label]), start)
    order = np.where(real, size, size // 2) - 1
    rough = spread > 0.01 * RESIDUAL_TOL * np.abs(v)
    for k in set(order[rough].tolist()):  # not np.unique, which imports numpy.ma
        at = rough & (order == k)
        v[at] = _newton(e, v[at], int(k), radii[size[at]] * np.abs(v[at]) + spread[at])
    v = np.where(real, v.real, v)
    alpha, beta = _slice_parts(e, v)
    scale = _terms(e, np.abs(v))
    points, located = _locate(v, alpha, beta, scale)
    vanish = np.hypot(np.abs(alpha[0]), np.abs(alpha[1])) <= RESIDUAL_TOL * scale
    entries, failed = [], []
    for n, group in enumerate(groups):
        mu, key = int(size[n]) // 2, (v[n].real, v[n].imag)
        if real[n]:
            read = [(key, (key[0], 0.0, 0.0, 0.0), mu)] if vanish[n] else None
        else:
            read = _read_sphere(e, v[n], mu, points[n] if located[n] else None)
        if tight[n] and read:
            entries += read
        else:
            failed.append(group)
    return entries, failed


def _read_sphere(e: list, v: complex, mu: int, point) -> list | None:
    """The entries of the sphere at v = x + yi carrying mu, point being e's
    isolated zero there or None, or None if they do not check out.  The
    division by (q - x)^2 + y^2 is exact while its remainder r0 + q r1,
    the dividend on the sphere, is within RESIDUAL_TOL of its terms."""
    x, y, rho = v.real, v.imag, abs(v)
    m = 0
    while m < mu // 2:
        quot, rem = _divide_real_quadratic(e, x, y)
        r0, r1 = (rem + [_ZERO4, _ZERO4])[:2]
        if _norm(r0) + rho * _norm(r1) > RESIDUAL_TOL * _terms(e, rho):
            break
        e, m = quot, m + 1
    if m and mu > 2 * m:  # the quotient's own zero
        found, located = _locate(np.array([v]), *_slice_parts(e, np.array([v])),
                                 _terms(e, rho))
        point = found[0] if located[0] else None
    if mu > 2 * m and point is None:
        return None
    return [((x, y), None, 2 * m)] * bool(m) + [((x, y), point, mu - 2 * m)] * (mu > 2 * m)


def zeros(f: RegularSeries) -> ZeroSet:
    """Zero set of a nonzero polynomial, with multiplicities.

    With q = 2^k q' putting the zeros near the unit circle, the 2d
    eigenvalues of the block companion are the roots of f^s; they are
    grouped (_groups), and each group is read as a real point, a sphere
    or an isolated point and checked against f (_read).  The groups that
    do not check out are grouped again at radii 1/64 as large; if some
    still do not, a ConditioningWarning says so, and the multiplicities
    sum to less than the degree.  Raises ValueError for a coefficient or
    a zero beyond float64.
    """
    if f.is_zero:
        raise ZeroPolynomial("the zero polynomial vanishes identically")
    if not f.is_polynomial:
        raise ValueError("zeros is defined for polynomials only")
    coeffs = list(map(tuple, f.coeffs))
    low = 0
    while coeffs[low] == _ZERO4:  # f = q^low g: the real point 0, exactly
        low += 1
    entries, failed, k = [((0.0, 0.0), _ZERO4, low)] if low else [], [], 0
    if len(coeffs) > low + 1:
        e, w, k = _scaled_monic(coeffs[low:])
        failed = [np.arange(len(w))]
        for shrink in (1.0, 1.0 / 64.0):
            radii = _radii(len(w), shrink)
            left = np.concatenate(failed)
            read, failed = _read(e, w, [left[g] for g in _groups(w[left], radii)], radii)
            entries += read
            if not failed:
                break
    out = ZeroSet()
    try:
        for (x, y), p, mult in sorted(entries, key=lambda t: t[0]):
            if p is None:
                out.spheres.append((Sphere(math.ldexp(x, k), math.ldexp(y, k)), mult))
            else:
                out.points.append((Quaternion(*[math.ldexp(t, k) for t in p]), mult))
    except OverflowError:
        raise ValueError("a zero of f overflows float64") from None
    if failed:
        warnings.warn(ConditioningWarning(
            f"{sum(map(len, failed))} companion eigenvalues form no group that "
            f"checks out: the multiplicities sum to {out.total_multiplicity}, "
            f"not the degree {f.degree}"), stacklevel=2)
    return out
