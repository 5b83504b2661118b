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
from itertools import accumulate, chain, zip_longest

import numpy as np

from .errors import ConditioningWarning, DomainError, NotReal, OutsideRadius, ZeroPolynomial
from .quat_core import I, ONE, Quaternion, Sphere, hamilton, json_float

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
        TypeError unless every coefficient is four finite JSON numbers and
        r is "inf", null or a JSON number above 0 (see quat_core.json_float)."""
        if not isinstance(data, dict) or "coeffs" not in data:
            raise ValueError(f'a series is an object with "coeffs", got {data!r}')
        radius = data.get("radius", "inf")
        r = math.inf if radius in ("inf", None) else json_float(radius)
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
# CPython unpacks on a faster path than a tuple subclass; zeros() reads
# f's coefficients as they are and builds only its scaled monic as exact
# tuples.  Each kernel does its float operations in the order, and on
# the operands, of the Quaternion arithmetic it stands for, so its
# answers are bit for bit those of the object code
# (tests/test_regular_fn.py keeps the object versions as oracles).

Q4 = tuple[float, float, float, float]
_ZERO4: Q4 = (0.0, 0.0, 0.0, 0.0)
_ONE4: Q4 = (1.0, 0.0, 0.0, 0.0)


def _norm(a: Q4) -> float:
    """|a|, by hypot, which neither under- nor overflows where |a| is in range."""
    return math.hypot(*a)


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
    steps = [_ZERO4]  # acc after each step: the quotient, top first, then the remainder
    aw = ax = ay = az = 0.0
    for cw, cx, cy, cz in reversed(coeffs):
        # acc = c_n + p * acc, with hamilton(p, acc) inlined: this is the hot loop
        acc = (cw + (pw * aw - px * ax - py * ay - pz * az),
               cx + (pw * ax + px * aw + py * az - pz * ay),
               cy + (pw * ay - px * az + py * aw + pz * ax),
               cz + (pw * az + px * ay - py * ax + pz * aw))
        steps.append(acc)
        aw, ax, ay, az = acc
    return _trim(steps[-2:0:-1]), steps[-1]


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
    return Quaternion(*_divide_linear(f.coeffs, q)[1])


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
    """(alpha, beta) with f(x + yI) = alpha + I beta for every I in S: the
    half sum of f(x + yi) and f(x - yi), and -I times their half
    difference, from the split pair in quaternion float operations."""
    g, h, gc, hc = _slice_pair(f.coeffs, complex(x, y))
    alpha = Quaternion((g.real + gc.real) * 0.5, (g.imag + gc.imag) * 0.5,
                       (h.real + hc.real) * 0.5, (h.imag + hc.imag) * 0.5)
    return alpha, -I * Quaternion((g.real - gc.real) * 0.5, (g.imag - gc.imag) * 0.5,
                                  (h.real - hc.real) * 0.5, (h.imag - hc.imag) * 0.5)


def _slice_pair(coeffs, v):
    """(g(v), h(v), g(v-bar), h(v-bar)) for a_n = b_n + c_n j, by the
    complex Horner loop g = b_n + v g and h = c_n + v h, run at v and
    v-bar together; v is a number, or a numpy array of them, which runs
    on _slice_stack with one row.

    A number runs the loop on Python complex numbers, whose products
    round as the quaternion ones do and numpy's need not: these are
    eval_series's floats, since its quaternion Horner step at v in L_i
    does the same products in the same order, and adds the zero
    products of the j-part besides, which change only the sign of an
    exactly zero sum, and so a value only where a coefficient has a
    -0.0 component.
    """
    if isinstance(v, np.ndarray):
        return tuple(_slice_stack(_coeff_rows([coeffs]), v[None])[:, 0])
    vc = v.conjugate()
    g = h = gc = hc = 0j
    for w, x, y, z in reversed(coeffs):
        b, c = complex(w, x), complex(y, z)
        g, h, gc, hc = b + v * g, c + v * h, b + vc * gc, c + vc * hc
    return g, h, gc, hc


def _slice_stack(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The split pair's Horner loop for the rows of a at the points of v
    at once: (g(v), h(v), g(v-bar), h(v-bar)) as one complex array of
    shape (4,) + the broadcast of (rows, 1, ...) and v.shape.  So a row
    runs at every point of v[None], and the rows of a at the points of
    a 1-d v, row n at v[n] (one row for all of them if a has one).

    a holds each row's coefficients a_n = b_n + c_n j as floats (rows,
    n, 4), constant term first, a shorter row padded at the top with
    +0.0.  Each level of the loop is one broadcast multiply-add over all
    rows and points, with the operands in the loop's order; at a padded
    level the state stays at +0, as b_n + v 0 with b_n = +0.0 is for a
    finite v, so every row gets the floats of a loop of its own.
    """
    levels = a.view(complex).transpose(1, 2, 0)[::-1]  # (n, 2, rows): b_n, c_n
    levels = levels.reshape(levels.shape + (1,) * (v.ndim - 1))
    at = np.array([v, v.conjugate()])[:, None]
    state = np.zeros((2, 2, max(len(a), len(v))) + v.shape[1:], complex)
    for b in levels:
        np.multiply(at, state, out=state)
        state += b
    return state.reshape((4,) + state.shape[2:])


def _coeff_rows(rows) -> np.ndarray:
    """The coefficient sequences of rows (4-tuples, constant term first)
    as the float array (len(rows), width, 4) that _slice_stack takes,
    each padded at the top with +0.0 to the longest, so that row n runs
    at v[n] of a 1-d v, or at the points of row n of a 2-d one."""
    width = max(map(len, rows))
    return np.array([[*r] + [_ZERO4] * (width - len(r)) for r in rows], dtype=float)


def _derivative_rows(coeffs, count: int) -> np.ndarray:
    """The coefficients of f and of its first count - 1 derivatives, as
    _slice_stack takes them: row k + 1 is n a_n of row k for n >= 1,
    each n a_n the float product of the scalar code, which overflows to
    inf without a warning.  coeffs is a list of 4-tuples or a (n, 4)
    array."""
    out = np.zeros((count, len(coeffs), 4))
    row = np.asarray(coeffs, dtype=float).reshape(-1, 4)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(count):
            out[k, :len(row)] = row
            row = row[1:] * np.arange(1.0, len(row))[:, None]
    return out


# zeros() works on complex pairs: a quaternion b + cj is the pair (b, c),
# and (b, c)(b', c') = (b b' - c conj(c'), b c' + c conj(b')).


def _pair_mul(b, c, b2, c2):
    return b * b2 - c * c2.conjugate(), b * c2 + c * b2.conjugate()


def _scaled_monic(coeffs: list) -> tuple[list, int]:
    """(e, k): the monic e_n = 2^(k(n-d)) a_n a_d^-1 as d + 1 4-tuples,
    whose zeros are f's times 2^-k.  2^k rounds M = max |a_n /
    a_d|^(1/(d-n)), with a_0 / 2 for a_0, to a power of two, so that the
    zeros are at most the Fujiwara bound 2 M 2^-k <= 2 sqrt 2; exponents
    come first, so that nothing overflows."""
    if not all(map(math.isfinite, chain.from_iterable(coeffs))):
        raise DomainError("the companion matrix of f overflows float64: "
                          "a coefficient is not finite")
    d = len(coeffs) - 1
    exps = [math.frexp(max(map(abs, a)))[1] for a in coeffs]
    logs = [math.log2(math.hypot(*[math.ldexp(t, -x) for t in a])) + x if any(a) else -math.inf
            for a, x in zip(coeffs, exps)]
    logs[0] -= 1.0
    k = round(max((logs[n] - logs[d]) / (d - n) for n in range(d)))
    # a_d^-1 2^exps[d]
    inv = Quaternion(*[math.ldexp(t, -exps[d]) for t in coeffs[d]]).inverse()
    return [hamilton([math.ldexp(t, k * (n - d) - exps[d]) for t in a], inv)
            for n, a in enumerate(coeffs[:d])] + [_ONE4], k


def _eigenvalues(a: np.ndarray, degrees: list) -> list[np.ndarray]:
    """The 2d eigenvalues of the complex block companion of each row of
    a, a monic of degree d = degrees[n] padded as _slice_stack takes it,
    each coefficient entering as its adjoint [[b, c], [-conj c, conj
    b]]: they are the roots of e^s (Seródio, Pereira & Vitória, 2001).
    The companions of one degree are stacked into one eigvals call,
    which solves each as a call of its own would, bit for bit."""
    out = [None] * len(degrees)
    for d in set(degrees):
        rows = [n for n, m in enumerate(degrees) if m == d]
        pairs = (a if len(rows) == len(a) else a[rows])[:, :d].view(complex)  # b_n, c_n
        m = np.zeros((len(rows), 2 * d, 2 * d), complex)
        m.reshape(len(rows), -1)[:, 4 * d::2 * d + 1] = 1.0  # the identity block below row 2
        np.negative(pairs, out=m[:, 0::2, -2:])
        np.conjugate(pairs[..., ::-1], out=m[:, 1::2, -2:])
        np.negative(m[:, 1::2, -1], out=m[:, 1::2, -1])
        for n, w in zip(rows, np.linalg.eigvals(m)):
            out[n] = w
    return out


# The grouping passes, each (shrink, tol) over the eigenvalues the pass
# before left in groups that do not check out: radii shrink r(k) at tol.
# The second parts groups too wide at the first, the third reads
# clusters that neighbours a few percent away spread beyond GROUP_TOL.
_PASSES = ((1.0, GROUP_TOL), (1.0 / 64.0, GROUP_TOL), (1.0, 16.0 * GROUP_TOL))
# tol^(2/k) for k = 0..6 at each tol of _PASSES, the powers of _radii, 0 at k = 0
_SPREAD = {tol: np.concatenate(([0.0], tol ** (2.0 / np.arange(1, 7)))) for _, tol in _PASSES}


def _radii(n: int, shrink: float, tol: float) -> np.ndarray:
    """shrink r(k) for k = 0..n, relative to a group's modulus: k folded
    eigenvalues of a root of multiplicity k/2 of e^s, perturbed by tol,
    spread by about r(k) = 8 tol^(2/k), and r(0) = 0.  Beyond a triple
    root r stays at r(6), so that a 34-fold root, spread by eps^(1/34) =
    0.35, does not count."""
    return shrink * 8.0 * _SPREAD[tol].take(np.arange(n + 1), mode="clip")


def _tight(values: np.ndarray, tol: float) -> bool:
    """Whether k values are the roots of t^k + s_2 t^(k-2) + ... + s_k in
    t = z - c, c their mean, with every |s_j| <= tol (8 |c|)^j: one
    k-fold root perturbed as r(k) assumes, whatever the shape of the
    spread, where distinct roots in a row fail at s_2 = -sum(t^2) / 2."""
    t = values - values.mean()
    bound = tol * (8.0 * abs(values.mean())) ** np.arange(2, len(t) + 1)
    return bool(abs(np.sum(t * t)) <= 2.0 * bound[0]
                and np.all(np.abs(np.poly(t)[2:]) <= bound))


def _groups(w: np.ndarray, z: np.ndarray, left: np.ndarray, radii: np.ndarray,
            tol: float) -> list[list]:
    """The indices left of w in groups of even size, largest first, each
    a list.  z is w folded to the upper half-plane.  A group of k >= 4 is
    a value and its k - 1 nearest others, folded, within radii[k] |z| of
    it and _tight to tol (unfolded, where its mean is real to radii[k]).
    When none is left, the rest pair off as mutual nearest neighbours, of
    which the closest two are always one.  The distances are taken once, and cut
    down as groups leave."""
    out = []
    dist = np.abs(z[left, None] - z[left])
    while left.size >= 4:
        near = np.sort(dist, axis=1)[:, 3::2]  # the 4th, 6th, ... nearest
        ok = near <= radii[4:left.size + 1:2] * np.abs(z[left, None])
        for col in np.flatnonzero(ok.any(axis=0))[::-1]:
            seed = np.argmin(np.where(ok[:, col], near[:, col], np.inf))
            picked = np.argsort(dist[seed], kind="stable")[:2 * col + 4]
            c = z[left[picked]].mean()
            if _tight((w if c.imag <= radii[2 * col + 4] * abs(c) else z)[left[picked]], tol):
                out.append(left[picked].tolist())
                keep = np.ones(left.size, bool)
                keep[picked] = False
                left, dist = left[keep], dist[keep][:, keep]
                break
        else:
            break
    np.fill_diagonal(dist, np.inf)
    while left.size > 2:
        nn, at = dist.argmin(axis=1), np.arange(left.size)
        first = np.flatnonzero((nn[nn] == at) & (at < nn))
        out += map(list, zip(left[first].tolist(), left[nn[first]].tolist()))
        keep = np.ones(left.size, bool)
        keep[first] = keep[nn[first]] = False
        left, dist = left[keep], dist[keep][:, keep]
    if left.size:  # two, each the other's nearest
        out.append(left.tolist())
    return out


def _terms(coeffs: list, r, order: int = 0):
    """sum C(n, order) |a_n| r^(n - order): the size of the terms that
    cancel in the order-th Taylor coefficient of f at |q| = r."""
    out = 0.0
    for n in range(len(coeffs) - 1, order - 1, -1):
        out = out * r + math.comb(n, order) * _norm(coeffs[n])
    return out


def _horner(norms: list, r: float) -> float:
    """_terms(coeffs, r) from the norms of coeffs, taken once: the same
    floats, since C(n, 0) |a_n| is |a_n|."""
    out = 0.0
    for t in reversed(norms):
        out = out * r + t
    return out


def _slice_parts(a: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """alpha and beta of f(x + yI) = alpha + I beta at each v = x + yi,
    each as the pair stacked in one array, by the representation formula
    from f(v) and f(v-bar); row n of a holds the coefficients of the f
    of v[n], as _slice_stack takes them."""
    parts = _slice_stack(a, v)  # g, h, g-bar, h-bar
    return 0.5 * (parts[:2] + parts[2:]), -0.5j * (parts[:2] - parts[2:])


def _newton(e, v: np.ndarray, order: np.ndarray,
            reach: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(v after a Newton step on the order-th derivative of e^s, each v at
    its own order, where the step is within reach; the length of every
    step, taken or not, NaN where it is 0/0).  On the slice e^s(v) =
    g(v) g^(v) + h(v) h^(v), g^(v) = conj g(conj v), so Leibniz's rule
    gives its derivatives from the split pairs of e's derivatives, all of
    them at every v from one _slice_stack.  The n + 1 terms of the n-th
    derivative are one product, summed from 0 in the order of j."""
    parts = _slice_stack(_derivative_rows(e, int(order.max()) + 2), v[None])
    np.conjugate(parts[2:], out=parts[2:])  # the hats at v
    at = np.empty((2,) + v.shape, complex)
    for k in set(order.tolist()):  # not np.unique, which imports numpy.ma
        sub = order == k
        g, h, g_hat, h_hat = parts[:, :, sub]
        for i, n in enumerate((k, k + 1)):
            comb = np.array([math.comb(n, j) for j in range(n + 1)], float)
            at[i, sub] = sum(comb[:, None] * (g[:n + 1] * g_hat[n::-1] + h[:n + 1] * h_hat[n::-1]))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        step = at[0] / at[1]
    size = np.abs(step)
    return np.where(size <= reach, v - step, v), size


def _locate(v, alpha, beta, scale):
    """The points x + y u at v = x + yi, u the unit of -alpha beta^-1, and
    whether each is an isolated zero: |alpha + u beta| is within
    RESIDUAL_TOL of the terms that cancel and |beta| is not, as it is
    where f vanishes on the whole sphere.  Values so small that their
    products underflow fail, and so does a zero tolerance, which vouches
    for nothing.  alpha and beta are stacked pairs."""
    (ab, ac), (bb, bc) = alpha, beta
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        cb, cc = _pair_mul(ab, ac, bb.conjugate(), -bc)  # -alpha conj(beta), up to sign
        size = np.hypot(cb.imag, np.abs(cc))
        ub, uc = -1j * (cb.imag / size), -cc / size
        rb, rc = _pair_mul(ub, uc, bb, bc)
    residual = np.hypot(np.abs(ab + rb), np.abs(ac + rc))
    tol = RESIDUAL_TOL * scale
    points = [(x, y * i, y * j, y * k) for x, y, i, j, k in zip(
        v.real.tolist(), v.imag.tolist(), ub.imag.tolist(), uc.real.tolist(), uc.imag.tolist())]
    return points, (residual <= tol) & (np.hypot(*np.abs(beta)) > tol) & (tol > 0.0)


def _read(a: np.ndarray, rows: list, norms: list, w: np.ndarray, z: np.ndarray,
          groups: list, owner: list, radii: np.ndarray, tol: float, entries: list) -> list:
    """Each group read as a real point, a sphere or an isolated point,
    appended to entries[n] for its member n, an entry being (x, y), the
    point (None for the sphere x + yS) and the multiplicity; returns the
    groups that do not check out, as one list per member.  The groups
    of all members are read at once: group g belongs to member
    owner[g], whose coefficients are row owner[g] of a, as _slice_stack
    takes them, and of rows, as 4-tuples, and norms[owner[g]] their
    norms; w holds the eigenvalues of all members, z them folded, those
    of member n after those of members 0..n-1.  radii and tol are the
    pass's, as _groups took them.

    2 mu eigenvalues whose folded mean is real to r(k) are a real point
    of multiplicity mu; elsewhere a sphere carrying mu = 2m + n:
    (q - x)^2 + y^2 divides e m times, and the quotient, with no
    spherical factor there, has one zero of multiplicity n on it
    (Gentili & Stoppato, 2008).  A pair is _tight where s_2 =
    -(z_1 - z_2)^2 / 4 is.  A mean that spreads beyond RESIDUAL_TOL / 100
    takes a Newton step as a simple root of the derivative of e^s one
    below its multiplicity there: mu off the real axis, 2 mu on it.  A
    root of its own is at most the spread away, while a group cut out of
    a larger cluster steps towards the cluster's centre, about 1/5 (a
    pair of a triple root) to 1/4 (of a double root) of the way to the
    nearest eigenvalue outside it: a step beyond 1/8 of that fails the
    group, taken or not.
    """
    sizes = [len(g) for g in groups]
    size = np.array(sizes)
    members = np.array(list(chain.from_iterable(groups)))
    label = np.repeat(np.arange(len(sizes)), size)
    start = np.array(list(accumulate(sizes[:-1], initial=0)))
    folded = z[members]
    center = (np.bincount(label, folded.real) + 1j * np.bincount(label, folded.imag)) / size
    real = center.imag <= radii[size] * np.abs(center)
    v = np.where(real, center.real, center)
    modulus = np.abs(v)
    values = np.where(real[label], w[members], folded)  # a real root spreads both ways
    tight = (size > 2) | (np.abs(values[start] - values[start + 1])
                          <= 16.0 * math.sqrt(tol) * modulus)
    spread = np.maximum.reduceat(np.abs(values - v[label]), start)
    rough = spread > 0.01 * RESIDUAL_TOL * modulus
    if rough.any():
        order = np.where(real, size, size // 2) - 1
        reach = radii[size] * modulus + spread
        own = np.array(owner)
        ends = list(accumulate(2 * len(e) - 2 for e in rows))
        for n in set(own[rough].tolist()):
            at = np.flatnonzero(rough & (own == n))
            v[at], step = _newton(a[n, :len(rows[n])], v[at], order[at], reach[at])
            # from each centre to the nearest eigenvalue of e outside its group
            lo = ends[n] - 2 * len(rows[n]) + 2
            near = np.abs(z[lo:ends[n]] - center[at, None])
            cells = [(i, m - lo) for i, g in enumerate(at.tolist()) for m in groups[g]]
            near[tuple(zip(*cells))] = np.inf
            tight[at[step > near.min(axis=1) / 8.0]] = False
        v = np.where(real, v.real, v)
    alpha, beta = _slice_parts(a if len(a) == 1 else a[owner], v)
    scale = np.array([_horner(norms[n], r) for n, r in zip(owner, np.abs(v).tolist())])
    points, located = _locate(v, alpha, beta, scale)
    # scale 0, where the scaled monic underflowed, vouches for nothing
    vanish = (np.hypot(*np.abs(alpha)) <= RESIDUAL_TOL * scale) & (scale > 0.0)
    failed = [[] for _ in rows]
    for n, group, m, c, on_axis, ok, zero, point, found in zip(
            owner, groups, sizes, v.tolist(), real.tolist(), tight.tolist(), vanish.tolist(),
            points, located.tolist()):
        if on_axis:
            read = [((c.real, c.imag), (c.real, 0.0, 0.0, 0.0), m // 2)] if zero else None
        else:
            read = _read_sphere(rows[n], c, m // 2, point if found else None)
        if ok and read:
            entries[n] += read
        else:
            failed[n].append(group)
    return failed


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
        at = np.array([v])
        found, located = _locate(at, *_slice_parts(np.array([e]), at), _terms(e, rho))
        point = found[0] if located[0] else None
    if mu > 2 * m and point is None:
        return None
    return [((x, y), None, 2 * m)] * bool(m) + [((x, y), point, mu - 2 * m)] * (mu > 2 * m)


def _solve(es: list) -> tuple[list, list]:
    """(entries, failed), one list of each per scaled monic of es: the
    entries _read gave it, and its groups that did not check out in the
    last pass.  The companions are solved stacked by degree, then
    _groups runs per polynomial and one _read over the groups of all;
    the polynomials with groups that do not check out are grouped again
    at the next of _PASSES, and read again at once."""
    degrees = [len(e) - 1 for e in es]
    width = max(degrees) + 1
    a = _coeff_rows(es)
    norms = [list(map(_norm, e)) for e in es]
    w = np.concatenate(_eigenvalues(a, degrees))
    z = w.real + 1j * np.abs(w.imag)  # folded to the upper half-plane
    entries = [[] for _ in es]
    todo = [(n, np.arange(s - 2 * d, s)) for n, (d, s) in enumerate(
        zip(degrees, accumulate(2 * d for d in degrees)))]
    for shrink, tol in _PASSES:
        radii = _radii(2 * width - 2, shrink, tol)
        groups, owner = [], []
        for n, left in todo:
            found = _groups(w, z, left, radii, tol)
            groups += found
            owner += [n] * len(found)
        failed = _read(a, es, norms, w, z, groups, owner, radii, tol, entries)
        todo = [(n, np.array(list(chain.from_iterable(failed[n])))) for n, _ in todo if failed[n]]
        if not todo:
            break
    return entries, failed


def _zero_sets(fs) -> list[ZeroSet]:
    """zeros_many(fs); a ConditioningWarning names the caller of zeros or
    zeros_many."""
    members, es = [], []
    for f in fs:
        if f.is_zero:
            raise ZeroPolynomial("the zero polynomial vanishes identically")
        if not f.is_polynomial:
            raise DomainError("zeros is defined for polynomials only")
        coeffs = f.coeffs
        low = 0
        while coeffs[low] == _ZERO4:  # f = q^low g: the real point 0, exactly
            low += 1
        n, k = None, 0
        if len(coeffs) > low + 1:
            e, k = _scaled_monic(coeffs[low:])
            n = len(es)
            es.append(e)
        members.append((f.degree, low, k, n))
    entries, failed = _solve(es) if es else ([], [])
    out = []
    for d, low, k, n in members:
        found = [((0.0, 0.0), _ZERO4, low)] if low else []
        if n is not None:
            found += entries[n]
        zs = ZeroSet()
        try:
            for (x, y), p, mult in sorted(found, key=lambda t: t[0]):
                if p is None:
                    zs.spheres.append((Sphere(math.ldexp(x, k), math.ldexp(y, k)), mult))
                else:
                    zs.points.append((Quaternion(*[math.ldexp(t, k) for t in p]), mult))
        except OverflowError:
            raise DomainError("a zero of f overflows float64") from None
        if n is not None and failed[n]:
            warnings.warn(ConditioningWarning(
                f"{sum(map(len, failed[n]))} companion eigenvalues form no group that "
                f"checks out: the multiplicities sum to {zs.total_multiplicity}, "
                f"not the degree {d}"), stacklevel=3)
        out.append(zs)
    return out


def zeros(f: RegularSeries) -> ZeroSet:
    """Zero set of a nonzero polynomial, with multiplicities.

    With q = 2^k q' putting the zeros near the unit circle, the 2d
    eigenvalues of the block companion are the roots of f^s; they are
    grouped (_groups), and each group is read as a real point, a sphere
    or an isolated point and checked against f (_read).  The groups that
    do not check out are grouped again at radii 1/64 as large, then at
    16 GROUP_TOL; if some still do not, a ConditioningWarning says so,
    and the multiplicities sum to less than the degree.  Raises
    ZeroPolynomial for f = 0, and DomainError for a series, a
    coefficient that is not finite or a zero beyond float64.  This is
    zeros_many([f])[0]; a batch raises for its first bad member.
    """
    return _zero_sets([f])[0]


def zeros_many(fs) -> list[ZeroSet]:
    """[zeros(f) for f in fs], bit for bit and with the same warnings,
    one per polynomial whose multiplicities fall short, in order, but
    with the fixed cost of zeros paid once: the companions of one
    degree are solved in one call, and the groups of all polynomials
    read at once.  Every member is checked before any is solved, so a
    batch raises what zeros raises for its first bad member (a zero
    that overflows float64 shows only once the zeros are read)."""
    return _zero_sets(fs)
