"""The quadratic map q -> q^2 + qi as a branched double cover of H.

The map sends the real axis onto the parabola gamma = {t^2 + it}, its
singular plane -i/2 + jR + kR onto a paraboloid of revolution, and is
two-to-one elsewhere.  Its twistor lift sweeps out a rational quartic
scroll K whose fibre geometry is classified by a sextic discriminant.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, NotOnSurface
from .ocs import OCSValue, j_standard
from .quat_core import I as QI, Quaternion, is_real
from .regular_fn import RegularSeries
from .twistor import ProjectivePoint3

GEOM_TOL = 1e-10
MAP_TOL = 1e-9

# f(q) = q^2 + qi as a coefficient list.
F_PAR = RegularSeries.polynomial(Quaternion(), QI, Quaternion(1.0))


# A target is a plain quaternion; the benchmark harness builds targets
# under this name.
ParabolaPoint = Quaternion


def f_par(q: Quaternion) -> Quaternion:
    """q^2 + qi."""
    return q * q + q * QI


# Each membership test below scales tol by the size of the terms it
# compares: a coordinate that should vanish by 1 + |c|, an equation by
# the sum of the magnitudes of its terms.


def on_parabola(c: Quaternion, tol: float = MAP_TOL) -> bool:
    """Membership in gamma = {t^2 + it : t real}."""
    s = tol * (1.0 + abs(c))
    return (abs(c.y) <= s and abs(c.z) <= s
            and abs(c.w - c.x ** 2) <= tol * (1.0 + abs(c.w) + c.x ** 2))


def _quadric_tol(c: Quaternion, tol: float) -> float:
    """tol scaled by the terms of x0 - 1/4 + x2^2 + x3^2."""
    return tol * (abs(c.w) + 0.25 + c.y ** 2 + c.z ** 2)


def on_paraboloid(c: Quaternion, tol: float = GEOM_TOL) -> bool:
    """Membership in the branch locus x1 = 0, x0 = 1/4 - (x2^2 + x3^2)."""
    return (abs(c.x) <= tol * (1.0 + abs(c))
            and abs(c.w - 0.25 + c.y ** 2 + c.z ** 2) <= _quadric_tol(c, tol))


def in_solid(c: Quaternion, tol: float = GEOM_TOL) -> bool:
    """Membership in the closed solid paraboloid x1 = 0, x0 <= 1/4 - (x2^2+x3^2)."""
    return (abs(c.x) <= tol * (1.0 + abs(c))
            and c.w <= 0.25 - c.y ** 2 - c.z ** 2 + _quadric_tol(c, tol))


def _in_plane_li(c: Quaternion) -> bool:
    """Whether c = w1 + w2 j lies in the slice L_i, i.e. w2 = 0."""
    return abs(c.complex_pair()[1]) <= GEOM_TOL * (1.0 + abs(c))


def _positive_root(p: float, m: float) -> float:
    """The positive root of t^2 + p t - m with m > 0, without cancellation."""
    d = math.sqrt(p * p + 4.0 * m)
    return 2.0 * m / (p + d) if p >= 0.0 else 0.5 * (d - p)


def _root_t(a: float, b: float, eps: float, k: float) -> float:
    """The root t >= 0 of h(t) = t - a/t - b/(eps + t) - k, with a, b >= 0.

    h is increasing and concave on t > 0.  Its root lies below the root
    t_hi of t - (a + b)/t = k and above that of t - a/t = k + b/(eps + t_hi);
    geometric bisection narrows that bracket to a factor of 2, and
    Newton's method started at its left end climbs to the root
    monotonically.
    """
    if a == 0.0:
        # t (eps + t) - b - k (eps + t) = 0; no positive root inside the solid
        m = b + k * eps
        return _positive_root(eps - k, m) if m > 0.0 else 0.0

    def h(t: float) -> float:
        return t - a / t - b / (eps + t) - k

    hi = _positive_root(-k, a + b)
    lo = min(hi, _positive_root(-(k + b / (eps + hi)), a))
    while lo > 0.0 and h(lo) >= 0.0:
        # k + b/(eps + t_hi) cancels, so rounding may put lo past the root
        hi, lo = lo, 0.5 * lo
    if lo == 0.0:  # a underflows against the other terms
        return 0.0
    while hi > 2.0 * lo:
        mid = math.sqrt(lo) * math.sqrt(hi)
        if h(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    t = lo
    for _ in range(50):
        g = h(t)
        if g >= 0.0:
            break
        t_next = t - g / (1.0 + a / t / t + b / ((eps + t) * (eps + t)))
        if t_next <= t:
            break
        t = t_next
    return t


def preimages(c: Quaternion) -> list[Quaternion]:
    """The fibre of q -> q^2 + qi over c: two points, or one on the paraboloid.

    Closed form, for c = w1 + w2 j: on the plane L_i (w2 = 0) the
    complex quadratic z^2 + iz - w1 = 0 gives both points, on the
    paraboloid the fibre is the branch point -i/2 + i w2 j, and
    elsewhere one scalar equation for (2 Re q)^2 gives both points.
    Raises ValueError when c is not finite or |c|^2 overflows float64.
    """
    if not math.isfinite(c.norm_sq()):
        raise ValueError(f"the target must be finite with |c|^2 finite in "
                         f"float64, got {c}")
    c1, c2 = c.complex_pair()
    c2_sq = c.y * c.y + c.z * c.z
    if _in_plane_li(c):
        root = cmath.sqrt(4.0 * c1 - 1.0)
        pts = [Quaternion.from_complex(0.5 * (-1j + root)),
               Quaternion.from_complex(0.5 * (-1j - root))]
    elif on_paraboloid(c) and abs(c1 + c2_sq - 0.25) <= MAP_TOL * (1.0 + abs(c)):
        # the branch point -i/2 + i c2 j, where the two sheets meet; the
        # second test keeps the image within MAP_TOL when |c| is large
        return [Quaternion.from_complex_pair(-0.5j, 1j * c2)]
    else:
        # q = z + wj: z^2 + iz - |w|^2 = c1 and (2 Re z - i) w = c2, so
        # 2z + i = +-r with r^2 = 4(c1 + mu) - 1, mu = |w|^2 = |c2|^2/(1 + y),
        # and y = (Re r)^2 is the positive root of
        # y - 4 x1^2/y - 4|c2|^2/(1 + y) = 4 x0 - 1.  It is solved for
        # t = y/scale, scale = max(1, |c|), so that no term overflows.
        scale = max(1.0, abs(c))
        eps, s1, s2_sq = 1.0 / scale, c1 / scale, c2_sq / (scale * scale)
        t = _root_t(4.0 * s1.imag ** 2, 4.0 * s2_sq, eps, 4.0 * s1.real - eps)
        if t > 1e-200:
            # Re r = sqrt(y) and Im r = 2 x1 / Re r leave q^2 + qi - c
            # equal to the rounding of the root equation
            u = math.sqrt(scale * t)
            r = complex(u, 2.0 * c.x / u)
        else:
            # sqrt(y) would lose its precision; y only shifts mu here, and
            # r comes from the stable complex square root
            r = cmath.sqrt(4.0 * (c1 + c2_sq / (1.0 + scale * t)) - 1.0)
            u = r.real
        pts = [Quaternion.from_complex_pair(0.5 * (-r - 1j), c2 / (-u - 1j)),
               Quaternion.from_complex_pair(0.5 * (r - 1j), c2 / (u - 1j))]
    if abs(pts[0] - pts[1]) <= MAP_TOL * (1.0 + abs(pts[0])):
        pts = pts[:1]
    return pts


def _extended_pair(c: Quaternion) -> tuple[OCSValue, OCSValue]:
    pts = preimages(c)  # first, so a non-finite c raises the boundary error
    # a preimage that is_real at its own scale puts c on the parabola to
    # working precision, even where on_parabola's tolerance is tighter
    if on_parabola(c) or any(map(is_real, pts)):
        raise DomainError("the induced structures are undefined on the parabola")
    if in_solid(c) and not on_paraboloid(c):
        raise DomainError("the induced structures do not extend inside the "
                          "solid paraboloid")
    if len(pts) == 1:
        j = j_standard(pts[0])
        return j, j
    a, b = pts
    if a.re() < b.re():
        a, b = b, a
    return j_standard(a), j_standard(b)


def j_plus(c: Quaternion) -> OCSValue:
    """The structure induced by the right-half-space branch of the cover."""
    return _extended_pair(c)[0]


def j_minus(c: Quaternion) -> OCSValue:
    """The structure induced by the left-half-space branch of the cover."""
    return _extended_pair(c)[1]


# ---------------------------------------------------------------------------
# the quartic scroll


def quartic_K(Z: ProjectivePoint3) -> complex:
    """(Z1 Z2 - Z0 Z3)^2 + 2 Z1 Z0 (Z1 Z2 + Z0 Z3) on the normalized representative."""
    return quartic_K_affine(*(Z[k] for k in range(4)))


def quartic_K_affine(x, y, z, w):
    """K(x, y, z, w) on numbers, complex or real, or on arrays of them."""
    return (y * z - x * w) ** 2 + 2.0 * y * x * (y * z + x * w)


def grad_K(Z: ProjectivePoint3) -> np.ndarray:
    """The four partial derivatives of the quartic."""
    z0, z1, z2, z3 = (Z[k] for k in range(4))
    m = z1 * z2 - z0 * z3
    return np.array([
        -2.0 * z3 * m + 2.0 * z1 * (z1 * z2 + 2.0 * z0 * z3),
        2.0 * z2 * m + 2.0 * z0 * (2.0 * z1 * z2 + z0 * z3),
        2.0 * z1 * m + 2.0 * z0 * z1 ** 2,
        -2.0 * z0 * m + 2.0 * z0 ** 2 * z1,
    ], dtype=complex)


class SurfaceClass(Enum):
    SMOOTH = "Smooth"
    DOUBLE_CURVE = "DoubleCurve"
    CUSP = "Cusp"
    PINCH_POINT = "PinchPoint"


_VERTICES = [ProjectivePoint3.of(*(1.0 if i == k else 0.0 for i in range(4)))
             for k in range(4)]
_EXTRA_CUSPS = [ProjectivePoint3.of(0.0, 1.0, 0.0, 0.25),
                ProjectivePoint3.of(1.0, 0.0, 0.25, 0.0)]


def singular_locus_class(Z: ProjectivePoint3, tol: float = 1e-9) -> SurfaceClass:
    """Stratum of the quartic at Z: smooth, double curve, cusp or pinch point."""
    if abs(quartic_K(Z)) > tol:
        raise NotOnSurface(f"K({Z}) does not vanish")
    for vtx in _VERTICES:
        if Z.equals(vtx, tol):
            return SurfaceClass.PINCH_POINT
    z0, z1, z2, z3 = (Z[k] for k in range(4))
    if abs(z0) <= tol and abs(z1) <= tol:
        return SurfaceClass.CUSP
    on_m02 = abs(z0) <= tol and abs(z2) <= tol
    on_m13 = abs(z1) <= tol and abs(z3) <= tol
    if on_m02 or on_m13:
        for cusp in _EXTRA_CUSPS:
            if Z.equals(cusp, tol):
                return SurfaceClass.CUSP
        return SurfaceClass.DOUBLE_CURVE
    return SurfaceClass.SMOOTH


# ---------------------------------------------------------------------------
# fibres of the twistor projection against the scroll


class FiberKind(Enum):
    ON_PARABOLA = "OnParabola"
    ON_PLANE_LI = "OnPlaneLi"
    ON_PARABOLOID = "OnParaboloid"
    AT_FOCUS = "AtFocus"
    GENERIC_FOUR = "GenericFour"


@dataclass(frozen=True)
class FiberClass:
    kind: FiberKind
    ruling_parameters: tuple[complex, ...]


def fiber_axis_points(c: Quaternion) -> tuple[ProjectivePoint3, ProjectivePoint3]:
    """The two distinguished points of the fibre over c with Z0 = 0 and Z1 = 0."""
    w1, w2 = c.complex_pair()
    z0_pt = ProjectivePoint3.of(0.0, 1.0, -np.conj(w2), np.conj(w1))
    z1_pt = ProjectivePoint3.of(1.0, 0.0, w1, w2)
    return z0_pt, z1_pt


def fiber_polynomial(c: Quaternion) -> np.ndarray:
    """Ascending coefficients of R(v) = v^4 + (1 - 2 x0) v^2 - 2 x1 v + C."""
    return np.array([c.norm_sq(), -2.0 * c.x, 1.0 - 2.0 * c.w, 0.0, 1.0])


def _ruling_parameters(pts: list[Quaternion]) -> list[complex]:
    """Re p -+ i |Im p| for each preimage p: the roots of R(v), which is
    the symmetrization of q^2 + qi - c; a branch point gives double roots."""
    if len(pts) == 1:
        pts = pts * 2
    roots = []
    for p in pts:
        x, y = p.re(), p.im_norm()
        roots += [complex(x, -y), complex(x, y)]
    return sorted(roots, key=lambda t: (round(t.real, 9), t.imag))


def fiber_intersections(c: Quaternion) -> FiberClass:
    """Intersections of the fibre over c with the ruling of the scroll.

    Raises ValueError when c is not finite or |c|^2 overflows float64.
    """
    roots = tuple(_ruling_parameters(preimages(c)))
    in_li = _in_plane_li(c)
    if in_li and abs(c.complex_pair()[0] - 0.25) <= GEOM_TOL:
        kind = FiberKind.AT_FOCUS
    elif on_parabola(c):
        kind = FiberKind.ON_PARABOLA
    elif in_li:
        kind = FiberKind.ON_PLANE_LI
    elif on_paraboloid(c):
        kind = FiberKind.ON_PARABOLOID
    else:
        kind = FiberKind.GENERIC_FOUR
    return FiberClass(kind, roots)


def discriminant_D(c: Quaternion) -> float:
    """The degree-six polynomial whose zero set is the paraboloid.

    Sixteen times this value is the discriminant of the fibre quartic
    R(v); for x1 = 0 it factors as C(-1 + 4C + 4 x0 - 4 x0^2)^2.
    """
    C, x0, x1 = c.norm_sq(), c.w, c.x
    return (C - 8 * C ** 2 + 16 * C ** 3 - 8 * C * x0 + 32 * C ** 2 * x0
            + 24 * C * x0 ** 2 - 32 * C ** 2 * x0 ** 2 - 32 * C * x0 ** 3
            + 16 * C * x0 ** 4 - x1 ** 2 + 36 * C * x1 ** 2
            + 6 * x0 * x1 ** 2 - 72 * C * x0 * x1 ** 2 - 12 * x0 ** 2 * x1 ** 2
            + 8 * x0 ** 3 * x1 ** 2 - 27 * x1 ** 4)


def osculating_sphere_point(u: complex | None) -> Quaternion:
    """Stereographic parametrization (|u|^2 - 3 + 4uj) / (4(1 + |u|^2)).

    Sweeps the image of the sphere (1/2)S, the round 2-sphere of radius
    1/2 centred at -1/4 in the 3-space R + jR + kR; u = None gives the
    limit 1/4, the focus.
    """
    if u is None:
        return Quaternion(0.25)
    d = 4.0 * (1.0 + abs(u) ** 2)
    return Quaternion((abs(u) ** 2 - 3.0) / d, 0.0,
                      4.0 * u.real / d, 4.0 * u.imag / d)


# ---------------------------------------------------------------------------
# figure data


def figure1_rows(samples: int = 200) -> list[tuple[float, float, float, str]]:
    """Labeled point clouds: the parabola, the paraboloid and the osculating
    sphere, projected to the 3-space spanned by x0, x2, x3 (the parabola is
    drawn in its own plane as (x0, x1, 0))."""
    rows = []
    for t in np.linspace(-1.5, 1.5, samples):
        rows.append((float(t * t), float(t), 0.0, "parabola"))
    n = max(int(math.isqrt(samples)), 2)
    for r in np.linspace(0.0, 1.0, n):
        for a in np.linspace(0.0, 2.0 * math.pi, n, endpoint=False):
            x2, x3 = r * math.cos(a), r * math.sin(a)
            rows.append((0.25 - r * r, float(x2), float(x3), "paraboloid"))
    for b in np.linspace(0.0, math.pi, n):
        for a in np.linspace(0.0, 2.0 * math.pi, n, endpoint=False):
            rows.append((-0.25 + 0.5 * math.cos(b),
                         0.5 * math.sin(b) * math.cos(a),
                         0.5 * math.sin(b) * math.sin(a), "sphere"))
    return rows


def figure2_cells(grid: int = 60, extent: float = 2.0
                  ) -> list[tuple[float, float, float]]:
    """Centres of grid cells where K(x, y, z, 1/4) changes sign."""
    axis = np.linspace(-extent, extent, grid + 1)
    x, y, z = np.meshgrid(axis, axis, axis, indexing="ij")
    vals = quartic_K_affine(x, y, z, 0.25)

    def corner_any(mask):
        out = np.zeros((grid, grid, grid), dtype=bool)
        for dx in (0, 1):
            for dy in (0, 1):
                for dz in (0, 1):
                    out |= mask[dx:dx + grid, dy:dy + grid, dz:dz + grid]
        return out

    crossing = (corner_any(vals < 0.0) & corner_any(vals > 0.0)) \
        | corner_any(vals == 0.0)
    centers = 0.5 * (axis[:-1] + axis[1:])
    idx = np.argwhere(crossing)
    return [(float(centers[ix]), float(centers[iy]), float(centers[iz]))
            for ix, iy, iz in idx]
