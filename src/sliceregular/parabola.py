"""The quadratic map q -> q^2 + qi as a branched double cover of H.

The map sends the real axis onto the parabola gamma = {t^2 + it}, its
singular plane -i/2 + jR + kR onto a paraboloid of revolution, and is
two-to-one elsewhere.  Its twistor lift sweeps out a rational quartic
scroll K whose fibre geometry is classified by a sextic discriminant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, NotOnSurface
from .ocs import OCSValue, j_standard
from .quat_core import I as QI, Quaternion
from .regular_fn import RegularSeries, zeros
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


def on_parabola(c: Quaternion, tol: float = MAP_TOL) -> bool:
    """Membership in gamma = {t^2 + it : t real}."""
    s = tol * (1.0 + c.norm_sq())
    return abs(c.y) <= s and abs(c.z) <= s and abs(c.w - c.x ** 2) <= s


def on_paraboloid(c: Quaternion, tol: float = GEOM_TOL) -> bool:
    """Membership in the branch locus x1 = 0, x0 = 1/4 - (x2^2 + x3^2)."""
    s = tol * (1.0 + c.norm_sq())
    return abs(c.x) <= s and abs(c.w - 0.25 + c.y ** 2 + c.z ** 2) <= s


def in_solid(c: Quaternion, tol: float = GEOM_TOL) -> bool:
    """Membership in the closed solid paraboloid x1 = 0, x0 <= 1/4 - (x2^2+x3^2)."""
    s = tol * (1.0 + c.norm_sq())
    return abs(c.x) <= s and c.w <= 0.25 - c.y ** 2 - c.z ** 2 + s


def _in_plane_li(c: Quaternion) -> bool:
    """Whether c = w1 + w2 j lies in the slice L_i, i.e. w2 = 0."""
    return abs(c.complex_pair()[1]) <= GEOM_TOL * (1.0 + abs(c))


def _partner(alpha: Quaternion) -> Quaternion:
    """The second preimage -(z + i/2) - i/2 + e^{2i theta} w j, tan(theta) = z + z-bar."""
    z, w = alpha.complex_pair()
    s = 2.0 * z.real
    phase = complex(1.0 - s * s, 2.0 * s) / (1.0 + s * s)
    return Quaternion.from_complex_pair(-(z + 0.5j) - 0.5j, phase * w)


def preimages(c: Quaternion) -> list[Quaternion]:
    """The fibre of q -> q^2 + qi over c: two points, or one on the paraboloid.

    For c in the plane L_i the complex quadratic z^2 + iz - w1 = 0 is
    solved directly; otherwise one root of q^2 + qi - c is found and
    the rotation formula supplies its partner.
    """
    if _in_plane_li(c):
        disc = complex(-1.0) + 4.0 * c.complex_pair()[0]
        root = np.sqrt(complex(disc))
        z1 = 0.5 * (-1j + root)
        z2 = 0.5 * (-1j - root)
        pts = [Quaternion.from_complex(z1), Quaternion.from_complex(z2)]
    else:
        shifted = F_PAR.shift(c)
        zs = zeros(shifted)
        alpha, mult = zs.points[0]
        pts = [alpha, _partner(alpha)] if mult == 1 else [alpha]
    if len(pts) == 2 and abs(pts[0] - pts[1]) <= MAP_TOL * (1.0 + abs(pts[0])):
        pts = pts[:1]
    return pts


def _extended_pair(c: Quaternion) -> tuple[OCSValue, OCSValue]:
    if on_parabola(c):
        raise DomainError("the induced structures are undefined on the parabola")
    if in_solid(c) and not on_paraboloid(c):
        raise DomainError("the induced structures do not extend inside the "
                          "solid paraboloid")
    pts = preimages(c)
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
    z0, z1, z2, z3 = (Z[k] for k in range(4))
    return (z1 * z2 - z0 * z3) ** 2 + 2.0 * z1 * z0 * (z1 * z2 + z0 * z3)


def quartic_K_affine(x: float, y: float, z: float, w: float) -> float:
    """The real form K(x, y, z, w) used for affine slices."""
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
    axis_z0: ProjectivePoint3  # the point of the fibre with Z0 = 0
    axis_z1: ProjectivePoint3  # the point of the fibre with Z1 = 0


def fiber_axis_points(c: Quaternion) -> tuple[ProjectivePoint3, ProjectivePoint3]:
    """The two distinguished points of the fibre over c with Z0 = 0 and Z1 = 0."""
    w1, w2 = c.complex_pair()
    z0_pt = ProjectivePoint3.of(0.0, 1.0, -np.conj(w2), np.conj(w1))
    z1_pt = ProjectivePoint3.of(1.0, 0.0, w1, w2)
    return z0_pt, z1_pt


def fiber_polynomial(c: Quaternion) -> np.ndarray:
    """Ascending coefficients of R(v) = v^4 + (1 - 2 x0) v^2 - 2 x1 v + C."""
    return np.array([c.norm_sq(), -2.0 * c.x, 1.0 - 2.0 * c.w, 0.0, 1.0])


def _quartic_roots(coeffs: np.ndarray) -> list[complex]:
    """Roots of a real quartic via the companion matrix plus Newton polishing."""
    rts = np.roots(coeffs[::-1])
    deriv = np.polyder(coeffs[::-1])
    out = []
    for z in rts:
        z = complex(z)
        for _ in range(2):
            dz = np.polyval(deriv, z)
            if abs(dz) < 1e-14:
                break
            z = z - np.polyval(coeffs[::-1], z) / dz
        out.append(z)
    return sorted(out, key=lambda t: (round(t.real, 9), t.imag))


def fiber_intersections(c: Quaternion) -> FiberClass:
    """Intersections of the fibre over c with the ruling of the scroll."""
    z0_pt, z1_pt = fiber_axis_points(c)
    roots = tuple(_quartic_roots(fiber_polynomial(c)))
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
    return FiberClass(kind, roots, z0_pt, z1_pt)


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
