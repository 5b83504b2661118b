import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sliceregular import (DomainError, FiberKind, NotOnSurface, ProjectivePoint3,
                          Quaternion, SurfaceClass,
                          discriminant_D, f_par, fiber_intersections,
                          fiber_polynomial, grad_K, in_solid, j_minus, j_plus,
                          lift, on_parabola, on_paraboloid,
                          osculating_sphere_point, preimages, quartic_K,
                          singular_locus_class, zeros)
from sliceregular.parabola import F_PAR, figure1_rows, figure2_cells
from sliceregular.quat_core import I


def test_f_par_values():
    t = 0.8
    assert abs(f_par(Quaternion(t)) - Quaternion(t * t, t)) <= 1e-12
    # f(-i/2 + wj) = 1/4 - |w|^2 - wk, here w = 1
    q = Quaternion(0, -0.5, 1, 0)
    assert abs(f_par(q) - Quaternion(-0.75, 0, 0, -1)) <= 1e-12
    assert f_par(Quaternion()) == Quaternion()


def test_gamma_and_paraboloid_membership():
    assert on_parabola(Quaternion(0.49, 0.7))
    assert not on_parabola(Quaternion(1.0))
    assert on_paraboloid(Quaternion(0.25, 0, 0, 0))  # the focus
    assert on_paraboloid(Quaternion(0.0, 0, 0.5, 0))
    assert not on_paraboloid(Quaternion(1.0, 0, 0, 0))
    assert in_solid(Quaternion(0.0, 0, 0, 0))
    assert not in_solid(Quaternion(1.0, 0, 0, 0))


def test_preimages_examples():
    pts = preimages(Quaternion())
    assert len(pts) == 2
    got = sorted(pts, key=lambda p: p.x)
    assert abs(got[0] - (-I)) <= 1e-9
    assert abs(got[1]) <= 1e-9

    pts = preimages(Quaternion(1.0))
    assert len(pts) == 2
    r3 = math.sqrt(3.0) / 2.0
    got = sorted(pts, key=lambda p: p.w)
    assert abs(got[0] - Quaternion(-r3, -0.5)) <= 1e-9
    assert abs(got[1] - Quaternion(r3, -0.5)) <= 1e-9

    # branch point on the paraboloid
    pts = preimages(Quaternion(-0.75, 0, 0, -1))
    assert len(pts) == 1
    assert abs(pts[0] - Quaternion(0, -0.5, 1, 0)) <= 1e-6


def test_preimages_map_back():
    rng = np.random.default_rng(9)
    for _ in range(50):
        c = Quaternion(*(float(t) for t in rng.uniform(-2, 2, 4)))
        for p in preimages(c):
            assert abs(f_par(p) - c) <= 1e-9 * (1 + abs(c))


def _paraboloid_point(r: float, a: float) -> Quaternion:
    return Quaternion(0.25 - r * r, 0.0, r * math.cos(a), r * math.sin(a))


def _partner(alpha: Quaternion) -> Quaternion:
    """The second preimage -(z + i/2) - i/2 + e^{2i theta} w j, tan(theta) = z + z-bar."""
    z, w = alpha.complex_pair()
    s = 2.0 * z.real
    phase = complex(1.0 - s * s, 2.0 * s) / (1.0 + s * s)
    return Quaternion.from_complex_pair(-(z + 0.5j) - 0.5j, phase * w)


def test_preimages_match_general_zero_finder():
    # the closed form against zeros(q^2 + qi - c) on every kind of target
    rng = np.random.default_rng(12)
    for n in range(200):
        kind = n % 4
        if kind == 0:
            c = Quaternion(*(float(t) for t in rng.uniform(-2, 2, 4)))
        elif kind == 1:
            c = Quaternion(*(float(t) for t in rng.uniform(-2, 2, 2)))
        elif kind == 2:
            t = float(rng.uniform(-1.5, 1.5))
            c = Quaternion(t * t, t)
        else:
            c = _paraboloid_point(rng.uniform(0.05, 1.2), rng.uniform(0, 2 * math.pi))
        pts = preimages(c)
        ref = [p for p, _ in zeros(F_PAR.shift(c)).points]
        assert len(pts) == len(ref)
        for p in pts:
            assert min(abs(p - q) for q in ref) <= 1e-12 * max(1.0, abs(p))
        if len(pts) == 2:
            assert abs(_partner(pts[0]) - pts[1]) <= 1e-12 * max(1.0, abs(pts[1]))


magnitudes = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from([-1.0, 1.0]),
              st.floats(min_value=-150.0, max_value=150.0)))


@st.composite
def targets(draw):
    """Targets with |c| from 1e-150 to 1e150, on the plane L_i, on the
    paraboloid or anywhere."""
    x0, x1, x2, x3 = (draw(magnitudes) for _ in range(4))
    family = draw(st.sampled_from(["generic", "plane", "paraboloid"]))
    if family == "plane":
        x2 = x3 = 0.0
    elif family == "paraboloid":
        x2, x3 = (math.copysign(math.sqrt(abs(t)), t) for t in (x2, x3))
        x0, x1 = 0.25 - x2 * x2 - x3 * x3, 0.0
    return Quaternion(x0, x1, x2, x3)


@settings(max_examples=300, deadline=None)
@given(targets())
def test_fibre_maps_back_at_every_scale(c):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pts = preimages(c)
        fc = fiber_intersections(c)
    assert len(pts) in (1, 2)
    for p in pts:
        assert abs(f_par(p) - c) <= 1e-9 * (1.0 + abs(c))
    C = c.norm_sq()
    assert len(fc.ruling_parameters) == 4
    for v in fc.ruling_parameters:
        r = v ** 4 + (1.0 - 2.0 * c.w) * v ** 2 - 2.0 * c.x * v + C
        assert abs(r) <= 1e-8 * (1.0 + abs(v) ** 4 + C)


@pytest.mark.parametrize("fn", [preimages, fiber_intersections, j_plus, j_minus])
@pytest.mark.parametrize("c", [Quaternion(math.nan), Quaternion(0, math.nan, 0, 0),
                               Quaternion(math.inf, 0, 1, 0),
                               Quaternion(1e200, 0, 0, 1e-3)])
def test_non_finite_targets_raise_value_error(fn, c):
    # one documented error for a target that is not finite or whose
    # |c|^2 overflows, with no numpy RuntimeWarning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="must be finite"):
            fn(c)


def test_branch_locus_gives_exact_double_ruling_parameters():
    assert fiber_intersections(Quaternion(0.25)).ruling_parameters \
        == (-0.5j, -0.5j, 0.5j, 0.5j)
    for r, a in ((0.3, 0.0), (0.9, 2.0), (1.2, 4.5)):
        c = _paraboloid_point(r, a)
        fc = fiber_intersections(c)
        assert fc.kind == FiberKind.ON_PARABOLOID
        v = fc.ruling_parameters
        assert v[0] == v[1] == v[2].conjugate() == v[3].conjugate()
        assert v[0].real == 0.0
        assert math.isclose(v[0].imag, -math.sqrt(0.25 + r * r), rel_tol=1e-15)


def test_structures_spot_values():
    assert abs(j_plus(Quaternion(1.0)).unit - (-I)) <= 1e-9
    assert abs(j_minus(Quaternion(1.0)).unit - (-I)) <= 1e-9
    assert abs(j_plus(Quaternion(0, 2)).unit - I) <= 1e-9
    assert abs(j_minus(Quaternion(0, 2)).unit - (-I)) <= 1e-9


def test_structures_domain_errors():
    with pytest.raises(DomainError):
        j_plus(Quaternion(0.49, 0.7))  # on the parabola
    with pytest.raises(DomainError):
        j_plus(Quaternion(-1.0))  # inside the solid paraboloid


def test_structures_agree_on_branch_locus():
    c = Quaternion(0.25 - 0.36, 0.0, 0.6, 0.0)
    assert j_plus(c).close_to(j_minus(c))


def test_quartic_spot_values():
    assert abs(quartic_K(ProjectivePoint3.of(1, 1, 1 + 1j, 1 - 1j))) <= 1e-12
    assert abs(quartic_K(ProjectivePoint3.of(1, 0, 1, 0))) <= 1e-12
    rng = np.random.default_rng(3)
    for _ in range(25):
        u = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        v = complex(rng.uniform(-2, 2), rng.uniform(0.1, 2))
        assert abs(quartic_K(lift(F_PAR, u, v))) <= 1e-9


def test_singular_locus_classification():
    assert singular_locus_class(ProjectivePoint3.of(0, 0, 1, 7)) \
        == SurfaceClass.CUSP
    assert singular_locus_class(ProjectivePoint3.of(1, 0, 0.25, 0)) \
        == SurfaceClass.CUSP
    assert singular_locus_class(ProjectivePoint3.of(0, 1, 0, 0.25)) \
        == SurfaceClass.CUSP
    assert singular_locus_class(ProjectivePoint3.of(1, 0, 3, 0)) \
        == SurfaceClass.DOUBLE_CURVE
    assert singular_locus_class(ProjectivePoint3.of(0, 1, 0, -2)) \
        == SurfaceClass.DOUBLE_CURVE
    for k in range(4):
        coords = [0.0] * 4
        coords[k] = 1.0
        assert singular_locus_class(ProjectivePoint3.of(*coords)) \
            == SurfaceClass.PINCH_POINT
    smooth = lift(F_PAR, 1 + 1j, 0.5 + 0.5j)
    assert singular_locus_class(smooth) == SurfaceClass.SMOOTH
    with pytest.raises(NotOnSurface):
        singular_locus_class(ProjectivePoint3.of(1, 0, 1, 1))


def test_gradient_vanishes_on_double_lines_only():
    for Z in (ProjectivePoint3.of(0, 0, 1, 2),
              ProjectivePoint3.of(0, 1, 0, -1),
              ProjectivePoint3.of(1, 0, 0.7, 0)):
        assert np.max(np.abs(grad_K(Z))) <= 1e-12
    smooth = lift(F_PAR, 0.3 + 0.1j, 1 + 1j)
    assert np.max(np.abs(grad_K(smooth))) > 1e-6


def test_fiber_polynomial_spot():
    # c = j/2: R(v) = (v^2 + 1/2)^2
    poly = fiber_polynomial(Quaternion(0, 0, 0.5, 0))
    assert np.allclose(poly, [0.25, 0, 1, 0, 1])
    # c = 1 + j: R(v) = v^4 - v^2 + 2
    poly = fiber_polynomial(Quaternion(1, 0, 1, 0))
    assert np.allclose(poly, [2, 0, -1, 0, 1])


def test_fiber_classification_cases():
    assert fiber_intersections(Quaternion(0.25, 0.5)).kind \
        == FiberKind.ON_PARABOLA
    assert fiber_intersections(Quaternion()).kind == FiberKind.ON_PARABOLA
    assert fiber_intersections(Quaternion(1.0)).kind == FiberKind.ON_PLANE_LI
    assert fiber_intersections(Quaternion(0, 0, 0.5, 0)).kind \
        == FiberKind.ON_PARABOLOID
    fc = fiber_intersections(Quaternion(1, 0, 1, 0))
    assert fc.kind == FiberKind.GENERIC_FOUR
    assert len(set(np.round(np.array(fc.ruling_parameters), 6))) == 4
    assert fiber_intersections(Quaternion(0.25, 0, 0, 0)).kind \
        == FiberKind.AT_FOCUS


def test_fiber_axis_points_lie_on_fiber():
    from sliceregular.parabola import fiber_axis_points
    from sliceregular import twistor_project
    c = Quaternion(0.5, -0.3, 1.2, 0.4)
    z0_pt, z1_pt = fiber_axis_points(c)
    for Z in (z0_pt, z1_pt):
        h = twistor_project(Z)
        assert abs(h.affine_point() - c) <= 1e-9


def test_discriminant_reduction_at_x1_zero():
    rng = np.random.default_rng(5)
    for _ in range(50):
        p = Quaternion(float(rng.uniform(-2, 2)), 0.0,
                       float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        C = p.norm_sq()
        reduced = C * (-1 + 4 * C + 4 * p.w - 4 * p.w ** 2) ** 2
        assert math.isclose(discriminant_D(p), reduced,
                            rel_tol=1e-10, abs_tol=1e-10)


def test_discriminant_vanishes_on_paraboloid():
    for r, a in ((0.3, 0.0), (0.9, 2.0), (1.2, 4.5)):
        p = Quaternion(0.25 - r * r, 0.0, r * math.cos(a), r * math.sin(a))
        assert abs(discriminant_D(p)) <= 1e-9 * (1 + p.norm_sq()) ** 3


def test_osculating_sphere():
    assert abs(osculating_sphere_point(0j) - Quaternion(-0.75)) <= 1e-12
    assert abs(osculating_sphere_point(None) - Quaternion(0.25)) <= 1e-12
    big = osculating_sphere_point(1e8 + 0j)
    assert abs(big - Quaternion(0.25)) <= 1e-6
    # every point is the image of a point of the sphere (1/2) S
    rng = np.random.default_rng(8)
    for _ in range(20):
        u = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        p = osculating_sphere_point(u)
        # on the sphere of radius 1/2 centred at -1/4 in R + jR + kR
        assert abs(p.x) <= 1e-12
        assert math.isclose((p.w + 0.25) ** 2 + p.y ** 2 + p.z ** 2, 0.25,
                            abs_tol=1e-12)
        pts = preimages(p)
        assert any(math.isclose(abs(q), 0.5, abs_tol=1e-7) for q in pts)


def test_ruling_lines_meet_on_m02():
    # the lines of parameters v and i - v meet at [0, 1, 0, v^2 - iv]
    from sliceregular.twistor import SplitPair
    pair = SplitPair(F_PAR)
    rng = np.random.default_rng(4)
    for _ in range(10):
        v = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(v - 0.5j) < 1e-3:
            continue
        meet = ProjectivePoint3.of(0, 1, 0, v * v - 1j * v)
        # the meeting point satisfies both plane pairs
        for vv in (v, 1j - v):
            g = vv * vv + 1j * vv
            gh = vv * vv - 1j * vv
            assert abs(meet[2] - g * meet[0]) <= 1e-9
            assert abs(meet[3] - gh * meet[1]) <= 1e-9


def test_figure_data():
    rows = figure1_rows(36)
    labels = {r[3] for r in rows}
    assert labels == {"parabola", "paraboloid", "sphere"}
    cells = figure2_cells(grid=12, extent=1.0)
    assert cells  # the slice surface crosses the sampled box
    for x, y, z in cells:
        assert abs(x) <= 1.0 and abs(y) <= 1.0 and abs(z) <= 1.0
