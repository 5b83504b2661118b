import numpy as np
import pytest

from sliceregular import (ChartPoint, CurveSample, HP1Point, KleinPoint,
                          OutsideRadius, PoleDetected, ProjectivePoint3,
                          Quaternion, RegularSeries, eval_series, fiber_plucker,
                          in_q_plus, j_involution, lift, line_plucker,
                          on_quadric, phi, reconstruct, sigma, split,
                          star_mul, star_product_split, twistor_project,
                          twistor_transform)
from sliceregular.parsing import parse_polynomial
from sliceregular.quat_core import ONE
from sliceregular.twistor import SplitPair, normalized_curve_values

F = parse_polynomial("q^2+qi")


def rand_poly(rng, deg=4):
    return RegularSeries(tuple(
        Quaternion(*(float(t) for t in rng.uniform(-1, 1, 4)))
        for _ in range(deg + 1)))


def test_projective_equality():
    a = ProjectivePoint3.of(1, 2, 3, 4)
    b = ProjectivePoint3.of(2j, 4j, 6j, 8j)
    c = ProjectivePoint3.of(1, 2, 3, 5)
    assert a.equals(b)
    assert not a.equals(c)


def test_hp1_left_homogeneity():
    p = Quaternion(0.3, 1.0, -0.2, 0.5)
    a = HP1Point(Quaternion(1.0), Quaternion(0, 1, 2, 3))
    b = HP1Point(p * Quaternion(1.0), p * Quaternion(0, 1, 2, 3))
    assert a.equals(b)
    assert HP1Point.infinity().is_infinite


def test_projection_formula():
    # [1, 0, 2, 3] -> [1, 2 + 3j]: the affine point is 2 + 3j
    Z = ProjectivePoint3.of(1.0, 0.0, 2.0, 3.0)
    h = twistor_project(Z)
    assert abs(h.affine_point() - Quaternion(2, 0, 3, 0)) <= 1e-12
    # an imaginary Z3 contributes through the k-component
    h2 = twistor_project(ProjectivePoint3.of(2.0, 0.0, 1.0, 1j))
    assert abs(h2.affine_point() - Quaternion(0.5, 0.0, 0.0, 0.5)) <= 1e-12


def test_quadric_graph_membership():
    # [1, u, v, uv] lies on Z0 Z3 = Z1 Z2; Im v > 0 puts it in the open piece
    u, v = 0.5 + 0.25j, 1 + 2j
    Z = ProjectivePoint3.of(1, u, v, u * v)
    assert on_quadric(Z)
    assert in_q_plus(Z)
    assert not in_q_plus(ProjectivePoint3.of(1, u, np.conj(v), u * np.conj(v)))
    assert not on_quadric(ProjectivePoint3.of(1, 0, 1, 1))


def test_split_roundtrip():
    rng = np.random.default_rng(0)
    f = rand_poly(rng)
    pair = split(f)
    back = pair.to_series()
    for n in range(f.degree + 1):
        assert abs(back.coeff(n) - f.coeff(n)) <= 1e-12


def test_split_star_product_consistency():
    rng = np.random.default_rng(1)
    f, g = rand_poly(rng, 3), rand_poly(rng, 4)
    direct = split(star_mul(f, g))
    viasplit = star_product_split(split(f), split(g))
    n = max(len(direct.g), len(viasplit.g))
    for arr_a, arr_b in ((direct.g, viasplit.g), (direct.h, viasplit.h)):
        pa = np.zeros(n, dtype=complex)
        pb = np.zeros(n, dtype=complex)
        pa[:len(arr_a)] = arr_a
        pb[:len(arr_b)] = arr_b
        assert np.max(np.abs(pa - pb)) <= 1e-12


def test_lift_covers_function():
    rng = np.random.default_rng(2)
    for _ in range(25):
        f = rand_poly(rng)
        u = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        v = complex(rng.uniform(-2, 2), rng.uniform(0.1, 2))
        q = phi(ChartPoint(u, v))
        proj = twistor_project(lift(f, u, v))
        assert abs(proj.affine_point() - eval_series(f, q)) <= 1e-9


def test_lift_spot_value():
    # q^2+qi at (u, v) = (1, 1): [1, 1, 1+i, 1-i]
    Z = lift(F, 1 + 0j, 1 + 0j)
    assert Z.equals(ProjectivePoint3.of(1, 1, 1 + 1j, 1 - 1j))


def test_lift_at_infinite_u():
    # the u = infinity limit [0, 1, -h^(v), g^(v)]
    v = 0.7 + 0.3j
    Z = lift(F, None, v)
    expected = ProjectivePoint3.of(0, 1, 0, v * v - 1j * v)
    assert Z.equals(expected)


def test_transform_klein_relation_and_line_consistency():
    rng = np.random.default_rng(3)
    for _ in range(25):
        f = rand_poly(rng)
        pair = split(f)
        v = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        zeta = twistor_transform(f, v)
        assert zeta.on_klein_quadric(1e-10)
        # wedge of the two plane equations gives the same Klein point
        assert line_plucker(pair, v).equals(zeta, 1e-9)


def test_transform_contains_lift():
    # every lifted point of the slice lies on the line recorded by zeta:
    # check the two plane equations Z2 = g Z0 - h^ Z1 and Z3 = h Z0 + g^ Z1
    rng = np.random.default_rng(4)
    f = rand_poly(rng)
    pair = split(f)
    for u in (0j, 1 + 1j, None):
        v = 0.4 + 0.9j
        Z = lift(f, u, v)
        g, h, gh, hh = pair.values(v)
        assert abs(Z[2] - (g * Z[0] - hh * Z[1])) <= 1e-9
        assert abs(Z[3] - (h * Z[0] + gh * Z[1])) <= 1e-9


def test_non_symmetric_pair_values_use_supplied_hats():
    pair = SplitPair([1, 2j], [3], ghat=np.array([5, 0, 1]),
                     hhat=np.array([7, 1j]))
    assert not pair.symmetric
    assert split(F).symmetric
    v = 0.5 + 0.25j
    assert pair.values(v) == (1 + 2j * v, 3, 5 + v * v, 7 + 1j * v)


def test_lift_outside_radius():
    f = RegularSeries((ONE, ONE), radius=1.0)
    assert on_quadric(lift(f, 1j, 0.6 + 0.7j))
    for v in (1.0, 0.6 + 0.8j, 2j):
        for u in (0j, None):
            with pytest.raises(OutsideRadius):
                lift(f, u, v)
        with pytest.raises(OutsideRadius):
            twistor_transform(f, v)


def test_sigma_is_involution_preserving_klein():
    rng = np.random.default_rng(5)
    for _ in range(10):
        f = rand_poly(rng)
        v = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        zeta = twistor_transform(f, v)
        assert sigma(sigma(zeta)).equals(zeta, 1e-12)
        assert sigma(zeta).on_klein_quadric(1e-10)


def test_reality_condition():
    rng = np.random.default_rng(6)
    f = rand_poly(rng)
    v = 0.3 - 1.2j
    assert sigma(twistor_transform(f, v)).equals(
        twistor_transform(f, v.conjugate()), 1e-10)


def test_j_involution_properties():
    Z = ProjectivePoint3.of(1, 2j, 3, 4 - 1j)
    assert j_involution(j_involution(Z)).equals(Z, 1e-12)
    # no fixed points
    assert not j_involution(Z).equals(Z, 1e-6)
    # the projection of jZ is the same point of HP1 (the fibre is j-stable)
    h1 = twistor_project(Z)
    h2 = twistor_project(j_involution(Z))
    assert h1.equals(h2, 1e-9)


def test_fiber_plucker_sigma_fixed():
    q = Quaternion(0.3, -0.7, 1.1, 0.4)
    zeta = fiber_plucker(q)
    assert zeta.on_klein_quadric(1e-12)
    assert sigma(zeta).equals(zeta, 1e-12)
    assert fiber_plucker(None).equals(KleinPoint.of(1, 0, 0, 0, 0, 0))


def test_fiber_plucker_matches_transform_over_parabola():
    # over a real parameter the transform line is the fibre over t^2 + it
    t = 0.8
    zeta = twistor_transform(F, complex(t))
    target = fiber_plucker(Quaternion(t * t, t, 0, 0))
    assert zeta.equals(target, 1e-9)


def test_reconstruct_roundtrip():
    rng = np.random.default_rng(7)
    for _ in range(10):
        f = rand_poly(rng, int(rng.integers(1, 6)))
        vs = [complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
              for _ in range(2 * f.degree + 6)]
        samples = [CurveSample(v, twistor_transform(f, v)) for v in vs]
        pair = reconstruct(samples)
        assert pair.symmetric
        back = pair.to_series()
        for n in range(f.degree + 1):
            assert abs(back.coeff(n) - f.coeff(n)) <= 1e-9


def test_reconstruct_flags_pole():
    def rational(v):
        return CurveSample(v, KleinPoint.of(1, 0, -(v - 1j), v + 1j, 0,
                                            v * v + 1))
    values = normalized_curve_values([rational(0.5 + 0j)])
    _, g, h, _, _ = values[0]
    assert abs(g - 1.0 / (0.5 + 1j)) <= 1e-12
    assert abs(h) <= 1e-12
    with pytest.raises(PoleDetected):
        normalized_curve_values([rational(1j)])


def test_klein_point_json():
    zeta = KleinPoint.of(1, 2, 3, 4, 5, 6)
    data = zeta.to_json()
    assert len(data) == 6 and all(len(pair) == 2 for pair in data)
