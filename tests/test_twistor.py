import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as npoly

from sliceregular import (ChartPoint, CurveSample, FitError, HP1Point, KleinPoint,
                          OutsideRadius, PoleDetected, ProjectivePoint3,
                          Quaternion, RegularSeries, eval_series, fiber_plucker,
                          in_q_plus, j_involution, lift, line_plucker,
                          on_quadric, phi, reconstruct, sigma, star_mul,
                          twistor_project, twistor_transform)
from sliceregular.parsing import parse_polynomial
from sliceregular.quat_core import I, J, ONE
from sliceregular.twistor import (SplitPair, _curve_columns, _fit_columns,
                                  normalized_curve_values)

F = parse_polynomial("q^2+qi")


def split_arrays(f):
    """The complex coefficient arrays of g and h in a_n = g_n + h_n j."""
    g = np.array([complex(a.w, a.x) for a in f.coeffs], dtype=complex)
    h = np.array([complex(a.y, a.z) for a in f.coeffs], dtype=complex)
    return g, h


def oracle_values(g, h, ghat, hhat, v):
    """(g(v), h(v), g^(v), h^(v)) by four separate complex Horner sums."""
    return tuple(complex(npoly.polyval(v, c)) if len(c) else 0j
                 for c in (g, h, ghat, hhat))


def oracle_star_product(f1, f2):
    """The star product in split form: (g1 g2 - h1 h2^, g1 h2 + h1 g2^),
    with the symmetric hats g2^ = conj g2, h2^ = conj h2."""
    (g1, h1), (g2, h2) = split_arrays(f1), split_arrays(f2)
    g = npoly.polysub(npoly.polymul(g1, g2), npoly.polymul(h1, np.conj(h2)))
    h = npoly.polyadd(npoly.polymul(g1, h2), npoly.polymul(h1, np.conj(g2)))
    return g, h


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


@pytest.mark.parametrize("scale", [1e-300, 1e-100, 1e-13, 1.0, 1e13, 1e300])
def test_hp1_infinity_is_scale_invariant(scale):
    one = HP1Point(Quaternion(scale), Quaternion(scale))
    assert not one.is_infinite
    assert one.equals(HP1Point(ONE, ONE))
    inf = HP1Point(Quaternion(1e-13 * scale), Quaternion(scale))
    assert inf.is_infinite and inf.equals(HP1Point.infinity())


def test_hp1_rejects_zero_pair():
    with pytest.raises(ValueError):
        HP1Point(Quaternion(), Quaternion())
    with pytest.raises(ValueError):
        HP1Point(Quaternion(), Quaternion(-0.0, -0.0))


def test_non_finite_coordinates_raise_without_warning():
    nan, inf = float("nan"), float("inf")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for coords in ((nan, 1, 0, 0), (1, inf, 0, 0), (complex(0, nan), 0, 0, 0)):
            with pytest.raises(ValueError):
                ProjectivePoint3.of(*coords)
        with pytest.raises(ValueError):
            lift(F, 1 + 1j, nan)
        for u in (0j, 1 + 1j, None):
            with pytest.raises(ValueError):
                lift(F, u, 1e200)
        for v in (1e160, 1e200):  # g itself overflows
            with pytest.raises(ValueError):
                twistor_transform(F, v)
        with pytest.raises(ValueError):
            fiber_plucker(Quaternion(nan))


@pytest.mark.parametrize("v", [1e40, 1e80, 1e150])
def test_transform_normalizes_before_it_overflows(v):
    # transform-spot's closed form [v^4 + v^2, 0, -v^2 - iv, v^2 - iv, 0, 1]
    # for q^2 + qi, divided by v^4; g g^ + h^ h overflows from v = 1e77
    w = 1.0 / v
    expect = KleinPoint.of(1.0 + w * w, 0.0, -w * w - 1j * w ** 3,
                           w * w - 1j * w ** 3, 0.0, w ** 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = twistor_transform(F, v)
    np.testing.assert_allclose(got.coords, expect.coords, rtol=1e-12, atol=1e-315)


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


def test_point_tests_act_on_the_last_axis():
    # a batch from lift gets one verdict per row, each the verdict on that
    # row's point; twistor_project, whose HP1Point holds one point, names
    # the batch's shape instead of numpy's "truth value ... ambiguous"
    vs = np.array([0.5j, 1j, 0.2 - 0.7j, 1.5 + 0.3j, -2.0 - 0.1j])
    Z = lift(F, 1j, vs)
    points = [lift(F, 1j, complex(v)) for v in vs]
    assert on_quadric(Z).tolist() == [on_quadric(p) for p in points]
    assert in_q_plus(Z).tolist() == [in_q_plus(p) for p in points]
    rows = ProjectivePoint3(np.array([[1, 0, 1, 1], [1, 0.5, 1j, 0.5j],
                                      [0, 1, 0, 1j], [1, 0.5, -1j, -0.5j]]))
    assert on_quadric(rows).tolist() == [False, True, True, True]
    assert in_q_plus(rows).tolist() == [False, True, True, False]
    assert [in_q_plus(ProjectivePoint3(r)) for r in rows.coords] == [False, True, True, False]
    with pytest.raises(ValueError, match=r"shape \(5, 4\)"):
        twistor_project(Z)
    # j_involution already acts on a batch, row by row
    J = j_involution(Z)
    assert all(ProjectivePoint3(J.coords[n]).equals(j_involution(p), 1e-12)
               for n, p in enumerate(points))


def test_split_roundtrip():
    rng = np.random.default_rng(0)
    f = rand_poly(rng)
    pair = SplitPair(f)
    back = pair.series
    for n in range(f.degree + 1):
        assert abs(back.coeff(n) - f.coeff(n)) <= 1e-12


def test_split_star_product_consistency():
    rng = np.random.default_rng(1)
    f, g = rand_poly(rng, 3), rand_poly(rng, 4)
    direct = split_arrays(star_mul(f, g))
    viasplit = oracle_star_product(f, g)
    n = max(len(direct[0]), len(viasplit[0]))
    for arr_a, arr_b in zip(direct, viasplit):
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
        pair = SplitPair(f)
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
    pair = SplitPair(f)
    for u in (0j, 1 + 1j, None):
        v = 0.4 + 0.9j
        Z = lift(f, u, v)
        g, h, gh, hh = pair.values(v)
        assert abs(Z[2] - (g * Z[0] - hh * Z[1])) <= 1e-9
        assert abs(Z[3] - (h * Z[0] + gh * Z[1])) <= 1e-9


def test_non_symmetric_pair_values_use_supplied_hats():
    # g = 1 + 2iv, h = 3, and the reflected series of g^ = 5 + v^2,
    # h^ = 7 + iv has coefficients conj g^_n + conj h^_n j
    pair = SplitPair(RegularSeries((Quaternion(1, 0, 3), Quaternion(0, 2))),
                     RegularSeries((Quaternion(5, 0, 7), Quaternion(0, 0, 0, -1),
                                    ONE)))
    assert not pair.symmetric
    assert SplitPair(F).symmetric
    v = 0.5 + 0.25j
    assert pair.values(v) == (1 + 2j * v, 3, 5 + v * v, 7 + 1j * v)


components = st.builds(
    lambda sign, e: sign * 10.0 ** e,
    st.sampled_from([-1.0, 1.0]), st.floats(-3.0, 3.0))
series_strategy = st.lists(st.builds(Quaternion, components, components,
                                     components, components),
                           min_size=1, max_size=17).map(tuple).map(RegularSeries)
slice_points = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))


def _bound(f, v):
    """sum |a_n| |v|^n, the scale of a Horner sum's rounding."""
    return sum(abs(a) * abs(v) ** n for n, a in enumerate(f.coeffs))


@settings(max_examples=200, deadline=None)
@given(series_strategy, series_strategy, slice_points)
def test_pair_values_match_four_polyval_oracle(f, r, v):
    g, h = split_arrays(f)
    expected = oracle_values(g, h, np.conj(g), np.conj(h), v)
    got = SplitPair(f).values(v)
    for a, b in zip(got, expected):
        assert abs(a - b) <= 1e-13 * _bound(f, v)
    # a reflected pair takes g, h from f and its hats from r
    gr, hr = split_arrays(r)
    expected = oracle_values(g, h, np.conj(gr), np.conj(hr), v)
    got = SplitPair(f, r).values(v)
    for a, b, scale in zip(got, expected, (f, f, r, r)):
        assert abs(a - b) <= 1e-13 * _bound(scale, v)


def quaternion_values(f, v):
    """(g(v), h(v), g^(v), h^(v)) read off the quaternion Horner value."""
    g, h = eval_series(f, Quaternion.from_complex(v)).complex_pair()
    gr, hr = eval_series(f, Quaternion.from_complex(v.conjugate())).complex_pair()
    return g, h, gr.conjugate(), hr.conjugate()


signed = st.one_of(st.sampled_from([0.0, -0.0]), components)
signed_quaternions = st.builds(Quaternion, signed, signed, signed, signed)


@settings(max_examples=300, deadline=None)
@given(st.lists(signed_quaternions, min_size=1, max_size=13),
       st.builds(complex, st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0)),
                 st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0))),
       st.sampled_from([math.inf, 3.0]))
def test_pair_kernel_is_the_quaternion_horner_value(coeffs, v, radius):
    # the complex loop does the quaternion loop's products in its order;
    # the quaternion loop's extra zero products can flip the sign of an
    # exactly zero sum, which shows only where a coefficient has a -0.0
    f = RegularSeries(tuple(coeffs), radius)
    got, want = SplitPair(f).values(v), quaternion_values(f, v)
    assert got == want
    if not any(math.copysign(1.0, t) < 0 and t == 0.0 for a in f.coeffs for t in a):
        assert repr(got) == repr(want)


def assert_rows_match(batch, points):
    """Each row of a batch within 1e-13 of the point computed alone, whose
    largest coordinate is 1.  numpy's complex product rounds differently
    from Python's, and cancellation in g g^ + h^ h can grow the last-bit
    difference of the values; 6.2e-15 is the largest seen over 300 random
    polynomials."""
    assert batch.coords.shape == (len(points), len(points[0].coords))
    for row, point in zip(batch.coords, points):
        assert np.max(np.abs(row - point.coords)) <= 1e-13


@pytest.mark.parametrize("seed", range(4))
def test_batch_rows_match_scalar_calls(seed):
    rng = np.random.default_rng(seed)
    f = rand_poly(rng, int(rng.integers(1, 8)))
    vs = rng.uniform(-2.0, 2.0, 60).view(complex)
    # the kernel's values within 1e-15 of the Horner sum's scale
    got = np.array(SplitPair(f).values(vs))
    want = np.array([SplitPair(f).values(v) for v in vs]).T
    assert np.all(np.abs(got - want) <= 1e-15 * np.array([_bound(f, v) for v in vs]))
    us = [None if k % 4 == 0 else complex(*rng.uniform(-2.0, 2.0, 2))
          for k in range(len(vs))]
    assert_rows_match(lift(f, us, vs), [lift(f, u, v) for u, v in zip(us, vs)])
    for u in (None, 0.5 - 1j):
        assert_rows_match(lift(f, u, vs), [lift(f, u, v) for v in vs])
    zeta = twistor_transform(f, vs)
    points = [twistor_transform(f, v) for v in vs]
    assert_rows_match(zeta, points)
    assert_rows_match(line_plucker(SplitPair(f), vs),
                      [line_plucker(SplitPair(f), v) for v in vs])
    assert_rows_match(sigma(zeta), [sigma(z) for z in points])
    assert zeta.on_klein_quadric().tolist() == [z.on_klein_quadric() for z in points]
    assert sigma(zeta).equals(twistor_transform(f, vs.conj())).all()
    assert not zeta.equals(twistor_transform(f, vs + 0.1)).any()
    np.testing.assert_allclose(zeta.klein_form(), [z.klein_form() for z in points],
                               rtol=0.0, atol=1e-15)


def test_batch_rescales_only_the_rows_that_overflow():
    # g g^ + h^ h of q^2 + qi overflows from |v| = 1e77, and g itself at 1e160
    vs = np.array([0.5 + 0.5j, 1e80, -1e100j, 2.0, 3e150 + 1e150j])
    assert_rows_match(twistor_transform(F, vs), [twistor_transform(F, v) for v in vs])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            twistor_transform(F, np.append(vs, 1e200))
        with pytest.raises(ValueError):
            lift(F, 1j, np.append(vs, 1e200))


def test_lift_outside_radius():
    f = RegularSeries((ONE, ONE), radius=1.0)
    assert on_quadric(lift(f, 1j, 0.6 + 0.7j))
    for v in (1.0, 0.6 + 0.8j, 2j):
        for u in (0j, None):
            with pytest.raises(OutsideRadius):
                lift(f, u, v)
        with pytest.raises(OutsideRadius):
            twistor_transform(f, v)
    # a batch raises if any of its points lies outside
    vs = np.array([0.1j, 0.6 + 0.8j, -0.5])
    for call in (lambda v: lift(f, 0j, v), lambda v: twistor_transform(f, v),
                 lambda v: SplitPair(f).values(v)):
        with pytest.raises(OutsideRadius):
            call(vs)
    inside = vs[[0, 2]]
    assert_rows_match(lift(f, 1j, inside), [lift(f, 1j, v) for v in inside])


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
        back = pair.series
        for n in range(f.degree + 1):
            assert abs(back.coeff(n) - f.coeff(n)) <= 1e-9


@pytest.mark.parametrize("s", [1e-100, 1e-30, 1e-12, 1e-6, 1.0, 1e3])
def test_reconstruct_is_scale_invariant(s):
    # s (q^3 + qi + j) fits at degree 3 at any scale, not at degree 0
    f = RegularSeries((s * J, s * I, Quaternion(), s * ONE))
    vs = [complex(t, 0.5 - t / 3) for t in np.linspace(-1.2, 1.2, 12)]
    pair = reconstruct([CurveSample(v, twistor_transform(f, v)) for v in vs])
    assert pair.series.degree == 3
    assert pair.symmetric
    assert (f - pair.series).coefficient_scale() <= 1e-12 * s


def oracle_fit_columns(vs, cols, max_degree, tol):
    """The fit by one least-squares problem per degree, which the one-QR
    fit replaced."""
    gates = tol * np.max(np.abs(cols), axis=0, initial=0.0)
    fits = [None] * cols.shape[1]
    for d in range(0, min(max_degree, len(vs) - 1) + 1):
        vand = np.vander(vs, d + 1, increasing=True)
        coeffs, *_ = np.linalg.lstsq(vand, cols, rcond=None)
        resid = np.max(np.abs(vand @ coeffs - cols), axis=0)
        for k in range(len(fits)):
            if fits[k] is None and resid[k] <= gates[k]:
                fits[k] = coeffs[:, k]
        if all(c is not None for c in fits):
            return fits
    raise FitError(f"no polynomial of degree <= {max_degree} fits the samples")


@pytest.mark.parametrize("seed", range(12))
def test_fit_columns_picks_the_oracle_degree(seed):
    rng = np.random.default_rng(seed)
    # g and h of their own degrees, so that the columns stop at different
    # degrees; seed 0 has h = 0, a column that fits at degree 0
    deg = int(rng.integers(1, 7))
    g = RegularSeries(tuple(Quaternion(*rng.uniform(-1, 1, 2)) for _ in range(deg + 1)))
    h = RegularSeries(tuple(Quaternion(0.0, 0.0, *rng.uniform(-1, 1, 2))
                            for _ in range(int(rng.integers(0, deg + 1)) * (seed > 0))))
    f = g + h
    vs = rng.uniform(-1.5, 1.5, 2 * (2 * deg + 6)).view(complex)
    vs, cols = _curve_columns([CurveSample(vs, twistor_transform(f, vs))])
    got = _fit_columns(vs, cols, 24, 1e-9)
    want = oracle_fit_columns(vs, cols, 24, 1e-9)
    assert [len(c) for c in got] == [len(c) for c in want]
    for a, b in zip(got, want):
        np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-9)
    # too low a degree cap fails both ways
    if deg > 1:
        for fit in (_fit_columns, oracle_fit_columns):
            with pytest.raises(FitError):
                fit(vs, cols, deg - 1, 1e-9)


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
    # a batch is flagged as its worst point is
    vs = np.array([0.5 + 0j, 1j])
    batch = CurveSample(vs, KleinPoint.of(1, 0, -(vs - 1j), vs + 1j, 0, vs * vs + 1))
    with pytest.raises(PoleDetected, match="1j"):
        normalized_curve_values([batch])
    assert normalized_curve_values([CurveSample(vs[:1], KleinPoint(
        batch.zeta.coords[:1]))]) == values


def test_klein_point_json():
    zeta = KleinPoint.of(1, 2, 3, 4, 5, 6)
    data = zeta.to_json()
    assert len(data) == 6 and all(len(pair) == 2 for pair in data)
