import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sliceregular import (NotReal, OutsideRadius, Quaternion, RegularSeries,
                          Sphere, ZeroPolynomial, ZeroSet, conjugate,
                          divide_linear, divide_real_quadratic, eval_series,
                          slice_values, spherical_expansion, star_mul,
                          star_power, symmetrize, zeros)
from sliceregular import regular_fn
from sliceregular.parsing import parse_polynomial
from sliceregular.quat_core import I, J, K, ONE, imag_unit, sphere_of
from sliceregular.regular_fn import (CLUSTER_TOL, DIVISION_TOL, _cluster_roots,
                                     _polish, _zero_on_sphere)

RNG = np.random.default_rng(42)


def rand_q(scale=1.0):
    return Quaternion(*(float(scale * t) for t in RNG.uniform(-1, 1, 4)))


def test_star_product_convolution():
    # (q - i) * (q - j) = q^2 - q(i+j) + ij = q^2 - q(i+j) + k
    f = star_mul(RegularSeries.linear(I), RegularSeries.linear(J))
    assert f.coeff(0) == K
    assert f.coeff(1) == -(I + J)
    assert f.coeff(2) == ONE


def test_star_product_agrees_with_pointwise_on_commuting_slice():
    # with coefficients in L_i, the star product restricted to L_i is pointwise
    f = parse_polynomial("q^2+qi")
    g = parse_polynomial("q-i")
    q = Quaternion(0.3, 0.7)
    lhs = eval_series(star_mul(f, g), q)
    rhs = eval_series(f, q) * eval_series(g, q)
    assert abs(lhs - rhs) <= 1e-12


def test_star_power():
    f = star_power(RegularSeries.linear(J), 2)
    # (q-j)*(q-j) = q^2 - 2qj - 1
    assert f.coeff(0) == -ONE
    assert f.coeff(1) == -2.0 * J
    assert f.coeff(2) == ONE


def test_eval_horner_right_coefficients():
    # f(q) = q a with a = j at q = i gives ij = k, not ji
    f = RegularSeries.polynomial(Quaternion(), J)
    assert eval_series(f, I) == K


def test_series_radius_enforced():
    f = RegularSeries((ONE, ONE), radius=1.0)
    eval_series(f, Quaternion(0.5))
    with pytest.raises(OutsideRadius):
        eval_series(f, Quaternion(1.5))


def test_conjugate_and_symmetrize():
    f = star_mul(RegularSeries.linear(I), RegularSeries.linear(Quaternion(1, 0, 1)))
    fs = symmetrize(f)
    for c in fs.coeffs:
        assert c.im_norm() == 0.0
    # symmetrization evaluates to f * f^c on the slice of real coefficients
    fc = conjugate(f)
    q = Quaternion(0.2, 0.4)
    assert abs(eval_series(fs, q) - eval_series(star_mul(f, fc), q)) <= 1e-12


def test_divide_linear_example():
    # q^2 + qi = (q - j)(q + j + i) + (-1 - k)
    f = parse_polynomial("q^2+qi")
    g, r = divide_linear(f, J)
    assert abs(g.coeff(1) - ONE) <= 1e-12
    assert abs(g.coeff(0) - (I + J)) <= 1e-12
    assert abs(r - Quaternion(-1, 0, 0, -1)) <= 1e-12
    # the remainder is the evaluation
    assert abs(r - eval_series(f, J)) <= 1e-12


def test_divide_linear_reassembles():
    f = RegularSeries(tuple(rand_q() for _ in range(5)))
    p = rand_q()
    g, r = divide_linear(f, p)
    back = star_mul(RegularSeries.linear(p), g) + RegularSeries.constant(r)
    for n in range(5):
        assert abs(back.coeff(n) - f.coeff(n)) <= 1e-12


def test_divide_real_quadratic_reassembles():
    f = RegularSeries(tuple(rand_q() for _ in range(6)))
    x, y = 0.4, 1.3
    quot, rem = divide_real_quadratic(f, x, y)
    quad = RegularSeries.polynomial(Quaternion(x * x + y * y),
                                    Quaternion(-2 * x), ONE)
    back = star_mul(quad, quot) + rem
    assert rem.degree <= 1
    for n in range(6):
        assert abs(back.coeff(n) - f.coeff(n)) <= 1e-11


def test_spherical_expansion_example():
    # q^2 + qi about j on the unit sphere: A0 = -1-k, A1 = i, A2 = 1
    f = parse_polynomial("q^2+qi")
    exp = spherical_expansion(f, Sphere(0.0, 1.0), J, 2)
    assert abs(exp.a(0) - Quaternion(-1, 0, 0, -1)) <= 1e-12
    assert abs(exp.a(1) - I) <= 1e-12
    assert abs(exp.a(2) - ONE) <= 1e-12


def test_spherical_expansion_reconstructs():
    f = RegularSeries(tuple(rand_q() for _ in range(6)))
    q0 = Quaternion(0.3, 0.2, 0.9, -0.4)
    exp = spherical_expansion(f, Sphere(q0.re(), q0.im_norm()), q0, 12)
    for q in Sphere(0.35, 0.95).sample(4):
        assert abs(exp.reconstruct(q) - eval_series(f, q)) <= 1e-9


def test_slice_values_device():
    f = parse_polynomial("q^2+qi")
    alpha, beta = slice_values(f, 0.0, 1.0)
    for unit in (I, J, K, imag := Quaternion(0, 0.6, 0.8)):
        q = unit
        assert abs(eval_series(f, q) - (alpha + unit * beta)) <= 1e-12


def test_zeros_distinct_spheres():
    # (q - i) * (q - (1+j)): zeros i and (a - b.conj()) b (a - b.conj())^-1
    f = star_mul(RegularSeries.linear(I),
                 RegularSeries.linear(Quaternion(1, 0, 1)))
    zs = zeros(f)
    assert not zs.spheres and len(zs.points) == 2
    second = Quaternion(1.0, 2 / 3, 1 / 3, -2 / 3)
    got = sorted(zs.points, key=lambda t: t[0].re())
    assert abs(got[0][0] - I) <= 1e-8
    assert abs(got[1][0] - second) <= 1e-8


def test_zeros_same_sphere_double_point():
    f = star_mul(RegularSeries.linear(I), RegularSeries.linear(J))
    zs = zeros(f)
    assert not zs.spheres
    assert len(zs.points) == 1
    p, n = zs.points[0]
    assert n == 2 and abs(p - I) <= 1e-7


def test_zeros_spherical():
    f = parse_polynomial("q^2+1")
    zs = zeros(f)
    assert not zs.points and len(zs.spheres) == 1
    s, m = zs.spheres[0]
    assert m == 2 and abs(s.x) <= 1e-9 and abs(s.y - 1.0) <= 1e-9


def test_zeros_real_point():
    zs = zeros(parse_polynomial("q"))
    assert zs.points == [(Quaternion(), 1)]


def test_zeros_mixed_product():
    factors = [Quaternion(0.5, 1.0, 0, 0), Quaternion(-1, 0, 2, 0),
               Quaternion(0, 0, 0, 1.5), Quaternion(2, 1, 1, 1)]
    f = RegularSeries.constant(ONE)
    for p in factors:
        f = star_mul(f, RegularSeries.linear(p))
    zs = zeros(f)
    assert zs.total_multiplicity == 4
    for p, _ in zs.points:
        assert abs(eval_series(f, p)) <= 1e-7


def test_zeros_rejects_zero_polynomial():
    with pytest.raises(ZeroPolynomial):
        zeros(RegularSeries(()))


def test_zeros_constant_is_empty():
    zs = zeros(RegularSeries.constant(Quaternion(2.0)))
    assert zs.total_multiplicity == 0


def quadratic_roots(alpha, beta):
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
        out.points.append((alpha, 1))
        out.points.append((d * beta * d.inverse(), 1))
    return out


def assert_zeros_match_closed_form(alpha, beta, rel):
    """zeros((q - alpha) * (q - beta)) against quadratic_roots, each point
    and sphere within rel of its size, multiplicities equal."""
    got = zeros(star_mul(RegularSeries.linear(alpha), RegularSeries.linear(beta)))
    want = quadratic_roots(alpha, beta)
    assert len(got.points) == len(want.points)
    assert len(got.spheres) == len(want.spheres)
    for p, n in want.points:
        assert any(abs(q - p) <= rel * (1.0 + abs(p)) and m == n
                   for q, m in got.points), (p, n, got)
    for s, n in want.spheres:
        assert any(abs(t.x - s.x) <= rel * (1.0 + abs(s.x))
                   and abs(t.y - s.y) <= rel * (1.0 + s.y) and m == n
                   for t, m in got.spheres), (s, n, got)


def test_quadratic_roots_three_cases():
    # distinct spheres: alpha and (alpha - beta-bar) beta (alpha - beta-bar)^-1
    zs = quadratic_roots(I, Quaternion(1, 0, 1))
    (p1, n1), (p2, n2) = zs.points
    assert p1 == I and abs(p2 - Quaternion(1, 2 / 3, 1 / 3, -2 / 3)) <= 1e-15
    assert n1 == n2 == 1
    assert_zeros_match_closed_form(I, Quaternion(1, 0, 1), 1e-7)
    # same sphere, beta != alpha-bar: a double point, which zeros() gives
    # only to about 1e-8
    assert quadratic_roots(I, J).points == [(I, 2)]
    assert_zeros_match_closed_form(I, J, 1e-7)
    assert_zeros_match_closed_form(Quaternion(0.5, 0.0, 0.6, 0.8),
                                   Quaternion(0.5, 1.0), 1e-7)
    # beta = alpha-bar: the whole sphere
    zs = quadratic_roots(I, -I)
    assert not zs.points and zs.spheres == [(Sphere(0.0, 1.0), 2)]
    assert_zeros_match_closed_form(I, -I, 1e-7)
    assert_zeros_match_closed_form(Quaternion(-1.0, 0.0, 2.0),
                                   Quaternion(-1.0, 0.0, -2.0), 1e-7)


# Components on a grid of 1/64 in [-2, 2]: exact in binary, so a point is
# real or at least 1/64 from the real axis.
grid_quaternions = st.builds(
    Quaternion, *[st.integers(-128, 128).map(lambda k: k / 64.0)] * 4)


@settings(max_examples=300, deadline=None)
@given(grid_quaternions, grid_quaternions)
def test_zeros_of_two_linear_factors_match_closed_form(alpha, beta):
    # on distinct spheres; the same-sphere cases are the examples above
    sa, sb = sphere_of(alpha), sphere_of(beta)
    assume(abs(sa.x - sb.x) + abs(sa.y - sb.y) >= 0.05)
    assert_zeros_match_closed_form(alpha, beta, 1e-9)


def test_symmetrize_detects_bad_input(monkeypatch):
    # symmetrization of any polynomial is real; feed a corrupted product
    f = RegularSeries.linear(I)
    good = symmetrize(f)
    assert all(c.im_norm() == 0.0 for c in good.coeffs)
    product = regular_fn._star_product

    def corrupted(a, b):
        out = product(a, b)
        w, x, y, z = out[0]
        out[0] = (w, x + 1e-3, y, z)
        return out

    monkeypatch.setattr(regular_fn, "_star_product", corrupted)
    with pytest.raises(NotReal):
        symmetrize(f)
    with pytest.raises(NotReal):
        zeros(f)


def test_zero_multiset_consistency_random():
    rng = np.random.default_rng(7)
    for _ in range(25):
        deg = int(rng.integers(1, 6))
        f = RegularSeries.constant(ONE)
        for _ in range(deg):
            f = star_mul(f, RegularSeries.linear(
                Quaternion(*(float(t) for t in rng.uniform(-1.2, 1.2, 4)))))
        assert zeros(f).total_multiplicity == deg


# ---------------------------------------------------------------------------
# Bit-exactness oracles.  These are the Quaternion-object bodies that
# star_mul, eval_series, divide_linear, divide_real_quadratic,
# slice_values, _zero_on_sphere and the Newton polisher had before they
# ran on float kernels.  The kernels must give the same floats, compared
# by repr so that signed zeros count.


def oracle_mul(p, q):
    return Quaternion(
        p.w * q.w - p.x * q.x - p.y * q.y - p.z * q.z,
        p.w * q.x + p.x * q.w + p.y * q.z - p.z * q.y,
        p.w * q.y - p.x * q.z + p.y * q.w + p.z * q.x,
        p.w * q.z + p.x * q.y - p.y * q.x + p.z * q.w,
    )


def oracle_star_mul(f, g):
    if f.is_zero or g.is_zero:
        return RegularSeries((), min(f.radius, g.radius))
    out = [Quaternion() for _ in range(len(f.coeffs) + len(g.coeffs) - 1)]
    for k, a in enumerate(f.coeffs):
        for l, b in enumerate(g.coeffs):
            out[k + l] = out[k + l] + oracle_mul(a, b)
    return RegularSeries(tuple(out), min(f.radius, g.radius))


def oracle_symmetrize(f):
    fs = oracle_star_mul(f, conjugate(f))
    scale = max(1.0, fs.coefficient_scale())
    out = []
    for c in fs.coeffs:
        if c.im_norm() > 1e-12 * scale:
            raise NotReal(f"symmetrization coefficient {c} is not real")
        out.append(Quaternion(c.w))
    return RegularSeries(tuple(out), f.radius)


def oracle_eval_series(f, q):
    acc = Quaternion()
    for a in reversed(f.coeffs):
        acc = oracle_mul(q, acc) + a
    return acc


def oracle_divide_linear(f, p):
    if f.is_zero:
        return f, Quaternion()
    b = [Quaternion()] * max(len(f.coeffs) - 1, 0)
    acc = Quaternion()
    for n in range(len(f.coeffs) - 1, 0, -1):
        acc = f.coeffs[n] + oracle_mul(p, acc)
        b[n - 1] = acc
    r = f.coeffs[0] + oracle_mul(p, acc)
    return RegularSeries(tuple(b), f.radius), r


def oracle_divide_real_quadratic(f, x, y):
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


def oracle_slice_values(f, x, y):
    fp = oracle_eval_series(f, Quaternion(x, y))
    fm = oracle_eval_series(f, Quaternion(x, -y))
    alpha = 0.5 * (fp + fm)
    beta = oracle_mul(-I, 0.5 * (fp - fm))
    return alpha, beta


def oracle_zero_on_sphere(f, x, y, scale):
    alpha, beta = oracle_slice_values(f, x, y)
    if abs(beta) <= DIVISION_TOL * max(1.0, scale):
        return None
    cand = -oracle_mul(alpha, beta.inverse())
    if abs(cand.re()) > 1e-6 * max(1.0, abs(cand)):
        return None
    if abs(abs(cand) - 1.0) > 1e-6:
        return None
    unit = imag_unit(cand)
    p = Quaternion(x) + y * unit
    _, r = oracle_divide_linear(f, p)
    if abs(r) > DIVISION_TOL * max(1.0, scale):
        return None
    return p


def oracle_polish_simple_root(coeffs, z0):
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


def bits(value):
    """Comparable reprs of a quaternion, series, tuple, complex or None."""
    if value is None:
        return None
    if isinstance(value, RegularSeries):
        return [bits(c) for c in value.coeffs], repr(value.radius)
    if isinstance(value, complex):
        value = (value.real, value.imag)
    return tuple(map(repr, value))


# Components from 1e-3 to 1e3 in size, either sign, and signed zeros.
components = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from([-1.0, 1.0]),
              st.floats(min_value=-3.0, max_value=3.0)))
quaternions = st.one_of(st.just(Quaternion()), st.just(-Quaternion()),
                        st.builds(Quaternion, components, components,
                                  components, components))
# Degrees 0-16, with zero coefficients inside and up to two trailing
# zero coefficients, which RegularSeries trims.
series = st.builds(
    lambda coeffs, pad: RegularSeries(tuple(coeffs) + (Quaternion(),) * pad),
    st.lists(quaternions, min_size=1, max_size=17), st.integers(0, 2))
ORACLE = settings(max_examples=100, deadline=None)


@ORACLE
@given(quaternions, quaternions)
def test_mul_matches_oracle(p, q):
    assert bits(p * q) == bits(oracle_mul(p, q))


@ORACLE
@given(series, series)
@example(RegularSeries((Quaternion(-1.0, -0.0, -0.0, -0.0),) * 2),
         RegularSeries.constant(ONE))  # -q - 1: c - 0.0 keeps -0.0
def test_series_sum_difference_and_negation_match_oracle(f, g):
    # g is shorter, longer or as long as f; the padding is Quaternion()
    # on both sides, so f - g keeps f's -0.0 components past g's degree
    n = max(len(f.coeffs), len(g.coeffs))
    radius = min(f.radius, g.radius)
    assert bits(f + g) == bits(RegularSeries(
        tuple(f.coeff(k) + g.coeff(k) for k in range(n)), radius))
    assert bits(f - g) == bits(RegularSeries(
        tuple(f.coeff(k) - g.coeff(k) for k in range(n)), radius))
    assert bits(-f) == bits(RegularSeries(tuple(-c for c in f.coeffs), f.radius))


@ORACLE
@given(series, series)
def test_star_mul_matches_oracle(f, g):
    assert bits(star_mul(f, g)) == bits(oracle_star_mul(f, g))


@ORACLE
@given(series, st.integers(0, 3), st.sampled_from([math.inf, 2.0]))
def test_star_power_matches_oracle(f, n, radius):
    # f^0 is the polynomial 1, radius and all, even for a series
    f = RegularSeries(f.coeffs, radius)
    want = RegularSeries((ONE,))
    for _ in range(n):
        want = oracle_star_mul(want, f)
    assert bits(star_power(f, n)) == bits(want)


@ORACLE
@given(series)
def test_symmetrize_matches_oracle(f):
    try:
        want = bits(oracle_symmetrize(f))
    except NotReal as exc:
        with pytest.raises(NotReal) as got:
            symmetrize(f)
        assert str(got.value) == str(exc)
    else:
        assert bits(symmetrize(f)) == want


@ORACLE
@given(series, quaternions)
def test_eval_series_matches_oracle(f, q):
    assert bits(eval_series(f, q)) == bits(oracle_eval_series(f, q))


@ORACLE
@given(series, quaternions)
def test_divide_linear_matches_oracle(f, p):
    got, want = divide_linear(f, p), oracle_divide_linear(f, p)
    assert bits(got[0]) == bits(want[0]) and bits(got[1]) == bits(want[1])


@ORACLE
@given(series, components, components)
def test_divide_real_quadratic_matches_oracle(f, x, y):
    got = divide_real_quadratic(f, x, y)
    want = oracle_divide_real_quadratic(f, x, y)
    assert bits(got[0]) == bits(want[0]) and bits(got[1]) == bits(want[1])


@ORACLE
@given(series, components, components)
def test_slice_values_matches_oracle(f, x, y):
    assert ([bits(v) for v in slice_values(f, x, y)]
            == [bits(v) for v in oracle_slice_values(f, x, y)])


@ORACLE
@given(series, quaternions, st.booleans())
def test_zero_on_sphere_matches_oracle(g, p, plant):
    # planting (q - p) as a left factor puts a zero at p on its sphere
    f = star_mul(RegularSeries.linear(p), g) if plant else g
    x, y = p.w, p.im_norm()
    scale = f.coefficient_scale()
    got = _zero_on_sphere(f.coeffs, x, y,
                          DIVISION_TOL * max(1.0, scale))
    assert bits(got) == bits(oracle_zero_on_sphere(f, x, y, scale))


def _polish_cases(f):
    fs = np.array([c.w for c in reversed(symmetrize(f).coeffs)])
    centers = [center for center, _ in _cluster_roots(np.roots(fs))]
    return fs, centers


@ORACLE
@given(st.lists(quaternions.filter(lambda q: not q.is_zero()), min_size=1,
                max_size=8),
       st.lists(st.integers(0, 7), max_size=3), st.floats(-3.0, 3.0))
def test_polish_matches_oracle(roots, repeats, log_scale):
    # products of linear factors, some repeated, so that multiple roots
    # (tiny derivatives, drifting polishes) occur
    f = RegularSeries.constant(10.0 ** log_scale * ONE)
    for r in roots + [roots[n % len(roots)] for n in repeats]:
        f = star_mul(f, RegularSeries.linear(r))
    fs, centers = _polish_cases(f)
    got = _polish(fs, centers)
    assert [bits(z) for z in got] == [bits(complex(oracle_polish_simple_root(fs, z)))
                                      for z in centers]


def test_polish_stops_where_the_derivative_vanishes():
    # q^2 + 1 has f^s' = 0 at 0, so the polisher must leave 0 where it is
    fs = np.array([1.0, 0.0, 2.0, 0.0, 1.0])
    centers = [0j, 1j, 0.5 + 0.5j, 1e-9 + 1.0000001j]
    got = _polish(fs, centers)
    assert got[0] == 0j
    assert [bits(z) for z in got] == [bits(complex(oracle_polish_simple_root(fs, z)))
                                      for z in centers]
