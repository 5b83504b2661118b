import math
import warnings
from itertools import chain

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from sliceregular import (ConditioningWarning, DomainError, NotReal, OutsideRadius,
                          Quaternion, RegularSeries, Sphere, ZeroPolynomial,
                          ZeroSet, conjugate, divide_linear,
                          divide_real_quadratic, eval_series, slice_values,
                          spherical_expansion, star_mul, star_power,
                          symmetrize, zeros, zeros_many)
from sliceregular import regular_fn
from sliceregular.parsing import parse_polynomial
from sliceregular.quat_core import I, J, K, ONE, hamilton, sphere_of

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


def test_series_json_takes_json_numbers_only():
    f = RegularSeries.from_json({"coeffs": [[1, 0, 0, 0], [0.5, 0, 0, 0]], "radius": 2})
    assert f.coeffs == (ONE, 0.5 * ONE) and f.radius == 2.0
    for radius in ("inf", None):
        assert RegularSeries.from_json({"coeffs": [], "radius": radius}).radius == math.inf
    for data in ({"coeffs": [["1", 0, 0, 0]]}, {"coeffs": [[1, 0, True, 0]]},
                 {"coeffs": [[10 ** 400, 0, 0, 0]]}, {"coeffs": [], "radius": "5"},
                 {"coeffs": [], "radius": True}, {"coeffs": [], "radius": 10 ** 400}):
        with pytest.raises(ValueError):
            RegularSeries.from_json(data)


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


def test_spherical_expansion_rejects_center_off_small_sphere():
    # 5e-9 i lies fifty radii off the sphere 1e-10 S, however small both are
    f = parse_polynomial("q^2+qi")
    with pytest.raises(ValueError, match="not on sphere"):
        spherical_expansion(f, Sphere(0.0, 1e-10), Quaternion(0.0, 5e-9), 2)
    exp = spherical_expansion(f, Sphere(0.0, 1e-10), Quaternion(0.0, 1e-10), 2)
    assert abs(exp.a(2) - ONE) <= 1e-12


def test_spherical_expansion_reconstructs():
    f = RegularSeries(tuple(rand_q() for _ in range(6)))
    q0 = Quaternion(0.3, 0.2, 0.9, -0.4)
    exp = spherical_expansion(f, Sphere(q0.re(), q0.im_norm()), q0, 12)
    for n in range(4):  # points of Sphere(0.35, 0.95) at evenly rotated imaginary units
        a, b = 2.0 * math.pi * n / 4, math.pi * (2.0 * n + 1.0) / 8
        u = Quaternion(0.0, math.cos(a) * math.sin(b), math.sin(a) * math.sin(b), math.cos(b))
        q = Quaternion(0.35) + 0.95 * u
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
# star_mul, eval_series, divide_linear, divide_real_quadratic and
# slice_values had before they ran on float kernels.  The kernels must give the same floats, compared
# by repr so that signed zeros count; slice_values runs on the split-pair
# loop, whose floats differ from the quaternion loop's only in the sign
# of a zero.


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
# Lists of planted() draws, each of which may be filtered out.
PLANTED_LISTS = settings(max_examples=30, deadline=None,
                         suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])


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
    # the split-pair loop does the quaternion loop's products in its
    # order, so the values are equal as floats; its missing zero products
    # can change the sign of an exactly zero sum only where a coefficient
    # has a -0.0 component
    got, want = slice_values(f, x, y), oracle_slice_values(f, x, y)
    assert got == want
    if not any(math.copysign(1.0, t) < 0 and t == 0.0 for a in f.coeffs for t in a):
        assert [bits(v) for v in got] == [bits(v) for v in want]


# The loops that _slice_stack replaced, kept as oracles: the split
# pair's Horner loop on an array, and the Newton step at one order,
# which _read took once per order, on the group centres of that order.


def oracle_slice_pair(coeffs, v):
    vc = v.conjugate()
    g = h = gc = hc = 0j
    for w, x, y, z in reversed(coeffs):
        b, c = complex(w, x), complex(y, z)
        g, h, gc, hc = b + v * g, c + v * h, b + vc * gc, c + vc * hc
    return g, h, gc, hc


def oracle_step(e, v, order):
    parts = []
    for _ in range(order + 2):
        parts.append(oracle_slice_pair(e, v))
        e = [(n * w, n * x, n * y, n * z) for n, (w, x, y, z) in enumerate(e)][1:]
    at = [sum(math.comb(k, j) * (parts[j][0] * np.conj(parts[k - j][2])
                                 + parts[j][1] * np.conj(parts[k - j][3]))
              for j in range(k + 1)) for k in (order, order + 1)]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return at[0] / at[1]


def complex_bits(values):
    """The reprs of the real and imaginary part of every entry, flat."""
    return [(repr(z.real), repr(z.imag)) for z in np.ravel(values).tolist()]


# Degrees 1-16 as plain coefficient lists, with zero coefficients inside
# and up to two trailing ones, of either sign, which nothing trims.
coefficient_lists = st.builds(
    lambda coeffs, pad: [tuple(c) for c in coeffs] + pad,
    st.lists(quaternions, min_size=2, max_size=17),
    st.lists(st.sampled_from([(0.0,) * 4, (-0.0,) * 4]), max_size=2))
point_lists = st.lists(st.builds(complex, components, components), min_size=1, max_size=6)


@st.composite
def point_arrays(draw):
    """A 1-d complex array, a strided view of one (as a column of a chart
    array is), or a 0-d array."""
    vs = draw(point_lists)
    kind = draw(st.sampled_from(["1-d", "strided", "0-d"]))
    if kind == "0-d":
        return np.array(vs[0])
    return np.repeat(vs, 2)[::2] if kind == "strided" else np.array(vs)


@ORACLE
@given(coefficient_lists, point_arrays())
def test_slice_stack_matches_the_loop(coeffs, v):
    # numpy's array products round alike at any shape or stride, and
    # unlike its scalar ones: the loop's v-bar half at a 0-d array was
    # scalar arithmetic, since conj of a 0-d array is a scalar, so a
    # 0-d array now gives the values of a batch of one
    got = regular_fn._slice_pair(coeffs, v)
    want = oracle_slice_pair(coeffs, v.reshape(-1))
    assert [complex_bits(t) for t in got] == [complex_bits(t) for t in want]
    if v.ndim == 0:
        assert all(type(t) is np.complex128 for t in got)
    else:
        assert all(t.shape == v.shape for t in got)


@ORACLE
@given(coefficient_lists, point_lists, st.data())
@example([ONE, ONE, (-0.0,) * 4], [complex(-1.0, 1.0)], None)  # row 2 shows a -0.0 pad
def test_newton_step_matches_one_pass_per_order(e, vs, data):
    v = np.array(vs)
    # each row of the stack, e and its derivatives to order 8, is its own loop's
    stack = regular_fn._slice_stack(regular_fn._derivative_rows(e, 9), v[None])
    row = e
    for k in range(9):
        want = oracle_slice_pair(row, v)  # 0j for a row of no coefficients
        assert ([complex_bits(t) for t in stack[:, k]]
                == [complex_bits(np.broadcast_to(t, v.shape)) for t in want])
        row = [(n * w, n * x, n * y, n * z) for n, (w, x, y, z) in enumerate(row)][1:]
    if data is None:
        order, reach = np.zeros(v.size, int), ["inf"] * v.size
    else:
        order = np.array(data.draw(st.lists(st.integers(0, 7), min_size=v.size, max_size=v.size)))
        reach = data.draw(st.lists(st.sampled_from(["inf", "zero", "at", "below"]),
                                   min_size=v.size, max_size=v.size))
    step = np.empty_like(v)
    for k in set(order.tolist()):
        at = order == k
        step[at] = oracle_step(e, v[at], k)
    # a step exactly as long as its reach is taken, one a bit longer is not;
    # the length of each comes back either way
    size = np.abs(step)
    reach = np.choose([["inf", "zero", "at", "below"].index(r) for r in reach],
                      [np.full(v.size, math.inf), np.zeros(v.size), size, np.nextafter(size, 0.0)])
    want = np.where(size <= reach, v - step, v)
    got, got_size = regular_fn._newton(e, v, order, reach)
    assert complex_bits(got) == complex_bits(want)
    assert list(map(repr, got_size.tolist())) == list(map(repr, size.tolist()))


def test_newton_step_sums_from_zero():
    # Python's sum adds the first Leibniz term to 0, which turns its -0.0
    # components to +0.0; here that sign reaches the point the step gives
    e = [(-0.0, -1.0, -1.0, -0.0), (2.0, -0.0, -0.0, -1.0)]
    v = np.array([complex(-0.0, 1.0)])
    want = v - oracle_step(e, v, 0)
    got, _ = regular_fn._newton(e, v, np.zeros(1, int), np.full(1, math.inf))
    assert complex_bits(got) == complex_bits(want) == [("-0.0", "0.7")]


# The companion and the grouping as they were before they shared one
# fold, one distance matrix per grouping and one coefficient array,
# kept as oracles.


def oracle_scaled_monic(coeffs):
    d = len(coeffs) - 1
    exps = [math.frexp(max(map(abs, a)))[1] for a in coeffs]
    logs = [math.log2(math.hypot(*[math.ldexp(t, -x) for t in a])) + x if any(a) else -math.inf
            for a, x in zip(coeffs, exps)]
    logs[0] -= 1.0
    k = round(max((logs[n] - logs[d]) / (d - n) for n in range(d)))
    inv = Quaternion(*[math.ldexp(t, -exps[d]) for t in coeffs[d]]).inverse()
    e = [hamilton([math.ldexp(t, k * (n - d) - exps[d]) for t in a], inv)
         for n, a in enumerate(coeffs[:d])]
    b = np.array([complex(w, x) for w, x, _, _ in e])
    c = np.array([complex(y, z) for _, _, y, z in e])
    m = np.zeros((2 * d, 2 * d), complex)
    m[2:, :-2] = np.eye(2 * d - 2)
    m[0::2, -2], m[0::2, -1] = -b, -c
    m[1::2, -2], m[1::2, -1] = c.conjugate(), -b.conjugate()
    return e + [(1.0, 0.0, 0.0, 0.0)], np.linalg.eigvals(m), k


def oracle_radii(n, shrink, tol):
    with np.errstate(divide="ignore"):
        return shrink * 8.0 * tol ** (2.0 / np.minimum(np.arange(n + 1), 6))


def oracle_groups(w, radii, tol):
    z = w.real + 1j * np.abs(w.imag)
    left, out = np.arange(len(z)), []
    while left.size >= 4:
        dist = np.abs(z[left, None] - z[left])
        near = np.sort(dist, axis=1)[:, 3::2]
        ok = near <= radii[4:left.size + 1:2] * np.abs(z[left, None])
        for col in np.flatnonzero(ok.any(axis=0))[::-1]:
            seed = np.argmin(np.where(ok[:, col], near[:, col], np.inf))
            picked = np.argsort(dist[seed], kind="stable")[:2 * col + 4]
            c = z[left[picked]].mean()
            if regular_fn._tight((w if c.imag <= radii[2 * col + 4] * abs(c) else z)[left[picked]],
                                 tol):
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


@st.composite
def planted(draw):
    """The coefficients of a polynomial of degree 1-16 as zeros() takes
    them, the constant term nonzero: random, or a product of clusters,
    repeated linear factors (q - alpha)^n, repeated spherical factors
    ((q - x)^2 + y^2)^n and same-sphere pairs (q - alpha)(q - beta),
    beta on the sphere of alpha, times a lead coefficient."""
    if draw(st.booleans()):
        coeffs = draw(st.lists(quaternions, min_size=2, max_size=17))
    else:
        f = RegularSeries.constant(draw(quaternions.filter(any)))
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(["linear", "spherical", "pair"]))
            alpha = draw(quaternions)
            n = draw(st.integers(1, 4))
            if kind == "linear":
                factor = star_power(RegularSeries.linear(alpha), n)
            elif kind == "spherical":
                x, y = alpha.w, math.hypot(alpha.x, alpha.y, alpha.z)
                factor = star_power(RegularSeries.polynomial(
                    Quaternion(x * x + y * y), Quaternion(-2.0 * x), ONE), n)
            else:
                y = math.hypot(alpha.x, alpha.y, alpha.z)
                beta = Quaternion(alpha.w, 0.0, 0.6 * y, -0.8 * y)
                factor = star_mul(RegularSeries.linear(alpha), RegularSeries.linear(beta))
            f = star_mul(factor, f)
        coeffs = list(f.coeffs)
    coeffs = [tuple(c) for c in coeffs]
    while coeffs and coeffs[0] == (0.0,) * 4:
        coeffs.pop(0)
    while coeffs and coeffs[-1] == (0.0,) * 4:
        coeffs.pop()
    assume(2 <= len(coeffs) <= 17 and all(map(math.isfinite, chain.from_iterable(coeffs))))
    return coeffs


def companion_eigenvalues(coeffs):
    """The scaling stage, then the companion stage on a batch of one."""
    e, _ = regular_fn._scaled_monic(coeffs)
    return regular_fn._eigenvalues(np.array([e]), [len(e) - 1])[0]


@ORACLE
@given(planted())
@example([(-0.0, 0.0, -0.0, 1e-3), (1e3, -0.0, 0.0, -0.0), (0.0, 1.0, 0.0, -0.0)])
def test_scaled_monic_matches_the_oracle(coeffs):
    e, k = regular_fn._scaled_monic(coeffs)
    want_e, want_w, want_k = oracle_scaled_monic(coeffs)
    assert [bits(c) for c in e] == [bits(c) for c in want_e]
    assert k == want_k
    assert complex_bits(companion_eigenvalues(coeffs)) == complex_bits(want_w)


@PLANTED_LISTS
@given(st.lists(planted(), min_size=1, max_size=4))
def test_stacked_companions_match_one_eigvals_each(lists):
    # each polynomial again with its constant term doubled: every degree
    # has a stack of two or more companions, which eigvals solves in one
    # call, with padded monics of other degrees between them in the
    # batch; each comes out with the bits of an eigvals call of its own
    lists += [[tuple(2.0 * t for t in coeffs[0])] + coeffs[1:] for coeffs in lists]
    es = [regular_fn._scaled_monic(coeffs)[0] for coeffs in lists]
    width = max(map(len, es))
    a = np.array([e + [(0.0,) * 4] * (width - len(e)) for e in es])
    got = regular_fn._eigenvalues(a, [len(e) - 1 for e in es])
    for coeffs, w in zip(lists, got):
        assert complex_bits(w) == complex_bits(oracle_scaled_monic(coeffs)[1])


@ORACLE
@given(planted())
@example([(1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0), (2.0, 0.0, 0.0, 0.0),
          (0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)])  # (q^2 + 1)^2: a group of 4
def test_groups_match_the_oracle(coeffs):
    w = companion_eigenvalues(coeffs)
    z = w.real + 1j * np.abs(w.imag)
    for shrink, tol in regular_fn._PASSES:
        radii = regular_fn._radii(len(w), shrink, tol)
        want = oracle_groups(w, radii, tol)
        assert (regular_fn._groups(w, z, np.arange(len(w)), radii, tol)
                == [g.tolist() for g in want])
        # a later pass, over the groups that failed, here every other one
        left = np.concatenate(want[::2])
        assert (regular_fn._groups(w, z, left, radii, tol)
                == [left[g].tolist() for g in oracle_groups(w[left], radii, tol)])


def test_radii_match_the_oracle_to_the_largest_companion():
    for n in range(2 * 256 + 1):
        for shrink, tol in regular_fn._PASSES:
            got, want = regular_fn._radii(n, shrink, tol), oracle_radii(n, shrink, tol)
            assert list(map(repr, got.tolist())) == list(map(repr, want.tolist()))


# ---------------------------------------------------------------------------
# The zero counter: named inputs, repeated factors, and an exact oracle.


def assert_zero_set(zs, points=(), spheres=(), rel=1e-7):
    """zs has exactly these points (p, n) and spheres (x, y, m), in any
    order, each within rel of its size."""
    assert len(zs.points) == len(points), zs
    assert len(zs.spheres) == len(spheres), zs
    for p, n in points:
        assert any(abs(q - p) <= rel * max(abs(p), 1e-300) and m == n
                   for q, m in zs.points), (p, n, zs)
    for x, y, n in spheres:
        size = math.hypot(x, y)
        assert any(abs(s.x - x) <= rel * size and abs(s.y - y) <= rel * size
                   and m == n for s, m in zs.spheres), (x, y, n, zs)


ROOT3 = math.sqrt(3.0) / 2.0
NAMED = {
    "(q-1)^2": ([(ONE, 2)], []),
    "(q-1)^3": ([(ONE, 3)], []),
    "(q^2+1)^2": ([], [(0.0, 1.0, 4)]),
    "(q^2+1)^3": ([], [(0.0, 1.0, 6)]),
    "(q+i)^4": ([(-I, 4)], []),
    "1e-10*(q-1)*(q-2)": ([(ONE, 1), (Quaternion(2.0), 1)], []),
    "(q-1)^4*(q-2)": ([(ONE, 4), (Quaternion(2.0), 1)], []),
    "(q-i)*(q-j)*(q^2+1)": ([(I, 2)], [(0.0, 1.0, 2)]),
    "q^2 - 1e-12": ([(Quaternion(1e-6), 1), (Quaternion(-1e-6), 1)], []),
    "1e-100q^2+1e-200": ([], [(0.0, 1e-50, 2)]),
    "1e-200q^2+1e-200": ([], [(0.0, 1.0, 2)]),
    "1e300q^2+1e300q+1e300": ([], [(-0.5, ROOT3, 2)]),
    "q^3*(q-1)": ([(Quaternion(), 3), (ONE, 1)], []),
    "(q-1)*(q-1e-9)*(q+1e-9)": ([(ONE, 1), (Quaternion(1e-9), 1),
                                 (Quaternion(-1e-9), 1)], []),
}


@pytest.mark.parametrize("text", sorted(NAMED))
def test_zeros_of_named_inputs(text):
    points, spheres = NAMED[text]
    assert_zero_set(zeros(parse_polynomial(text)), points, spheres)


def test_zeros_of_an_unresolvable_root_warns():
    # a 34-fold root spreads by about eps^(1/34) = 0.35: no float64
    # method resolves it, and the count must not come out silently wrong
    with pytest.warns(ConditioningWarning, match="not the degree 34"):
        zs = zeros(parse_polynomial("(q+i)^34"))
    assert zs.total_multiplicity != 34


@pytest.mark.parametrize("text", [
    "q^2+1e308q+1", "q^2+1e200q+1", "(q-1e200)(q-1e-200)", "q^3+1e150q^2+q+1e-150"])
def test_zeros_warn_where_the_scaled_monic_underflows(text):
    # e_0 scales to exactly 0.0, so at 0 the value and the terms that
    # cancel are both 0: a zero tolerance vouches for nothing, and 0,
    # where f is a_0 != 0, must not be read as a zero
    with pytest.warns(ConditioningWarning):
        zs = zeros(parse_polynomial(text))
    assert all(p != Quaternion() for p, _ in zs.points), zs


def test_locate_takes_no_point_on_a_zero_tolerance():
    # alpha = -i beta exactly, so the point x + yi checks out at any
    # positive scale; at scale 0 nothing does
    v = np.array([0.5 + 2.0j])
    alpha, beta = np.array([[-1j], [0j]]), np.array([[1 + 0j], [0j]])
    for scale, want in ((1.0, True), (1e-300, True), (0.0, False)):
        points, located = regular_fn._locate(v, alpha, beta, np.array([scale]))
        assert located.tolist() == [want]
    assert points == [(0.5, 2.0, 0.0, 0.0)]


def test_zeros_of_spheres_within_the_group_radius():
    # spheres of radius 0.997, 1 and 1.003 put twelve eigenvalues within
    # the group radius of a 6-fold root; (q^2 + 1) divides f once, and
    # the quotient has no zero on the unit sphere, so the reading fails
    # and the regrouping at a smaller radius parts the three spheres
    zs = zeros(parse_polynomial("(q^2+1)*(q^2+1.006009)*(q^2+0.994009)"))
    assert_zero_set(zs, [], [(0.0, 0.997, 2), (0.0, 1.0, 2), (0.0, 1.003, 2)], 1e-9)
    # three points on those spheres lie in a row, not as a perturbed
    # triple zero would, so the group is not tight
    f = parse_polynomial("(q-i)*(q-1.003j)*(q-0.997k)")
    zs = zeros(f)
    assert not zs.spheres and [n for _, n in zs.points] == [1, 1, 1]
    assert any(abs(p - I) <= 1e-9 for p, _ in zs.points)
    for p, _ in zs.points:
        assert abs(eval_series(f, p)) <= 1e-12


ALPHAS = [Quaternion(0.5, 1.0, -0.5, 0.25), Quaternion(-1.25, 0.0, 0.75, 0.5),
          Quaternion(0.75), Quaternion(-0.5, 0.0, 0.0, 2.0)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("alpha", ALPHAS, ids=["generic", "generic2", "real", "k"])
def test_zeros_of_repeated_linear_factors(alpha, n):
    # (q - alpha)^n (q - beta): one point of multiplicity n, and one more
    beta = Quaternion(2.0, -1.0, 0.5, 0.0)
    f = star_mul(star_power(RegularSeries.linear(alpha), n), RegularSeries.linear(beta))
    zs = zeros(f)
    assert zs.total_multiplicity == n + 1 and not zs.spheres
    assert any(abs(p - alpha) <= 1e-7 and m == n for p, m in zs.points), zs
    for p, _ in zs.points:
        assert abs(eval_series(f, p)) <= 1e-9 * max(1.0, f.coefficient_scale())


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("x, y", [(0.0, 1.0), (1.5, 0.5), (-0.25, 3.0)])
def test_zeros_of_repeated_spherical_factors(x, y, n):
    # ((q - x)^2 + y^2)^n: a sphere of multiplicity 2n; times (q - p)
    # with p on it, one point of multiplicity 1 besides
    quad = RegularSeries.polynomial(Quaternion(x * x + y * y), Quaternion(-2.0 * x), ONE)
    assert_zero_set(zeros(star_power(quad, n)), [], [(x, y, 2 * n)])
    p = Quaternion(x, 0.0, 0.6 * y, 0.8 * y)
    f = star_mul(star_power(quad, n), RegularSeries.linear(p))
    assert_zero_set(zeros(f), [(p, 1)], [(x, y, 2 * n)])


def test_zeros_of_repeated_factors_on_one_sphere():
    # (q - i)(q - j)(q - k): three factors on the unit sphere with no
    # spherical factor among them, so one point of multiplicity 3
    f = star_mul(star_mul(RegularSeries.linear(I), RegularSeries.linear(J)),
                 RegularSeries.linear(K))
    zs = zeros(f)
    assert not zs.spheres and len(zs.points) == 1 and zs.points[0][1] == 3
    assert abs(zs.points[0][0] - I) <= 1e-7


def exact_product(factors, lead):
    """Coefficients of (q - alpha_1)^n_1 * ... * lead as sympy Rationals,
    with the products of quaternions done exactly."""
    import sympy

    def mul(p, q):
        return tuple(oracle_mul(Quaternion(*p), Quaternion(*q)))  # exact on Rationals

    def star(a, b):
        out = [(0,) * 4] * (len(a) + len(b) - 1)
        for k, p in enumerate(a):
            for n, q in enumerate(b):
                out[k + n] = tuple(s + t for s, t in zip(out[k + n], mul(p, q)))
        return out

    coeffs = [tuple(map(sympy.Rational, lead))]
    for alpha, n in factors:
        linear = [tuple(-sympy.Rational(t) for t in alpha), (1, 0, 0, 0)]
        for _ in range(n):
            coeffs = star(linear, coeffs)
    return coeffs


def exact_zero_structure(coeffs):
    """(real points, spheres) of the exact polynomial from the exact
    factorization of f^s = f * f^c over the rationals.

    A real root r of f^s of multiplicity 2 mu is a real point of
    multiplicity mu.  A quadratic factor (q - x)^2 + y^2 of multiplicity
    mu is a sphere carrying mu = 2m + n, where m is the power of the
    quadratic that divides f, and n the multiplicity of the one isolated
    zero on it.
    """
    import sympy
    q = sympy.Symbol("q")
    comps = [sum(c[k] * q ** n for n, c in enumerate(coeffs)) for k in range(4)]
    conj = [sympy.expand(comps[0])] + [sympy.expand(-t) for t in comps[1:]]
    fs = sympy.expand(comps[0] * conj[0] - sum(a * b for a, b in zip(comps[1:], conj[1:])))
    reals, spheres = [], []
    for factor, mult in sympy.factor_list(fs, q)[1]:
        coeffs = sympy.Poly(factor, q).all_coeffs()
        if len(coeffs) == 2:
            reals.append((float(-coeffs[1] / coeffs[0]), mult // 2))
            continue
        a, b, c = coeffs
        x = -b / (2 * a)
        m = 0
        while 2 * (m + 1) <= mult and all(
                sympy.rem(comp, factor ** (m + 1), q) == 0 for comp in comps):
            m += 1
        spheres.append((float(x), math.sqrt(float(c / a - x * x)), mult, m))
    return reals, spheres


# Rational components k/4 in [-2, 2].
quarter = st.integers(-8, 8).map(lambda k: k / 4.0)
rational_quaternions = st.builds(Quaternion, quarter, quarter, quarter, quarter)


def check_exact_factorization(factors, lead) -> bool:
    """Check zeros of the product of (q - a)^n over factors (a, n), times
    lead, against sympy's factorization of f^s over the rationals; f
    itself is the exact product rounded to float64.  Returns whether
    zeros warned that its answer is short."""
    exact = exact_product(factors, lead)
    f = RegularSeries(tuple(Quaternion(*map(float, c)) for c in exact))
    reals, spheres = exact_zero_structure(exact)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        zs = zeros(f)
    for p, _ in zs.points:
        assert abs(eval_series(f, p)) <= 1e-9 * max(1.0, f.coefficient_scale())
    if caught:
        # zeros of high multiplicity on spheres a few percent apart can
        # be beyond float64; then the answer is short, and says so
        assert all(w.category is ConditioningWarning for w in caught)
        assert zs.total_multiplicity < f.degree
        return True
    assert zs.total_multiplicity == f.degree
    # a multiple zero near another is placed to about 1e-5 (its group's
    # mean), however exactly it is counted
    want_points = [(Quaternion(r), mu) for r, mu in reals]
    want_spheres = [(x, y, 2 * m) for x, y, _, m in spheres if m]
    got_real = [(p, n) for p, n in zs.points if p.im_norm() == 0.0]
    assert_zero_set(ZeroSet(zs.spheres, got_real), want_points, want_spheres, 1e-4)
    for x, y, mu, m in spheres:
        on_sphere = [(p, n) for p, n in zs.points if Sphere(x, y).contains(p, 1e-4)]
        assert sum(n for _, n in on_sphere) == mu - 2 * m, (x, y, zs)
        assert len(on_sphere) <= 1
    return False


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(rational_quaternions, st.integers(1, 3)),
                min_size=1, max_size=3),
       rational_quaternions.filter(any))
@example([(Quaternion(0.0, 1.0), 2), (Quaternion(0.0, 0.0, 1.0), 1)], ONE)
@example([(Quaternion(0.5, 1.0), 2), (Quaternion(0.5, -1.0), 2)], ONE)
@example([(Quaternion(1.0), 3), (Quaternion(0.0, 1.0), 1)], ONE)
def test_zeros_match_exact_factorization(factors, lead):
    # products of linear factors, repeated, on shared spheres or not
    check_exact_factorization(factors, lead)


# Shrunk draws of the property above, each with lead 0.25k: multiple
# zeros on spheres 1-5% apart, where each cluster of eigenvalues spreads
# its neighbour's beyond GROUP_TOL, so that the first two passes cut
# the clusters into pairs, each of which reads as a simple point.
NEAR_MULTIPLE_ZEROS = {
    "4fold-3fold-3pct": [(K, 1), (K, 3), (Quaternion(0.0, 0.0, 0.25, 1.0), 3)],
    "3fold-3fold-1.4pct": [(0.25 * K, 1), (Quaternion(0.25, 0.75, 0.25, 1.25), 3),
                           (Quaternion(0.25, 0.0, 0.0, 1.5), 3)],
    "8fold": [(Quaternion(0.75, 0.0, 0.25, 0.25), 3), (Quaternion(0.75, 0.0, 0.25, 0.25), 3),
              (Quaternion(0.75, 0.0, 0.25, 0.25), 2)],
    "4fold-3fold-2.7pct": [(Quaternion(0.0, 0.0, 0.75, -0.75), 2),
                           (Quaternion(0.0, 0.0, -0.75, -0.75), 2),
                           (Quaternion(0.0, 0.25, -0.75, 0.75), 3)],
    "3fold-3fold-2.3pct": [(0.5 * K, 2), (Quaternion(1.25, 0.75, 0.75, 1.25), 3),
                           (Quaternion(1.25, 0.0, 0.75, 1.5), 3)],
    "3fold-3fold-5pct": [(Quaternion(0.5, 0.0, 0.0, 0.25), 3),
                         (Quaternion(0.75, 0.0, 0.0, 0.75), 3),
                         (Quaternion(0.75, 0.25, 0.0, 0.75), 3)],
}


@pytest.mark.parametrize("factors", NEAR_MULTIPLE_ZEROS.values(), ids=NEAR_MULTIPLE_ZEROS)
def test_zeros_count_multiple_zeros_on_near_spheres(factors):
    # a pair cut from a cluster fails the Newton-step gate of _read, and
    # the pass at 16 GROUP_TOL reads the cluster whole: the exact
    # structure, with no warning
    assert not check_exact_factorization(factors, 0.25 * K)


# ---------------------------------------------------------------------------
# zeros_many: one call for many polynomials, each answer and warning that
# of its own zeros call.


def zero_set_bits(zs):
    """The reprs of every float of a zero set, signed zeros included."""
    return ([(repr(s.x), repr(s.y), m) for s, m in zs.spheres],
            [(bits(p), n) for p, n in zs.points])


def caught_messages(call):
    """call()'s result and the text of every warning it gave, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = call()
    assert all(w.category is ConditioningWarning for w in caught)
    return out, [str(w.message) for w in caught]


def assert_batch_matches_calls(fs):
    """zeros_many(fs) against one zeros call per member: the same floats,
    and the same warnings, in member order."""
    got, got_warnings = caught_messages(lambda: zeros_many(fs))
    want, want_warnings = [], []
    for f in fs:
        zs, messages = caught_messages(lambda: zeros(f))
        want.append(zero_set_bits(zs))
        want_warnings += messages
    assert [zero_set_bits(zs) for zs in got] == want
    assert got_warnings == want_warnings


def benchmark_module(folder, name):
    """A module of the repository's bench/ or tools/ folder."""
    import importlib
    import sys
    from pathlib import Path

    path = str(Path(__file__).resolve().parents[1] / folder)
    if path not in sys.path:
        sys.path.insert(0, path)
    return importlib.import_module(name)


def test_zeros_many_matches_zeros_on_the_adversarial_list():
    # the regrouping at radii 1/64 as large and the ConditioningWarning
    fs = benchmark_module("tools", "zeros_identity")._adversarial_items()
    assert_batch_matches_calls(fs)


def test_zeros_many_matches_zeros_on_a_zeros_stream_pass():
    import json

    fs = []
    for item in benchmark_module("bench", "inputs").zeros_items(1, 1000):
        req = item["request"]
        fs.append(RegularSeries.from_json(json.loads(req["text"])) if req["format"] == "json"
                  else parse_polynomial(req["text"]))
    assert_batch_matches_calls(fs)


@PLANTED_LISTS
@given(st.lists(planted(), max_size=5))
def test_zeros_many_matches_zeros_on_planted_lists(lists):
    assert_batch_matches_calls([RegularSeries(tuple(Quaternion(*c) for c in coeffs))
                                for coeffs in lists])


def test_zeros_many_of_edge_members():
    assert zeros_many([]) == []
    edge = [RegularSeries.constant(Quaternion(2.0)), parse_polynomial("q^3*(q-1)")]
    assert_batch_matches_calls(edge)
    assert zeros_many(edge)[0].total_multiplicity == 0
    # the unresolvable 34-fold root warns once, for itself, where the
    # caller called zeros_many; its neighbours do not warn
    fs = [parse_polynomial("(q-1)*(q-i)"), parse_polynomial("(q+i)^34"),
          parse_polynomial("q^2+1")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = zeros_many(fs)
    assert len(caught) == 1 and "not the degree 34" in str(caught[0].message)
    assert caught[0].filename == __file__
    assert [zs.total_multiplicity for zs in (got[0], got[2])] == [2, 2]
    assert_batch_matches_calls(fs)


@pytest.mark.parametrize("f, message", [
    (RegularSeries((ONE, ONE), radius=1.0), "polynomials only"),
    (RegularSeries((ONE, Quaternion(math.inf))), "not finite"),
    (RegularSeries((Quaternion(1e300), Quaternion(1e-300))), "a zero of f overflows"),
], ids=["series", "non-finite-coefficient", "zero-beyond-float64"])
def test_zeros_refusals_are_domain_errors(f, message):
    # a DomainError is a ValueError, so callers that catch ValueError still do
    with pytest.raises(DomainError, match=message):
        zeros(f)


def test_zeros_many_raises_for_its_first_bad_member_before_solving(monkeypatch):
    def solve(*args):
        raise AssertionError("a member was solved")

    monkeypatch.setattr(regular_fn, "_eigenvalues", solve)
    good = parse_polynomial("q^2+1")
    series = RegularSeries((ONE, ONE), radius=1.0)
    with pytest.raises(ZeroPolynomial):
        zeros_many([good, RegularSeries(()), series])
    with pytest.raises(ValueError, match="polynomials only"):
        zeros_many([good, series, RegularSeries(())])
    with pytest.raises(ValueError, match="not finite"):
        zeros_many([good, RegularSeries((ONE, Quaternion(math.inf)))])
