import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from sliceregular import (ChartPoint, Quaternion, RealArgument, Sphere,
                          conj_by_unit, imag_unit, is_real, phi, phi_inverse,
                          sphere_of)
from sliceregular.errors import NotUnit
from sliceregular.quat_core import I, J, K, ONE, _last_call

ints = st.integers(min_value=-20, max_value=20)
quats = st.builds(Quaternion, ints, ints, ints, ints)
reals = st.floats(allow_nan=False, allow_infinity=False)
any_quats = st.builds(Quaternion, reals, reals, reals, reals)


@given(quats, quats, quats)
def test_multiplication_associative(p, q, r):
    assert (p * q) * r == p * (q * r)


@given(quats, quats)
def test_norm_multiplicative(p, q):
    assert math.isclose(abs(p * q), abs(p) * abs(q), abs_tol=1e-9)


@given(quats, quats)
def test_conjugate_antihomomorphism(p, q):
    assert (p * q).conj() == q.conj() * p.conj()


@given(quats, quats, quats)
def test_distributive(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(quats)
def test_inverse(q):
    if not any(q):
        with pytest.raises(ZeroDivisionError):
            q.inverse()
        return
    prod = q * q.inverse()
    assert abs(prod - ONE) <= 1e-12 * max(1.0, abs(q))


@given(any_quats, any_quats, reals)
def test_operators_match_component_formulas_bit_for_bit(p, q, t):
    # compared by repr, so that signed zeros and overflow count
    assume(t != 0.0)
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    u = 1.0 / t
    cases = [
        (p + q, (pw + qw, px + qx, py + qy, pz + qz)),
        (p - q, (pw - qw, px - qx, py - qy, pz - qz)),
        (-p, (-pw, -px, -py, -pz)),
        (p.conj(), (pw, -px, -py, -pz)),
        (p * q, (pw * qw - px * qx - py * qy - pz * qz,
                 pw * qx + px * qw + py * qz - pz * qy,
                 pw * qy - px * qz + py * qw + pz * qx,
                 pw * qz + px * qy - py * qx + pz * qw)),
        (p.scale(t), (pw * t, px * t, py * t, pz * t)),
        (p * t, (pw * t, px * t, py * t, pz * t)),
        (t * p, (pw * t, px * t, py * t, pz * t)),
        (np.float64(t) * p, (pw * t, px * t, py * t, pz * t)),
        (p / t, (pw * u, px * u, py * u, pz * u)),
    ]
    for got, expected in cases:
        assert type(got) is Quaternion
        assert repr(tuple(got)) == repr(expected)


@pytest.mark.parametrize("q", [
    Quaternion(1e155), Quaternion(1e-155), Quaternion(1e170, -1e170),
    Quaternion(1e-170, 0.0, 1e-170), Quaternion(0.0, 1e-170),
    Quaternion(1e-160), Quaternion(3e-200, -4e-200, 0.0, 1e-210),
    Quaternion(1e-308), Quaternion(0.0, -6e-309, 1e-320),
])
def test_inverse_outside_the_range_of_norm_sq(q):
    # |q|^2 overflows to inf, underflows to 0 or is subnormal: the
    # inverse is scaled by a power of two, and q q^-1 is still 1; the
    # last two have subnormal components and an inverse in range
    inv = q.inverse()
    assert all(math.isfinite(t) for t in inv.to_json())
    assert abs(q * inv - ONE) <= 4e-16


@pytest.mark.parametrize("q", [
    Quaternion(1e-320), Quaternion(5e-324), Quaternion(0.0, 0.0, -1e-310),
    Quaternion(2e-309, 0.0, 0.0, 2e-309),
])
def test_inverse_beyond_float64_raises_zero_division(q):
    with pytest.raises(ZeroDivisionError, match="overflows float64"):
        q.inverse()


def test_inverse_keeps_its_usual_bits_and_rejects_zero():
    q = Quaternion(0.3, -1.7, 2.9, 1e-3)
    assert q.inverse() == q.conj() * (1.0 / q.norm_sq())
    for zero in (Quaternion(), -Quaternion(), Quaternion(0.0, -0.0)):
        with pytest.raises(ZeroDivisionError, match="zero quaternion"):
            zero.inverse()


def test_quaternion_is_a_four_tuple():
    q = Quaternion(1.0, -2.0, 0.5)
    w, x, y, z = q
    assert (w, x, y, z) == q == (1.0, -2.0, 0.5, 0.0) and q[3] == 0.0
    assert repr(q) == "Quaternion(w=1.0, x=-2.0, y=0.5, z=0.0)"
    assert imag_unit((0.0, 0.0, 3.0, 0.0)) == J and is_real((2.0, 0.0, 0.0, 0.0))
    # the arithmetic operators are the quaternion ones, not tuple
    # concatenation and repetition
    assert q + q == 2.0 * q == q * 2 == Quaternion(2.0, -4.0, 1.0, 0.0)
    assert type(np.float64(2.0) * q) is Quaternion


def test_unit_table():
    assert I * J == K
    assert J * K == I
    assert K * I == J
    assert I * I == -ONE and J * J == -ONE and K * K == -ONE


def test_noncommutative():
    assert I * J != J * I


@given(quats)
def test_real_imaginary_split(q):
    assert Quaternion(q.re()) + q.im() == q
    assert math.isclose(q.im_norm(), abs(q.im()), abs_tol=1e-12)


def test_imag_unit_basic():
    u = imag_unit(Quaternion(3.0, 0.0, 4.0, 0.0))
    assert abs(u - Quaternion(0, 0, 1, 0)) <= 1e-12
    with pytest.raises(RealArgument):
        imag_unit(Quaternion(5.0))


@given(quats)
def test_imag_unit_is_root_of_minus_one(q):
    if is_real(q):
        return
    u = imag_unit(q)
    assert abs(u * u + ONE) <= 1e-12


def test_sphere_membership_and_sampling():
    s = Sphere(1.0, 2.0)
    for n in range(7):  # evenly rotated imaginary units
        a, b = 2.0 * math.pi * n / 7, math.pi * (2.0 * n + 1.0) / 14
        u = Quaternion(0.0, math.cos(a) * math.sin(b), math.sin(a) * math.sin(b), math.cos(b))
        assert s.contains(Quaternion(s.x) + s.y * u)
    assert sphere_of(Quaternion(1.0, 0.0, 2.0, 0.0)) == s
    assert not s.contains(Quaternion(1.0, 0.0, 0.0, 0.0))


def test_sphere_contains_is_relative_at_every_scale():
    # no absolute floor below unit scale, and no overflow in |q|
    assert not Sphere(0.0, 1.0).contains(Quaternion(5.0))
    assert not Sphere(0.0, 1e-10).contains(Quaternion(5e-10))
    assert Sphere(0.0, 1e-10).contains(Quaternion(0.0, 0.0, 1e-10))
    assert not Sphere(1e200, 1e200).contains(Quaternion(5e200, 1e200))
    assert Sphere(1e200, 1e200).contains(Quaternion(1e200, 0.0, 0.0, -1e200))
    # hypot(x, y) overflows here, the points of the sphere do not
    assert not Sphere(1.7e308, 1.7e308).contains(Quaternion(0.0, 1.7e308))
    assert Sphere(1.7e308, 1.7e308).contains(Quaternion(1.7e308, 0.0, 1.7e308))


# A sphere x + yS and a point on it moved by a relative offset from 1e-12
# to 1e-6, so that the verdict goes either way.
moderate = st.one_of(st.just(0.0), st.builds(
    lambda sign, e: sign * 10.0 ** e, st.sampled_from([-1.0, 1.0]),
    st.floats(min_value=-3.0, max_value=3.0)))
near_sphere = st.builds(
    lambda x, y, u, d, e: (Sphere(x, abs(y)), Quaternion(
        x + d[0] * 10.0 ** e * (abs(x) + abs(y)),
        *(abs(y) * t + s * 10.0 ** e * (abs(x) + abs(y))
          for t, s in zip(u, d[1:])))),
    moderate, moderate, st.tuples(*[st.sampled_from([0.0, 0.6, -0.8])] * 3),
    st.tuples(*[st.floats(-1.0, 1.0)] * 4), st.floats(-12.0, -6.0))


@given(near_sphere, st.integers(min_value=-498, max_value=498))
def test_sphere_contains_verdict_is_scale_invariant(case, k):
    # 2^k runs from 1e-150 to 1e150; scaling by it is exact
    sphere, q = case
    s = math.ldexp(1.0, k)
    scaled = Sphere(sphere.x * s, sphere.y * s)
    assert scaled.contains(q.scale(s)) == sphere.contains(q)


def test_chart_maps_slice_to_rotated_slice():
    # u = 1 conjugates i to k: phi(1, i) = k
    q = phi(ChartPoint(1 + 0j, 1j))
    assert abs(q - K) <= 1e-12


def test_chart_roundtrip():
    for u in (0j, 0.5 - 0.25j, 2 + 1j):
        for v in (1 + 1j, -0.5 + 0.2j, 2j):
            c = ChartPoint(u, v)
            back = phi_inverse(phi(c))
            assert back.u is not None
            assert abs(back.u - u) <= 1e-9 * (1 + abs(u))
            assert abs(back.v - v) <= 1e-9 * (1 + abs(v))


def test_chart_infinite_branch():
    # I_q = -i corresponds to u at infinity
    c = phi_inverse(Quaternion(0.5, -2.0, 0.0, 0.0))
    assert c.infinite
    with pytest.raises(ValueError):
        phi(c)


def test_chart_unit_formula():
    # I = ai+bj+ck maps to u = -i(b+ic)/(1+a); I = k gives u = 1
    c = phi_inverse(Quaternion(0.0, 0.0, 0.0, 3.0))
    assert abs(c.u - 1.0) <= 1e-12
    assert abs(c.v - 3j) <= 1e-12


def test_conj_by_unit():
    eps = Quaternion(math.cos(0.3), 0, 0, math.sin(0.3))
    q = Quaternion(1, 2, 3, 4)
    out = conj_by_unit(eps, q)
    assert math.isclose(abs(out), abs(q), rel_tol=1e-12)
    assert math.isclose(out.re(), q.re(), abs_tol=1e-12)
    with pytest.raises(NotUnit):
        conj_by_unit(Quaternion(2.0), q)


def test_json_roundtrip():
    q = Quaternion(1.5, -2.0, 0.25, 3.0)
    assert Quaternion.from_json(q.to_json()) == q
    assert Quaternion.from_json([1, -2, 0, 3]) == Quaternion(1.0, -2.0, 0.0, 3.0)


@pytest.mark.parametrize("data", [
    ["1.5", 0, 0, 0], [True, 0, 0, 0], [0, 0, False, 0], [None, 0, 0, 0],
    [[1], 0, 0, 0], [10 ** 400, 0, 0, 0], [0, 0, 0, -10 ** 400],
], ids=["string", "true", "false", "null", "list", "int-beyond-float64",
        "negative-int-beyond-float64"])
def test_from_json_takes_json_numbers_only(data):
    with pytest.raises(ValueError):
        Quaternion.from_json(data)


def test_complex_pair_split():
    q = Quaternion(1, 2, 3, 4)
    w1, w2 = q.complex_pair()
    assert Quaternion.from_complex_pair(w1, w2) == q
    assert Quaternion().complex_pair() == (0j, 0j)


def test_last_call_hits_only_on_the_same_objects():
    # an equal copy is another object, so it is computed again, and then
    # so is the original after it
    calls = []

    def norm_sq(q):
        calls.append(q)
        return q.norm_sq()

    remembered = _last_call(norm_sq)
    a = Quaternion(0.3, -0.0, 1.5, 2.0)
    copy = Quaternion(*a)
    assert copy == a and copy is not a
    for q in (a, a, copy, a):
        assert remembered(q) == a.norm_sq()
    assert [q is a for q in calls] == [True, False, True]
