import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from sliceregular import (ChartPoint, Quaternion, RealArgument, Sphere,
                          conj_by_unit, imag_unit, is_real, phi, phi_inverse,
                          sphere_of)
from sliceregular.errors import NotUnit
from sliceregular.quat_core import I, J, K, ONE, ZERO

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
    if q.is_zero():
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
    for zero in (ZERO, -ZERO, Quaternion(0.0, -0.0)):
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
    for p in s.sample(7):
        assert s.contains(p)
    assert sphere_of(Quaternion(1.0, 0.0, 2.0, 0.0)) == s
    assert not s.contains(Quaternion(1.0, 0.0, 0.0, 0.0))


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


def test_complex_pair_split():
    q = Quaternion(1, 2, 3, 4)
    w1, w2 = q.complex_pair()
    assert Quaternion.from_complex_pair(w1, w2) == q
    assert ZERO.complex_pair() == (0j, 0j)
