import math

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from sliceregular import (MobiusCoeffs, OCSValue, PoleHit, Quaternion,
                          RealArgument, SingularPoint, conj_by_unit,
                          eval_series, induced_ocs, is_so2h, j_standard,
                          mobius)
from sliceregular.parsing import parse_polynomial
from sliceregular.quat_core import I, J, ONE

F = parse_polynomial("q^2+qi")


def test_structure_squares_to_minus_one():
    for unit in (I, J, Quaternion(0, 0.6, 0.8, 0.0)):
        jv = OCSValue(unit)
        m = jv.matrix()
        assert np.allclose(m @ m, -np.eye(4), atol=1e-12)


def test_structure_is_orthogonal():
    jv = OCSValue(Quaternion(0, 1 / math.sqrt(3), 1 / math.sqrt(3),
                             1 / math.sqrt(3)))
    m = jv.matrix()
    assert np.allclose(m.T @ m, np.eye(4), atol=1e-12)


def test_standard_structure():
    q = Quaternion(1.0, 0.0, 2.0, 0.0)
    jv = j_standard(q)
    assert abs(jv.unit - J) <= 1e-12
    assert abs(jv.apply(ONE) - J) <= 1e-12
    with pytest.raises(RealArgument):
        j_standard(Quaternion(3.0))


def test_induced_structure_uses_source_unit():
    # the pushed-forward structure at f(q) multiplies by I_q, not I_f(q)
    q = Quaternion(0.5, 0.0, 1.0, 0.0)
    image, jv = induced_ocs(F, q)
    assert abs(image - eval_series(F, q)) <= 1e-12
    assert abs(jv.unit - j_standard(q).unit) <= 1e-12


def test_induced_structure_rejects_singular_point():
    with pytest.raises(SingularPoint):
        induced_ocs(F, Quaternion(0, -0.5, 1, 0))


def test_mobius_identity_and_translation():
    ident = MobiusCoeffs(ONE, Quaternion(), Quaternion(), ONE)
    q = Quaternion(1, 2, 3, 4)
    assert abs(mobius(ident, q) - q) <= 1e-12
    shift = MobiusCoeffs(ONE, J, Quaternion(), ONE)
    assert abs(mobius(shift, q) - (q + J)) <= 1e-12


def test_mobius_inversion_and_pole():
    inv = MobiusCoeffs(Quaternion(), ONE, ONE, Quaternion())
    q = Quaternion(0, 2, 0, 0)
    assert abs(mobius(inv, q) - q.inverse()) <= 1e-12
    with pytest.raises(PoleHit):
        mobius(inv, Quaternion())


def test_mobius_rejects_degenerate_coefficients():
    with pytest.raises(ValueError):
        MobiusCoeffs(ONE, J, ONE, J)  # second column a left multiple of first
    with pytest.raises(ValueError, match="invertibility"):
        MobiusCoeffs(Quaternion(), Quaternion(), Quaternion(), Quaternion())


# (|a|^2 + |b|^2 + |c|^2 + |d|^2)^2 leaves the float range below about
# 1e-81 and above about 1e77; the test must not depend on it
@pytest.mark.parametrize("scale", [1e-300, 1e-100, 1e-82, 1e-7, 1.0, 1e7, 1e78,
                                   1e100, 1e300])
def test_mobius_invertibility_is_scale_invariant(scale):
    # (1, 0, 1, 1) has determinant (ad - bc)^2 = 1; (1, 1, 1, 1) has 0
    one = Quaternion(scale)
    m = MobiusCoeffs(one, Quaternion(), one, one)
    assert m.invertible()
    q = Quaternion(0.3, 0.4)
    assert abs(mobius(m, q) - (q + ONE).inverse() * q) <= 1e-12
    with pytest.raises(ValueError):
        MobiusCoeffs(one, one, one, one)
    with pytest.raises(ValueError):
        MobiusCoeffs(scale * ONE, scale * J, scale * ONE, scale * J)


def test_mobius_at_large_points():
    # q -> (q + 1)^-1 q tends to 1; |q + 1|^2 overflows at 1e155
    m = MobiusCoeffs(ONE, Quaternion(), ONE, ONE)
    for q in (Quaternion(1e155), Quaternion(0.0, 1e170), Quaternion(1e300)):
        assert abs(mobius(m, q) - ONE) <= 1e-15


@pytest.mark.parametrize("q", [Quaternion(math.nan), Quaternion(0.0, math.inf),
                               Quaternion(1.0, 0.0, -math.inf, math.nan)])
def test_mobius_rejects_a_point_that_is_not_finite(q):
    m = MobiusCoeffs(ONE, Quaternion(), ONE, ONE)
    with pytest.raises(ValueError, match="finite"):
        mobius(m, q)


@pytest.mark.parametrize("scale", [1e-13, 1e-30, 1.0, 1e30])
def test_mobius_pole_test_is_scale_invariant(scale):
    ident = MobiusCoeffs(scale * ONE, Quaternion(), Quaternion(), scale * ONE)
    assert abs(mobius(ident, Quaternion(2.0)) - Quaternion(2.0)) <= 1e-15
    inv = MobiusCoeffs(Quaternion(), scale * ONE, scale * ONE, Quaternion())
    with pytest.raises(PoleHit):
        mobius(inv, Quaternion())
    # q -> (q - 1)^-1: the pole at 1 is found at every scale of q too
    shifted = MobiusCoeffs(Quaternion(), scale * ONE, scale * ONE, -scale * ONE)
    with pytest.raises(PoleHit):
        mobius(shifted, Quaternion(1.0))


def test_mobius_value_beyond_float64_raises_value_error():
    # q -> q^-1 at a subnormal q: qc + d passes the pole test, and its
    # inverse is beyond float64
    inv = MobiusCoeffs(Quaternion(), ONE, ONE, Quaternion())
    for q in (Quaternion(1e-310), Quaternion(0.0, -5e-324)):
        with pytest.raises(ValueError, match="overflows float64"):
            mobius(inv, q)


# Components from 1e-300 to 1e300 in size, either sign, signed zeros,
# subnormals and the non-finite values; coefficients from 1e-300 to
# 1e300, most of them from 1e-70 to 1e70, where the invertibility
# test's fourth powers stay in range, and some with subnormal components.
subnormals = st.sampled_from([1e-310, -1e-310, 5e-324, -5e-324, 1e-320])
extreme = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]), subnormals,
    st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from([-1.0, 1.0]),
              st.floats(min_value=-300.0, max_value=300.0)))
coefficients = st.one_of(
    st.builds(lambda e, parts: Quaternion(*(10.0 ** e * t for t in parts)),
              st.one_of(st.floats(min_value=-70.0, max_value=70.0),
                        st.floats(min_value=-300.0, max_value=300.0)),
              st.tuples(*[st.floats(min_value=-1.0, max_value=1.0)] * 4)),
    st.builds(Quaternion, *[st.one_of(subnormals, st.sampled_from([0.0, 1.0, -2.0]))] * 4))


@settings(max_examples=200, deadline=None)
@given(st.tuples(*[coefficients] * 4), st.tuples(*[extreme] * 4), st.booleans())
def test_mobius_is_finite_or_raises(coeffs, point, at_pole):
    try:
        m = MobiusCoeffs(*coeffs)
    except ValueError:
        return  # not invertible, or its determinant is out of range
    q = Quaternion(*point)
    if at_pole and m.c != (0.0, 0.0, 0.0, 0.0):
        try:
            q = -(m.d * m.c.inverse())  # qc + d = 0 up to rounding
        except ZeroDivisionError:
            pass  # c is too small to invert in float64: keep the drawn point
    try:
        value = mobius(m, q)
    except (PoleHit, ValueError):
        return
    assert all(math.isfinite(t) for t in value.to_json())


def test_so2h_detection():
    # all coefficients real multiples of one unit: preserves the standard OCS
    eps = Quaternion(0.5, 0.5, 0.5, 0.5)
    m = MobiusCoeffs(2.0 * eps, -eps, Quaternion(), eps)
    assert is_so2h(m)
    mixed = MobiusCoeffs(ONE, I, Quaternion(), J)
    assert not is_so2h(mixed)


@pytest.mark.parametrize("s", [1.0, 1e-8, 1e-12, 1e-200, 1e-310, 1e200])
def test_so2h_rejects_mixed_units_at_any_scale(s):
    assert not is_so2h(MobiusCoeffs(s * I, Quaternion(), Quaternion(), s * ONE))


# components on a 2^-10 grid: a set is either so2h up to rounding or
# far from it, so no verdict sits on the tolerance
grid = st.integers(-2048, 2048).map(lambda n: n / 1024)
grid_quats = st.builds(Quaternion, grid, grid, grid, grid)


@given(st.one_of(
           st.tuples(grid_quats, grid_quats, grid_quats, grid_quats),
           st.builds(lambda eps, rs: tuple(r * (eps / abs(eps)) for r in rs),
                     grid_quats.filter(lambda q: abs(q) > 0),
                     st.tuples(grid, grid, grid, grid))),
       st.floats(-300, 300))
@settings(max_examples=200, deadline=None)
def test_so2h_verdict_is_scale_invariant(coeffs, e):
    s = 10.0 ** e
    try:
        m = MobiusCoeffs(*coeffs)
        scaled = MobiusCoeffs(*(s * c for c in coeffs))
    except ValueError:
        reject()  # not invertible
    assert is_so2h(scaled) == is_so2h(m)


def test_so2h_transformation_rotates_slices_coherently():
    # with all coefficients real multiples of one unit eps, the map factors
    # as a real Mobius map (slice preserving) conjugated by eps, so the
    # imaginary unit transforms by I -> eps^-1 I eps
    eps = Quaternion(0.5, 0.5, 0.5, 0.5)
    m = MobiusCoeffs(2.0 * eps, -eps, eps, 3.0 * eps)
    assert is_so2h(m)
    rng = np.random.default_rng(2)
    for _ in range(20):
        q = Quaternion(*(float(t) for t in rng.uniform(-1, 1, 4)))
        if q.im_norm() < 0.2:
            continue
        image = mobius(m, q)
        expected = conj_by_unit(eps, j_standard(q).unit)
        got = j_standard(image).unit
        assert min(abs(got - expected), abs(got + expected)) <= 1e-9


def test_conj_by_unit_rotates_sphere():
    eps = Quaternion(math.cos(0.4), math.sin(0.4), 0, 0)
    out = conj_by_unit(eps, J)
    assert abs(out.re()) <= 1e-12
    assert math.isclose(abs(out), 1.0, abs_tol=1e-12)
