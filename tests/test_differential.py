import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sliceregular import (ConditioningWarning, OCSValue, OutsideRadius,
                          Quaternion, Rank, RankClass, RealArgument,
                          RealLinearMap4, RegularSeries, SingularityCertificate,
                          SingularPoint, Sphere, differential_at,
                          directional_derivative, divide_linear, eval_series,
                          induced_ocs, is_degenerate_sphere, is_singular,
                          rank_classify, slice_values, spherical_expansion,
                          star_mul)
from sliceregular.differential import _classify
from sliceregular.parsing import parse_polynomial
from sliceregular.quat_core import I, J, K, ONE, REAL_EPS, sphere_of
from sliceregular.regular_fn import SphericalExpansion

F = parse_polynomial("q^2+qi")


def rand_q(rng, scale=1.0):
    return Quaternion(*(float(scale * t) for t in rng.uniform(-1, 1, 4)))


def finite_difference(f, q0, h=1e-5):
    basis = (ONE, I, J, K)
    m = np.zeros((4, 4))
    for col, e in enumerate(basis):
        d = (eval_series(f, q0 + h * e) - eval_series(f, q0 - h * e)) / (2 * h)
        m[:, col] = [d.w, d.x, d.y, d.z]
    return m


def test_differential_matches_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(30):
        f = RegularSeries(tuple(rand_q(rng) for _ in range(5)))
        q0 = Quaternion(0.4, 0.8, -0.3, 0.5)
        m = differential_at(f, q0).matrix
        assert np.max(np.abs(m - finite_difference(f, q0))) <= 1e-6


def test_differential_on_real_axis_is_right_multiplication():
    q0 = Quaternion(0.7)
    d = differential_at(F, q0)
    # A1 = f'(x) = 2x + i at a real point; the map is v -> v A1
    a1 = 2.0 * q0 + I
    for v in (ONE, I, J, K):
        assert abs(d.apply(v) - v * a1) <= 1e-9


def test_directional_derivative_matches_matrix():
    q0 = Quaternion(0.1, 0.5, 0.5, -0.2)
    d = differential_at(F, q0)
    for v in (I, J, Quaternion(0.5, 0.5, 0.5, 0.5)):
        dv = directional_derivative(F, q0, v)
        unit = v / abs(v)
        assert abs(dv - d.apply(unit)) <= 1e-9


def test_rank_four_generic():
    q0 = Quaternion(0.3, 0.2, 0.4, 0.0)
    rc = rank_classify(F, q0)
    assert rc.rank == Rank.RANK4
    assert differential_at(F, q0).rank() == 4
    assert not is_singular(F, q0).singular


def test_rank_two_on_singular_plane():
    # the singular set of q^2 + qi is -i/2 + jR + kR
    for q0 in (Quaternion(0, -0.5, 1, 0), Quaternion(0, -0.5, 0.3, -2.0)):
        rc = rank_classify(F, q0)
        assert rc.rank == Rank.RANK2
        assert differential_at(F, q0).rank() == 2
        cert = is_singular(F, q0)
        assert cert.singular


def test_rank_two_spherical_factor():
    # [(q-x)^2 + y^2] * g has A1 = 0 on the sphere, rank 2 where A2 != 0
    quad = RegularSeries.polynomial(Quaternion(1.25), Quaternion(-1.0), ONE)
    f = star_mul(quad, RegularSeries.linear(Quaternion(3.0)))
    q0 = Quaternion(0.5, 1.0)
    rc = rank_classify(f, q0)
    assert rc.rank == Rank.RANK2
    assert abs(rc.a1) <= 1e-10
    assert differential_at(f, q0).rank() == 2


def test_rank_zero_double_spherical_factor():
    quad = RegularSeries.polynomial(Quaternion(1.25), Quaternion(-1.0), ONE)
    f = star_mul(quad, quad)
    q0 = Quaternion(0.5, 1.0)
    assert rank_classify(f, q0).rank == Rank.RANK0
    assert differential_at(f, q0).rank() == 0


def test_is_singular_witness_divides():
    q0 = Quaternion(0, -0.5, 1, 0)
    cert = is_singular(F, q0)
    assert cert.singular and cert.witness is not None
    # the witness lies on the sphere through q0
    s = Sphere(q0.re(), q0.im_norm())
    assert s.contains(cert.witness, tol=1e-7)


def test_is_singular_real_point():
    # f(q) = q^2 has a double zero at 0
    f = parse_polynomial("q^2")
    assert is_singular(f, Quaternion()).singular
    assert not is_singular(f, Quaternion(1.0)).singular


def test_degenerate_sphere():
    quad = RegularSeries.polynomial(Quaternion(1.25), Quaternion(-1.0), ONE)
    f = quad  # constant (zero) on the sphere 0.5 + 1.0 S
    assert is_degenerate_sphere(f, Sphere(0.5, 1.0))
    assert not is_degenerate_sphere(F, Sphere(0.5, 1.0))
    with pytest.raises(ValueError):
        is_degenerate_sphere(F, Sphere(0.5, 0.0))


def test_degenerate_sphere_reads_the_rank_gate():
    # q^2 + 5e-10 q + 1: on the unit sphere A1 = 5e-10, against terms of
    # 2 + 5e-10 that cancel in it, which is not negligible for
    # rank_classify, so f is not constant there either
    f = RegularSeries.polynomial(ONE, Quaternion(5e-10), ONE)
    assert not is_degenerate_sphere(f, Sphere(0.0, 1.0))
    assert rank_classify(f, I).rank == Rank.RANK4


def test_branching_property_near_singular_point():
    # near q0 = -i/2 + j (total multiplicity 2), regular values have
    # two preimages inside a symmetric neighborhood of the sphere of q0
    from sliceregular import preimages
    rng = np.random.default_rng(11)
    q0 = Quaternion(0, -0.5, 1, 0)
    for _ in range(20):
        q1 = q0 + rand_q(rng, 0.05)
        if is_singular(F, q1).singular:
            continue
        pts = preimages(eval_series(F, q1))
        assert len(pts) == 2
        # both preimages stay near the sphere of q0
        for p in pts:
            d = abs(p.re() - q0.re()) ** 2 + (p.im_norm() - q0.im_norm()) ** 2
            assert d < 0.25


def test_injectivity_forces_empty_singular_set():
    # a linear polynomial is injective; its differential never drops rank
    f = RegularSeries.linear(Quaternion(1, 2, 3, 4))
    rng = np.random.default_rng(5)
    for _ in range(25):
        q0 = rand_q(rng, 2.0)
        assert not is_singular(f, q0).singular


def test_differential_near_real_axis_is_silent():
    # one formula on and off the real axis: no warning near it, and no
    # RealArgument from imag_unit below the real-axis threshold
    for q0 in (Quaternion(0.5, 1e-7), Quaternion(0.5, 9e-7),
               Quaternion(0.3, 1e-11), Quaternion(0.3, 1e-13)):
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConditioningWarning)
            assert differential_at(F, q0).rank() == 4
        assert rank_classify(F, q0).rank == Rank.RANK4


def test_differential_keeps_second_term_below_real_axis_threshold():
    # q^2 has derivative v -> q0 v + v q0; at |Im q0| = 5e-11 the point
    # counts as real, but dropping the A2 term would err by about 2e-10
    f = parse_polynomial("q^2")
    q0 = Quaternion(0.3, 5e-11)
    d = differential_at(f, q0)
    for v in (ONE, I, J, K, Quaternion(0.5, -0.5, 0.5, 0.5)):
        exact = q0 * v + v * q0
        assert abs(d.apply(v) - exact) <= 1e-14 * abs(exact)


@pytest.mark.parametrize("q0, rank", [
    (Quaternion(0.0, 5e-11), 2), (Quaternion(0.0, 2e-10), 2),
    (Quaternion(0.0, 1e-9), 2), (Quaternion(0.0, 0.0, 0.0, -5e-11), 2),
    (Quaternion(), 0), (Quaternion(0.5), 4), (Quaternion(-1.0), 4),
])
def test_rank_classify_agrees_with_jacobian_near_real_axis(q0, rank):
    # q^2 has A1 = 2 Re(q0) and A2 = 1: on the slice the differential is
    # v (A1 + 2 Im(q0) A2), so below the real-axis threshold too it keeps
    # rank 2 at a non-real q0 where A1 vanishes
    f = parse_polynomial("q^2")
    assert rank_classify(f, q0).rank.value == rank
    assert differential_at(f, q0).rank() == rank
    assert is_singular(f, q0).singular == (rank != 4)


@pytest.mark.parametrize("s", [10.0 ** e for e in range(-12, 13, 3)])
@pytest.mark.parametrize("q0", [Quaternion(1e-3), Quaternion(1e-11),
                                Quaternion(-1e-11), Quaternion(3e-11),
                                Quaternion(1e-12), Quaternion()])
def test_rank_gate_is_relative_on_the_real_axis(s, q0):
    # s q^2 has A1 = 2 s q0 on the real axis: nonzero, and so rank 4 and
    # not singular, for every nonzero q0 and every scale s
    f = RegularSeries.polynomial(Quaternion(), Quaternion(), Quaternion(s))
    rank = differential_at(f, q0).rank()
    assert rank == (0 if q0 == Quaternion() else 4)
    assert rank_classify(f, q0).rank.value == rank
    assert is_singular(f, q0).singular == (rank != 4)


@pytest.mark.parametrize("s", [1e-300, 1e-170, 1e-12, 1.0, 1e12, 1e160, 1e200, 1e300])
def test_singularity_gates_are_relative_off_the_real_axis(s):
    # every verdict is the one at s = 1, also where |A1|^2 and |A2|^2
    # leave float64: s (q^2 + qi) has rank 4 at 0.3 + 0.5i + 0.2j and at
    # the real point 0.2, and rank 2 on its singular plane with the
    # witness of s = 1; s (q^3 + q) is not constant on the sphere 2S, and
    # s (q^2 + 1) vanishes on S, so it is singular and constant there
    f = RegularSeries.polynomial(Quaternion(), Quaternion(0.0, s), Quaternion(s))
    q0, plane = Quaternion(0.3, 0.5, 0.2), Quaternion(0.0, -0.5, 0.3, 0.1)
    assert rank_classify(f, q0).rank == Rank.RANK4
    assert rank_classify(f, Quaternion(0.2)).rank == Rank.RANK4
    assert rank_classify(f, plane).rank == Rank.RANK2
    assert differential_at(f, q0).rank() == 4
    assert not is_singular(f, q0).singular
    cert = is_singular(f, plane)
    assert cert.singular and abs(cert.witness - is_singular(F, plane).witness) <= 1e-15
    value, ocs = induced_ocs(f, q0)
    assert max(map(abs, value - s * eval_series(F, q0))) <= 1e-15 * s
    assert ocs.unit == induced_ocs(F, q0)[1].unit
    with pytest.raises(SingularPoint):
        induced_ocs(f, plane)
    cubic = RegularSeries.polynomial(Quaternion(), Quaternion(s), Quaternion(),
                                     Quaternion(s))
    assert not is_degenerate_sphere(cubic, Sphere(0.0, 2.0))
    spherical = RegularSeries.polynomial(Quaternion(s), Quaternion(), Quaternion(s))
    assert is_singular(spherical, Quaternion(0.0, 0.6, 0.8)).singular
    assert is_degenerate_sphere(spherical, Sphere(0.0, 1.0))


@pytest.mark.parametrize("v", [
    Quaternion(0.0, 1e200), Quaternion(0.0, 1e-170), Quaternion(0.0, 5e-324),
    Quaternion(3e-200, 0.0, -4e-200), Quaternion(3e200, 0.0, -4e200),
], ids=["1e200", "1e-170", "subnormal", "1e-200-pair", "1e200-pair"])
def test_directional_derivative_at_extreme_direction_scales(v):
    # only the direction of v matters, however |v|^2 under- or overflows
    q0 = Quaternion(0.3, 0.4)
    m = max(map(abs, v))
    unit = Quaternion(*(t / m for t in v))
    unit = unit / abs(unit)
    got = directional_derivative(F, q0, v)
    assert abs(got - directional_derivative(F, q0, unit)) <= 1e-15 * abs(got)
    assert abs(got) > 0.5


@pytest.mark.parametrize("v", [
    Quaternion(math.nan), Quaternion(0.0, math.inf), Quaternion(0.0, 0.0, -math.inf),
    Quaternion(), Quaternion(-0.0, 0.0, -0.0, 0.0),
], ids=["nan", "inf", "minus-inf", "zero", "signed-zero"])
def test_directional_derivative_rejects_zero_and_non_finite_direction(v):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="direction must be"):
            directional_derivative(F, Quaternion(0.3, 0.4), v)


def test_matrix_json_roundtrip():
    d = differential_at(F, Quaternion(0.2, 0.3, 0.1, 0.0))
    flat = d.to_json()
    assert len(flat) == 16
    assert np.allclose(np.array(flat).reshape(4, 4), d.matrix)


# ---------------------------------------------------------------------------
# Oracles: the Quaternion-object bodies that the 4-tuple kernels replaced.
# The kernels must give the same floats, bit for bit, signed zeros included.


def oracle_is_real(q):
    return q.im_norm() <= REAL_EPS * max(1.0, abs(q))


def oracle_imag_unit(q):
    if oracle_is_real(q):
        raise RealArgument(f"imaginary unit undefined at real point {q}")
    n = q.im_norm()
    return Quaternion(0.0, q.x / n, q.y / n, q.z / n)


def oracle_spherical_expansion(f, sphere, q0, n_coeffs):
    if not sphere.contains(q0, tol=1e-8):
        raise ValueError(f"center {q0} not on sphere {sphere}")
    if not f.is_polynomial:
        if math.hypot(sphere.x, sphere.y) >= f.radius:
            raise OutsideRadius("sphere not inside convergence radius")
        f = RegularSeries(f.coeffs)
    q0_bar = Quaternion(2.0 * sphere.x) - q0
    coeffs = []
    g = f
    for n in range(n_coeffs + 1):
        g, r = divide_linear(g, q0 if n % 2 == 0 else q0_bar)
        coeffs.append(r)
        if g.is_zero and len(coeffs) > n_coeffs:
            break
    return SphericalExpansion(sphere, q0, tuple(coeffs))


def oracle_expansion_pair(f, q0):
    exp = oracle_spherical_expansion(f, sphere_of(q0), q0, 2)
    return exp.a(1), exp.a(2)


def oracle_directional_derivative(f, q0, v):
    n = abs(v)
    if n == 0.0:
        raise ValueError("direction must be nonzero")
    if abs(n - 1.0) > 1e-12:
        v = v / n
    a1, a2 = oracle_expansion_pair(f, q0)
    return v * a1 + (q0 * v - v * q0.conj()) * a2


def exact_derivative(f, q0, e):
    """sum_n sum_k q0^k e q0^(n-1-k) a_n, the derivative of sum_n q^n a_n
    along e, from the power series itself rather than the expansion."""
    powers = [ONE]
    for _ in f.coeffs[1:]:
        powers.append(powers[-1] * q0)
    total = Quaternion()
    for n, a in enumerate(f.coeffs):
        for k in range(n):
            total = total + powers[k] * e * powers[n - 1 - k] * a
    return total


def oracle_terms(f, r, order):
    """sum C(n, order) |a_n| r^(n - order): the terms that cancel in A_order."""
    return sum(math.comb(n, order) * abs(a) * r ** (n - order)
               for n, a in enumerate(f.coeffs) if n >= order)


def oracle_rank_classify(f, q0):
    a1, a2 = oracle_expansion_pair(f, q0)
    if abs(a1) <= 1e-10 * oracle_terms(f, abs(q0), 1):
        real = q0.im_norm() == 0.0
        rank = (Rank.RANK0 if real or abs(a2) <= 1e-10 * oracle_terms(f, abs(q0), 2)
                else Rank.RANK2)
        return RankClass(rank, a1, a2)
    p = ONE + (2.0 * q0.im()) * a2 * a1.inverse()
    ptol = 1e-9 * (1.0 + abs(p))
    if not abs(p.dot(ONE)) <= ptol:
        return RankClass(Rank.RANK4, a1, a2)
    n = q0.im_norm()  # nonzero: on the real axis p = 1
    unit = Quaternion(0.0, q0.x / n, q0.y / n, q0.z / n)
    in_perp = abs(p.dot(unit)) <= ptol
    return RankClass(Rank.RANK2 if in_perp else Rank.RANK4, a1, a2)


def oracle_is_singular(f, q0):
    if not f.is_polynomial:
        raise ValueError("is_singular expects a polynomial")
    terms = oracle_terms(f, abs(q0), 1)
    shifted = f.shift(eval_series(f, q0))
    g, _ = divide_linear(shifted, q0)
    if g.is_zero:
        return SingularityCertificate(False, None)
    if oracle_is_real(q0):
        r = eval_series(g, q0.conj())
        if abs(r) <= 1e-8 * terms:
            return SingularityCertificate(True, q0)
        return SingularityCertificate(False, None)
    sph = sphere_of(q0)
    alpha, beta = slice_values(g, sph.x, sph.y)
    if abs(beta) <= 1e-9 * terms:
        if abs(alpha) <= 1e-9 * terms:
            return SingularityCertificate(True, q0.conj())
        return SingularityCertificate(False, None)
    cand = -(alpha * beta.inverse())
    if abs(cand.re()) > 1e-7 * max(1.0, abs(cand)) or abs(abs(cand) - 1.0) > 1e-7:
        return SingularityCertificate(False, None)
    witness = Quaternion(sph.x) + sph.y * oracle_imag_unit(cand)
    _, r = divide_linear(g, witness)
    if abs(r) <= 1e-8 * terms:
        return SingularityCertificate(True, witness)
    return SingularityCertificate(False, None)


def oracle_induced_ocs(f, q):
    unit = oracle_imag_unit(q)
    if oracle_rank_classify(f, q).rank != Rank.RANK4:
        raise SingularPoint(f"differential of f not invertible at {q}")
    return eval_series(f, q), OCSValue(unit)


def oracle_is_degenerate_sphere(f, sphere):
    if sphere.y <= 0:
        raise ValueError("degeneracy is defined for genuine spheres (y > 0)")
    q0 = Quaternion(sphere.x, sphere.y)
    exp = oracle_spherical_expansion(f, sphere, q0, 1)
    return abs(exp.a(1)) <= 1e-10 * oracle_terms(f, abs(q0), 1)


def bits(value):
    """Comparable reprs of every float in a result, however nested."""
    if isinstance(value, Quaternion):
        return tuple(map(repr, value))
    if isinstance(value, RankClass):
        return value.rank, bits(value.a1), bits(value.a2)
    if isinstance(value, SingularityCertificate):
        return value.singular, bits(value.witness)
    if isinstance(value, OCSValue):
        return bits(value.unit)
    if isinstance(value, RealLinearMap4):
        return tuple(map(repr, value.matrix.reshape(-1).tolist()))
    if isinstance(value, SphericalExpansion):
        return bits(value.sphere), bits(value.center), bits(value.coeffs)
    if isinstance(value, Sphere):
        return repr(value.x), repr(value.y)
    if isinstance(value, tuple):
        return tuple(map(bits, value))
    return repr(value)


def outcome(fn, *args):
    """bits of fn(*args) or its exception, with the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = bits(fn(*args))
        except (ValueError, ArithmeticError) as exc:
            result = type(exc).__name__, str(exc)
    return result, [str(w.message) for w in caught]


# Components from 1e-3 to 1e3 in size, either sign, and signed zeros.
components = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from([-1.0, 1.0]),
              st.floats(min_value=-3.0, max_value=3.0)))
quaternions = st.builds(Quaternion, components, components, components,
                        components)
# Degrees 0-8, with zero coefficients inside and a trailing zero
# coefficient, which RegularSeries trims.
polys = st.builds(
    lambda coeffs, pad: RegularSeries(tuple(coeffs) + (Quaternion(),) * pad),
    st.lists(quaternions, min_size=1, max_size=9), st.integers(0, 1))
# Points with |Im q| from 1e-13 to 1e-5, either side of the real-axis
# test and close above it.
near_real = st.builds(
    lambda w, d, e: Quaternion(w, *(10.0 ** e * t / math.sqrt(d[0] ** 2 + d[1] ** 2
                                                               + d[2] ** 2)
                                    for t in d)),
    components,
    st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
        lambda d: d[0] ** 2 + d[1] ** 2 + d[2] ** 2 > 1e-6),
    st.floats(-13.0, -5.0))
# The singular plane -i/2 + jR + kR of q^2 + qi, with either zero.
singular_plane = st.builds(lambda w, y, z: Quaternion(w, -0.5, y, z),
                           st.sampled_from([0.0, -0.0]), components, components)
points = st.one_of(quaternions, near_real, singular_plane,
                   st.builds(lambda w: Quaternion(w), components))


def planted(p, kind, u, h, c):
    """(f, p) with f - c = (q - p) s h singular at p: s is q - p' with p'
    on the sphere of p, the real quadratic of that sphere, or q - p."""
    x, y = p.w, p.im_norm()
    if kind == 0:
        s = RegularSeries.linear(Quaternion(x) + y * u)
    elif kind == 1:
        s = RegularSeries.polynomial(Quaternion(x * x + y * y),
                                     Quaternion(-2.0 * x), ONE)
    else:
        s = RegularSeries.linear(p)
    return star_mul(star_mul(RegularSeries.linear(p), s), h).shift(-c), p


# Few distinct values and many zeros, so that the sign of a zero
# reaches the answer.
small = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0])
small_quaternions = st.builds(Quaternion, small, small, small, small)
small_polys = st.lists(small_quaternions, min_size=1, max_size=5).map(
    lambda coeffs: RegularSeries(tuple(coeffs)))
# q^2 + qi or a random polynomial at a random point, or a polynomial at
# a point where it is singular, so that every branch of the kernels runs.
cases = st.one_of(
    st.tuples(st.one_of(st.just(F), polys), points),
    st.tuples(small_polys, small_quaternions),
    st.builds(planted, points, st.integers(0, 2),
              st.sampled_from([I, -J, K, Quaternion(0.0, 0.6, -0.0, -0.8)]),
              polys, quaternions))
ORACLE = settings(max_examples=150, deadline=None)


@ORACLE
@given(cases)
def test_rank_classify_matches_oracle(case):
    assert outcome(rank_classify, *case) == outcome(oracle_rank_classify, *case)


@ORACLE
@given(cases)
def test_one_singularity_decision(case):
    # is_singular and induced_ocs decide as rank_classify does, constants
    # and the zero series included
    f, q0 = case
    singular = rank_classify(f, q0).rank != Rank.RANK4
    assert is_singular(f, q0).singular == singular
    if oracle_is_real(q0):
        with pytest.raises(RealArgument):
            induced_ocs(f, q0)
    elif singular:
        with pytest.raises(SingularPoint):
            induced_ocs(f, q0)
    else:
        induced_ocs(f, q0)


@ORACLE
@given(cases)
def test_is_singular_matches_oracle(case):
    # The quotient probe is the independent reference.  Where both find a
    # witness on a sphere wider than 1e-7 max(1, |q0|), they agree within
    # 1e-9 of that scale; on a narrower sphere, where the probe takes
    # q0 as real or the whole sphere as a zero, a witness is fixed only
    # up to the sphere.  Where only the probe finds one, q0 is at the
    # gate: the differential is within 1e-6 of singular (s_min / s_max at
    # most 7.5e-7 on 90,000 examples; the perp test makes no allowance
    # for the rounding of a small A1 near the real axis).  Every witness
    # lies on the sphere of q0, where the probe's quotient of f - f(q0)
    # by (q - q0) vanishes within 1e-9 of the terms that cancel in it.
    f, q0 = case
    cert, want = is_singular(f, q0), oracle_is_singular(f, q0)
    scale = max(1.0, abs(q0))
    if not cert.singular:
        assert cert.witness is None
        if want.singular:
            s = np.linalg.svd(differential_at(f, q0).matrix, compute_uv=False)
            assert s[-1] <= 1e-6 * s[0]
        return
    if want.singular and q0.im_norm() > 1e-7 * scale:
        assert abs(cert.witness - want.witness) <= 1e-9 * scale
    assert sphere_of(q0).contains(cert.witness, tol=1e-9)
    g, _ = divide_linear(f.shift(eval_series(f, q0)), q0)
    assert abs(eval_series(g, cert.witness)) <= 1e-9 * oracle_terms(f, abs(q0), 1)


@ORACLE
@given(cases)
def test_induced_ocs_matches_oracle(case):
    assert outcome(induced_ocs, *case) == outcome(oracle_induced_ocs, *case)


@ORACLE
@given(cases)
def test_differential_at_matches_oracle(case):
    # the exact derivative, on the real axis, near it and off it; column
    # k is the directional derivative along e_k, bit for bit
    f, q0 = case
    m = differential_at(f, q0).matrix
    scale = sum(n * abs(q0) ** (n - 1) * abs(a)
                for n, a in enumerate(f.coeffs) if n)
    for k, e in enumerate((ONE, I, J, K)):
        column = Quaternion(*m[:, k].tolist())
        assert abs(column - exact_derivative(f, q0, e)) <= 1e-13 * scale
        assert bits(column) == bits(directional_derivative(f, q0, e))


@ORACLE
@given(cases, quaternions)
def test_directional_derivative_matches_oracle(case, v):
    assert (outcome(directional_derivative, *case, v)
            == outcome(oracle_directional_derivative, *case, v))


@ORACLE
@given(cases, st.integers(0, 6), st.booleans())
def test_spherical_expansion_matches_oracle(case, n, series):
    # a series expands as its truncation; a point near q0's sphere also
    # passes the sphere test
    f, q0 = case
    if series:
        f = RegularSeries(f.coeffs, radius=4.0)
    sphere = sphere_of(q0)
    for s in (sphere, Sphere(sphere.x * (1.0 + 1e-9), sphere.y)):
        assert (outcome(spherical_expansion, f, s, q0, n)
                == outcome(oracle_spherical_expansion, f, s, q0, n))


@ORACLE
@given(cases)
def test_is_degenerate_sphere_matches_oracle(case):
    f, q0 = case
    sphere = sphere_of(q0)
    assert (outcome(is_degenerate_sphere, f, sphere)
            == outcome(oracle_is_degenerate_sphere, f, sphere))


def test_oracles_cover_every_branch():
    # the branches the properties rely on do occur
    q2 = parse_polynomial("q^2")
    assert rank_classify(q2, Quaternion()).rank == Rank.RANK0
    assert is_singular(q2, Quaternion()).witness == Quaternion()
    quad = RegularSeries.polynomial(Quaternion(1.25), Quaternion(-1.0), ONE)
    cert = is_singular(star_mul(quad, quad), Quaternion(0.5, 1.0))
    assert cert.witness == Quaternion(0.5, -1.0)
    for fn in (rank_classify, induced_ocs):
        q0 = Quaternion(-0.0, -0.5, 0.25, -0.0)
        assert outcome(fn, F, q0) == outcome(globals()[f"oracle_{fn.__name__}"], F, q0)


def test_witness_on_the_singular_plane():
    # -i/2 + j/4 lies on the singular plane of q^2 + qi; the quotient's
    # zero on its sphere is -i/2 - j/4, exactly
    cert = is_singular(F, Quaternion(-0.0, -0.5, 0.25, -0.0))
    assert cert.singular and bits(cert.witness) == bits(Quaternion(0.0, -0.5, -0.25, 0.0))


@pytest.mark.parametrize("f", [RegularSeries.constant(Quaternion(0.5, 0.5)),
                               RegularSeries(())], ids=["constant", "zero"])
def test_constant_is_singular_everywhere(f):
    # the differential of a constant is 0, so it has no induced structure;
    # the witness is q0-bar, as 2 Re(q0) - q0
    q0 = Quaternion(0.3, 0.5, 0.2)
    assert differential_at(f, q0).rank() == 0
    assert rank_classify(f, q0).rank == Rank.RANK0
    cert = is_singular(f, q0)
    assert cert.singular and bits(cert.witness) == bits(Quaternion(0.3, -0.5, -0.2, 0.0))
    with pytest.raises(SingularPoint):
        induced_ocs(f, q0)


# ---------------------------------------------------------------------------
# Input boundary


@pytest.mark.parametrize("q0", [
    Quaternion(1e200, 1e200), Quaternion(1e160), Quaternion(math.nan, 1.0),
    Quaternion(0.5, math.inf), Quaternion(0.0, 1.0, -math.inf, 0.0),
], ids=["overflow", "real-overflow", "nan", "inf", "minus-inf"])
@pytest.mark.parametrize("fn", [
    rank_classify, is_singular, induced_ocs, differential_at,
    lambda f, q0: directional_derivative(f, q0, I),
    lambda f, q0: is_degenerate_sphere(f, Sphere(q0.w, q0.im_norm() or 1.0)),
], ids=["rank_classify", "is_singular", "induced_ocs", "differential_at",
        "directional_derivative", "is_degenerate_sphere"])
def test_non_finite_point_raises_value_error(fn, q0):
    # not "center not on sphere", RealArgument or a NaN answer: one
    # ValueError naming the boundary, and no numpy warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite") as info:
            fn(F, q0)
    assert type(info.value) is ValueError


# rank_classify, is_singular and induced_ocs remember the last decision.
# The fresh decision comes from the function the memo wraps, and every
# comparison is of float bits, in which -0.0 differs from 0.0.


def _bits(*qs) -> list[tuple[str, ...]]:
    return [tuple(map(float.hex, q)) for q in qs]


def _check_against_fresh(f: RegularSeries, p: Quaternion) -> None:
    rank, witness, a0, a1, a2 = _classify.__wrapped__(f, p)
    rc = rank_classify(f, p)
    assert rc.rank is rank and _bits(rc.a1, rc.a2) == _bits(a1, a2)
    cert = is_singular(f, p)
    assert cert.singular is (rank is not Rank.RANK4)
    if witness is None:
        assert cert.witness is None
        value, _ = induced_ocs(f, p)
        assert _bits(value) == _bits(a0)
    else:
        assert _bits(cert.witness) == _bits(witness)
        with pytest.raises(SingularPoint):
            induced_ocs(f, p)


def test_decision_memo_keys_series_by_identity():
    p = Quaternion(-0.5, -0.0, -0.0, 0.5)
    fa = RegularSeries((Quaternion(1.0, 0.0), ONE))
    fb = RegularSeries((Quaternion(1.0, -0.0), ONE))  # f(p) keeps this -0.0
    fc = RegularSeries(fa.coeffs)
    assert fa == fb == fc and fc is not fa
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in (fa, fb, fc, fb, fa, fa):
            _check_against_fresh(f, p)
        assert _bits(induced_ocs(fa, p)[0]) != _bits(induced_ocs(fb, p)[0])


def test_decision_memo_survives_id_reuse():
    # each series is freed after its calls, so its id may be handed to
    # the next one; the memo keeps the last one alive, so it is not
    p = Quaternion(0.3, 0.5, -0.2, 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in range(200):
            _check_against_fresh(RegularSeries((Quaternion(float(k)), ONE, ONE)), p)


def test_decision_memo_tells_points_apart():
    a, b = Quaternion(0.3, 0.5, -0.2, 0.1), Quaternion(0.3, 0.5, -0.2, -0.1)
    singular = Quaternion(0.0, -0.5, 0.3, 0.0)  # on F's singular plane
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in (a, b, a, singular, a, singular, singular, b):
            _check_against_fresh(F, p)


def test_decision_errors_raise_on_every_call():
    f = RegularSeries((ONE, ONE, ONE), radius=1.0)
    inside, outside = Quaternion(0.1, 0.2), Quaternion(0.1, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(2):
            for fn in (rank_classify, induced_ocs):
                for _ in range(2):
                    with pytest.raises(OutsideRadius):
                        fn(f, outside)
                fn(f, inside)


def test_decision_memo_tells_numpy_scalars_from_floats():
    # a point of numpy scalars has the bits of its float twin, but its
    # witness is computed, and answered, in numpy scalars
    pf = Quaternion(0.0, -0.5, 0.3, 0.0)  # on F's singular plane
    pn = Quaternion(*map(np.float64, pf))
    for p, kind in ((pn, np.float64), (pf, float), (pn, np.float64), (pf, float)):
        assert {type(t) for t in is_singular(F, p).witness} == {kind}
