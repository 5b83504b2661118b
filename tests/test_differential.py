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
from sliceregular.differential import NEAR_REAL_BAND
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


def test_near_real_band_warns_when_consistent():
    # just inside the band the two formulas agree for smooth data: no
    # warning; at |Im q0| below the real-axis threshold the real-limit
    # formula applies, rather than imag_unit raising RealArgument
    for q0 in (Quaternion(0.5, 1e-7), Quaternion(0.3, 1e-11),
               Quaternion(0.3, 1e-13)):
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConditioningWarning)
            assert differential_at(F, q0).rank() == 4
        assert rank_classify(F, q0).rank == Rank.RANK4


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


def oracle_matrix_from(a1, a2, q0, non_real):
    cols = []
    if non_real:
        unit = oracle_imag_unit(q0)
        factor = a1 + (2.0 * q0.im()) * a2
        for e in (ONE, I, J, K):
            u = e.dot(ONE) * ONE + e.dot(unit) * unit
            w = e - u
            cols.append(u * factor + w * a1)
    else:
        for e in (ONE, I, J, K):
            cols.append(e * a1)
    return np.array([[c.w, c.x, c.y, c.z] for c in cols]).T


def oracle_differential_at(f, q0):
    a1, a2 = oracle_expansion_pair(f, q0)
    if oracle_is_real(q0):
        return RealLinearMap4(oracle_matrix_from(a1, a2, q0, non_real=False))
    m = oracle_matrix_from(a1, a2, q0, non_real=True)
    if q0.im_norm() < NEAR_REAL_BAND:
        m_real = oracle_matrix_from(a1, a2, q0, non_real=False)
        gap = float(np.max(np.abs(m - m_real)))
        if gap > 1e-6 * max(1.0, float(np.max(np.abs(m)))):
            warnings.warn(
                f"differential at {q0} is ill-conditioned near the real axis "
                f"(formula gap {gap:.3e})", ConditioningWarning)
    return RealLinearMap4(m)


def oracle_rank_classify(f, q0):
    a1, a2 = oracle_expansion_pair(f, q0)
    scale = max(1.0, f.coefficient_scale())
    tol = 1e-10 * scale
    if oracle_is_real(q0):
        rank = Rank.RANK0 if abs(a1) <= tol else Rank.RANK4
        return RankClass(rank, a1, a2)
    if abs(a1) <= tol:
        rank = Rank.RANK0 if abs(a2) <= tol else Rank.RANK2
        return RankClass(rank, a1, a2)
    p = ONE + (2.0 * q0.im()) * a2 * a1.inverse()
    unit = oracle_imag_unit(q0)
    ptol = 1e-9 * (1.0 + abs(p))
    in_perp = abs(p.dot(ONE)) <= ptol and abs(p.dot(unit)) <= ptol
    return RankClass(Rank.RANK2 if in_perp else Rank.RANK4, a1, a2)


def oracle_is_singular(f, q0):
    if not f.is_polynomial:
        raise ValueError("is_singular expects a polynomial")
    scale = max(1.0, f.coefficient_scale())
    shifted = f.shift(eval_series(f, q0))
    g, _ = divide_linear(shifted, q0)
    if g.is_zero:
        return SingularityCertificate(False, None)
    if oracle_is_real(q0):
        r = eval_series(g, q0)
        if abs(r) <= 1e-8 * scale:
            return SingularityCertificate(True, q0)
        return SingularityCertificate(False, None)
    sph = sphere_of(q0)
    alpha, beta = slice_values(g, sph.x, sph.y)
    if abs(beta) <= 1e-9 * scale:
        if abs(alpha) <= 1e-9 * scale:
            return SingularityCertificate(True, q0.conj())
        return SingularityCertificate(False, None)
    cand = -(alpha * beta.inverse())
    if abs(cand.re()) > 1e-7 * max(1.0, abs(cand)) or abs(abs(cand) - 1.0) > 1e-7:
        return SingularityCertificate(False, None)
    witness = Quaternion(sph.x) + sph.y * oracle_imag_unit(cand)
    _, r = divide_linear(g, witness)
    if abs(r) <= 1e-8 * scale:
        return SingularityCertificate(True, witness)
    return SingularityCertificate(False, None)


def oracle_induced_ocs(f, q):
    unit = oracle_imag_unit(q)
    if f.is_polynomial and oracle_is_singular(f, q).singular:
        raise SingularPoint(f"differential of f not invertible at {q}")
    return eval_series(f, q), OCSValue(unit)


def oracle_is_degenerate_sphere(f, sphere):
    if sphere.y <= 0:
        raise ValueError("degeneracy is defined for genuine spheres (y > 0)")
    q0 = Quaternion(sphere.x, sphere.y)
    exp = oracle_spherical_expansion(f, sphere, q0, 1)
    return abs(exp.a(1)) <= 1e-9 * max(1.0, f.coefficient_scale())


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
# test and inside the near-real band of differential_at.
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
def test_is_singular_matches_oracle(case):
    assert outcome(is_singular, *case) == outcome(oracle_is_singular, *case)


@ORACLE
@given(cases)
def test_induced_ocs_matches_oracle(case):
    assert outcome(induced_ocs, *case) == outcome(oracle_induced_ocs, *case)


@ORACLE
@given(cases)
def test_differential_at_matches_oracle(case):
    assert outcome(differential_at, *case) == outcome(oracle_differential_at, *case)


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
    for fn in (rank_classify, is_singular, induced_ocs, differential_at):
        q0 = Quaternion(-0.0, -0.5, 0.25, -0.0)
        assert outcome(fn, F, q0) == outcome(globals()[f"oracle_{fn.__name__}"], F, q0)


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
