import warnings

import numpy as np
import pytest

from sliceregular import (ConditioningWarning, Quaternion, Rank, RegularSeries,
                          Sphere, differential_at, directional_derivative,
                          eval_series, is_degenerate_sphere, is_singular,
                          rank_classify, star_mul)
from sliceregular.parsing import parse_polynomial
from sliceregular.quat_core import I, J, K, ONE

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
