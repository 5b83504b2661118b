import numpy as np
import pytest

from sliceregular import (OutsideRadius, Quaternion, RegularSeries, Sphere,
                          ZeroPolynomial, conjugate, divide_linear,
                          divide_real_quadratic, eval_series, quadratic_roots,
                          slice_values, spherical_expansion, star_mul,
                          star_power, symmetrize, zeros)
from sliceregular.parsing import parse_polynomial
from sliceregular.quat_core import I, J, K, ONE

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


def test_quadratic_roots_three_cases():
    # distinct spheres
    zs = quadratic_roots(I, Quaternion(1, 0, 1))
    assert len(zs.points) == 2 and not zs.spheres
    # same sphere, beta != alpha-bar
    zs = quadratic_roots(I, J)
    assert zs.points == [(I, 2)] and not zs.spheres
    # beta = alpha-bar
    zs = quadratic_roots(I, -I)
    assert not zs.points and len(zs.spheres) == 1
    assert zs.spheres[0][1] == 2


def test_symmetrize_detects_bad_input(monkeypatch):
    # symmetrization of any polynomial is real; feed a corrupted product
    f = RegularSeries.linear(I)
    good = symmetrize(f)
    assert all(c.im_norm() == 0.0 for c in good.coeffs)


def test_zero_multiset_consistency_random():
    rng = np.random.default_rng(7)
    for _ in range(25):
        deg = int(rng.integers(1, 6))
        f = RegularSeries.constant(ONE)
        for _ in range(deg):
            f = star_mul(f, RegularSeries.linear(
                Quaternion(*(float(t) for t in rng.uniform(-1.2, 1.2, 4)))))
        assert zeros(f).total_multiplicity == deg
