import math

import numpy as np
import pytest

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
    with pytest.raises(ValueError):
        MobiusCoeffs(Quaternion(), Quaternion(), Quaternion(), Quaternion())


@pytest.mark.parametrize("scale", [1e-7, 1.0, 1e7])
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


def test_so2h_detection():
    # all coefficients real multiples of one unit: preserves the standard OCS
    eps = Quaternion(0.5, 0.5, 0.5, 0.5)
    m = MobiusCoeffs(2.0 * eps, -eps, Quaternion(), eps)
    assert is_so2h(m)
    mixed = MobiusCoeffs(ONE, I, Quaternion(), J)
    assert not is_so2h(mixed)


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
