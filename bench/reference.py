"""Independent numpy reference for the benchmark's output checks.

Quaternions are float arrays of shape (..., 4) in the order w, x, y, z;
a polynomial f(q) = sum q^n a_n is an (n + 1, 4) array of right
coefficients.  Nothing here calls the library, so a check built on it
cannot inherit a library bug.
"""

from __future__ import annotations

import numpy as np

ONE = np.array([1.0, 0.0, 0.0, 0.0])
I = np.array([0.0, 1.0, 0.0, 0.0])


def hmul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hamilton product, broadcasting over leading axes."""
    pw, px, py, pz = np.moveaxis(p, -1, 0)
    qw, qx, qy, qz = np.moveaxis(q, -1, 0)
    return np.stack([
        pw * qw - px * qx - py * qy - pz * qz,
        pw * qx + px * qw + py * qz - pz * qy,
        pw * qy - px * qz + py * qw + pz * qx,
        pw * qz + px * qy - py * qx + pz * qw,
    ], axis=-1)


def conj(q: np.ndarray) -> np.ndarray:
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def inverse(q: np.ndarray) -> np.ndarray:
    return conj(q) / np.sum(q * q, axis=-1, keepdims=True)


def norm(q: np.ndarray) -> float:
    return float(np.linalg.norm(q))


def imag_unit(q: np.ndarray) -> np.ndarray:
    im = q * np.array([0.0, 1.0, 1.0, 1.0])
    return im / np.linalg.norm(im)


def star(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Star product of right-coefficient polynomials: c_n = sum a_k b_{n-k}."""
    out = np.zeros((len(a) + len(b) - 1, 4))
    for k in range(len(a)):
        out[k:k + len(b)] += hmul(a[k], b)
    return out


def linear(alpha: np.ndarray) -> np.ndarray:
    """The monic factor q - alpha."""
    return np.stack([-alpha, ONE])


def evaluate(coeffs: np.ndarray, q: np.ndarray) -> np.ndarray:
    """f(q) = sum q^n a_n by Horner's rule, multiplying by q on the left."""
    acc = np.zeros(4)
    for a in coeffs[::-1]:
        acc = hmul(q, acc) + a
    return acc


def relative_residual(coeffs: np.ndarray, q: np.ndarray) -> float:
    """|f(q)| over sum |a_n| |q|^n, the size of the terms that cancel."""
    r = norm(q)
    bound = sum(norm(a) * r ** n for n, a in enumerate(coeffs))
    return norm(evaluate(coeffs, q)) / bound


def quadratic_remainder(coeffs: np.ndarray, x: float, y: float) -> float:
    """Remainder of f divided by (q - x)^2 + y^2, relative to f's scale.

    The divisor is real, so each of the four real component polynomials
    is divided on its own.
    """
    divisor = [1.0, -2.0 * x, x * x + y * y]
    worst = 0.0
    for comp in range(4):
        _, rem = np.polydiv(coeffs[::-1, comp], divisor)
        worst = max(worst, float(np.max(np.abs(rem))))
    scale = float(np.max(np.abs(coeffs))) * (1.0 + x * x + y * y) ** (len(coeffs) / 2)
    return worst / scale


def f_par(q: np.ndarray) -> np.ndarray:
    """q^2 + qi."""
    return hmul(q, q) + hmul(q, I)


def from_complex_pair(w1: complex, w2: complex) -> np.ndarray:
    """q = w1 + w2 j."""
    return np.array([w1.real, w1.imag, w2.real, w2.imag])


def chart_point(u: complex, v: complex) -> np.ndarray:
    """(1 + uj)^-1 v (1 + uj)."""
    qu = from_complex_pair(1.0, u)
    return hmul(hmul(inverse(qu), from_complex_pair(v, 0.0)), qu)


def twistor_affine(z: np.ndarray) -> np.ndarray:
    """The affine point q1^-1 q2 of [Z0 + Z1 j, Z2 + Z3 j]."""
    q1 = from_complex_pair(z[0], z[1])
    q2 = from_complex_pair(z[2], z[3])
    return hmul(inverse(q1), q2)


def quartic_k(z: np.ndarray) -> complex:
    """(Z1 Z2 - Z0 Z3)^2 + 2 Z0 Z1 (Z1 Z2 + Z0 Z3)."""
    z0, z1, z2, z3 = z
    return (z1 * z2 - z0 * z3) ** 2 + 2.0 * z0 * z1 * (z1 * z2 + z0 * z3)


def quartic_discriminant(c: np.ndarray) -> float:
    """Discriminant of R(v) = v^4 + (1 - 2 x0) v^2 - 2 x1 v + |c|^2 from its roots."""
    roots = np.roots([1.0, 0.0, 1.0 - 2.0 * c[0], -2.0 * c[1], float(c @ c)])
    d = 1.0 + 0j
    for a in range(4):
        for b in range(a + 1, 4):
            d *= (roots[a] - roots[b]) ** 2
    return float(d.real)
