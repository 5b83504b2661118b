"""Seeded input generation for the three workloads.

Every item is a plain dict.  The "request" entry is all the program
sees; the remaining entries are what the benchmark needs to check the
answer.  The same seed gives the same items, in the same order.
"""

from __future__ import annotations

import json
import math

import numpy as np

import reference as ref

# (suite, samples) at the acceptance seed and sample counts of
# tests/test_acceptance.py
ACCEPTANCE_SEED = 2024
PAPER_SUITES = (
    ("twistor-commute", 1000), ("quartic-membership", 1000),
    ("klein-reality", 1000), ("transform-spot", 20),
    ("transform-roundtrip", 200), ("gradient", 200),
    ("rank-equivalence", 500), ("zeros-multiplicity", 500),
    ("double-cover", 1000), ("jjjj", 100), ("discriminant-resultant", 1000),
    ("fiber-classification", 20), ("nullstellensatz", 40),
    ("singular-locus", 100),
)
PAPER_FIGURES = (("fig1", ["figure", "fig1"]),
                 ("fig2", ["figure", "fig2", "--grid", "60"]))

ZEROS_FAMILIES = (("dense", 0.30), ("linear", 0.30), ("spherical", 0.25),
                  ("repeated", 0.15))
GEOMETRY_FAMILIES = (("generic", 0.70), ("plane", 0.10), ("paraboloid", 0.08),
                     ("parabola", 0.08), ("focus", 0.04))
MAX_DEGREE = 16

# The request a set-up probe serves after the import.  It is fixed, so
# that set-up time does not depend on the seed.
SETUP_REQUESTS = {
    "paper": {"figure": "fig1", "argv": ["figure", "fig1"]},
    "zeros-stream": {"format": "expr", "text": "(q-i)*(q-j)*(q^2+1)", "degree": 4},
    "geometry-stream": {"c": [1.0, 0.5, 0.5, -0.25]},
}


def paper_items(seed: int) -> list[dict]:
    """One pass: every suite as tests/test_acceptance.py runs it, and both figures.

    The suites keep the acceptance seed, so a pass is exactly the
    acceptance contract; drawing their seeds changed the random degrees
    in zeros-multiplicity and moved the pass time by 8% from seed to
    seed.  `seed` sets the order of the 16 requests.
    """
    items = [{"request": {"suite": name, "samples": samples,
                          "seed": ACCEPTANCE_SEED}}
             for name, samples in PAPER_SUITES]
    items += [{"request": {"figure": name, "argv": argv}}
              for name, argv in PAPER_FIGURES]
    order = np.random.default_rng(seed).permutation(len(items))
    return [items[k] for k in order]


def _pick(rng, families) -> str:
    names = [n for n, _ in families]
    return names[int(rng.choice(len(names), p=[p for _, p in families]))]


def _num(v: float) -> float:
    """Round to the 12 significant digits the expression string carries."""
    return float(_text(v))


def _text(v: float) -> str:
    return np.format_float_positional(v, precision=12, unique=False,
                                      fractional=False, trim="-")


def _signed(v: float) -> str:
    return ("-" if v < 0 else "+") + _text(abs(v))


def _quat_text(a: np.ndarray) -> str:
    return (f"({_text(a[0])}{_signed(a[1])}i{_signed(a[2])}j"
            f"{_signed(a[3])}k)")


def _random_quat(rng, scale: float) -> np.ndarray:
    return np.array([_num(scale * t) for t in rng.uniform(-1.0, 1.0, 4)])


def _same_sphere(rng, alpha: np.ndarray) -> np.ndarray:
    """A point of alpha's sphere other than alpha and its conjugate."""
    im = float(np.linalg.norm(alpha[1:]))
    unit = rng.normal(size=3)
    unit /= np.linalg.norm(unit)
    return np.array([alpha[0]] + [_num(im * u) for u in unit])


def _linear_factor(alpha: np.ndarray) -> tuple[str, np.ndarray]:
    return f"(q-{_quat_text(alpha)})", ref.linear(alpha)


def _quadratic_factor(rng, scale: float) -> tuple[str, np.ndarray]:
    x = scale * rng.uniform(-1.0, 1.0)
    y = scale * rng.uniform(0.2, 1.0)
    b, c = _num(-2.0 * x), _num(x * x + y * y)
    coeffs = np.array([[c, 0, 0, 0], [b, 0, 0, 0], [1.0, 0, 0, 0]])
    return f"(q^2{_signed(b)}q{_signed(c)})", coeffs


def _product(rng, family: str, degree: int, root_scale: float):
    """Factors (text, coefficients, power) whose product has the given degree.

    Also says whether f^s has a repeated root: it does for a spherical
    factor, a repeated factor and two linear factors on one sphere.
    """
    factors = []
    repeated_root = family in ("spherical", "repeated")
    if family == "spherical":
        for _ in range(int(rng.integers(1, min(3, degree // 2) + 1))):
            factors.append((*_quadratic_factor(rng, root_scale), 1))
    elif family == "repeated":
        if degree >= 4 and rng.random() < 0.4:
            power = int(rng.integers(2, min(3, degree // 2) + 1))
            factors.append((*_quadratic_factor(rng, root_scale), power))
        else:
            power = int(rng.integers(2, min(4, degree) + 1))
            alpha = _random_quat(rng, root_scale)
            if rng.random() < 0.3:
                alpha[1:] = 0.0
            factors.append((*_linear_factor(alpha), power))
    used = sum((len(c) - 1) * p for _, c, p in factors)
    alphas = [_random_quat(rng, root_scale) for _ in range(degree - used)]
    if family == "linear" and len(alphas) >= 2 and rng.random() < 0.3:
        alphas[1] = _same_sphere(rng, alphas[0])
        repeated_root = True
    factors += [(*_linear_factor(a), 1) for a in alphas]
    order = rng.permutation(len(factors))
    return [factors[k] for k in order], repeated_root


def zeros_item(rng, family: str, degree: int, as_json: bool) -> dict:
    scale = _num(10.0 ** rng.uniform(-3.0, 3.0))
    root_scale = 10.0 ** rng.uniform(-0.5, 0.5)
    repeated_root = False
    if family == "dense":
        coeffs = np.array([_random_quat(rng, scale) for _ in range(degree + 1)])
        while np.linalg.norm(coeffs[-1]) < 0.1 * scale:
            coeffs[-1] = _random_quat(rng, scale)
        text = "+".join(f"q^{n}*{_quat_text(a)}" if n else _quat_text(a)
                        for n, a in reversed(list(enumerate(coeffs))))
    else:
        coeffs = np.array([[scale, 0.0, 0.0, 0.0]])
        parts = [_text(scale)]
        factors, repeated_root = _product(rng, family, degree, root_scale)
        for part, fc, power in factors:
            parts.append(part if power == 1 else f"{part}^{power}")
            for _ in range(power):
                coeffs = ref.star(coeffs, fc)
        text = "*".join(parts)
    if as_json:
        text = json.dumps({"coeffs": coeffs.tolist(), "radius": "inf"})
    return {"request": {"format": "json" if as_json else "expr", "text": text,
                        "degree": degree},
            "family": family, "repeated_root": repeated_root,
            "coeffs": coeffs.tolist()}


def zeros_items(seed: int, count: int) -> list[dict]:
    """`count` polynomials in a random order, with a fixed composition.

    Each family gets its share of the items, spread evenly over the
    degrees it can have and over the two formats.  Only the order and
    the coefficients depend on the seed: latency depends so much on
    degree that a drawn degree mix moved the median latency by 13%
    from seed to seed.
    """
    rng = np.random.default_rng(seed)
    plan = []
    for family, share in ZEROS_FAMILIES:
        low = 1 if family in ("dense", "linear") else 2
        span = MAX_DEGREE - low + 1
        plan += [(family, low + k % span, (k // span) % 2 == 1)
                 for k in range(round(share * count))]
    return [zeros_item(rng, *plan[k]) for k in rng.permutation(len(plan))]


def geometry_item(rng) -> dict:
    family = _pick(rng, GEOMETRY_FAMILIES)
    if family == "generic":
        c = rng.uniform(-2.0, 2.0, 4)
    elif family == "plane":
        c = np.array([rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0), 0.0, 0.0])
    elif family == "paraboloid":
        r, a = rng.uniform(0.05, 1.2), rng.uniform(0.0, 2.0 * math.pi)
        c = np.array([0.25 - r * r, 0.0, r * math.cos(a), r * math.sin(a)])
    elif family == "parabola":
        t = rng.uniform(-1.5, 1.5)
        c = np.array([t * t, t, 0.0, 0.0])
    else:
        c = np.array([0.25, 0.0, 0.0, 0.0])
    return {"request": {"c": [float(v) for v in c]}, "family": family}


def geometry_items(seed: int, count: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    return [geometry_item(rng) for _ in range(count)]
