"""Check that two source trees give byte-identical answers.

Runs the inputs of one benchmark workload through the library of this
checkout and through the library under OTHER_SRC (the `src` directory
of another checkout, for example the parent commit), each in its own
interpreter, and compares one JSON line per item as bytes.

- `zeros` (the default): every polynomial of `bench/inputs.zeros_items`
  (1000 per seed) goes through `parse_polynomial` or
  `RegularSeries.from_json` and `zeros`.  The line holds the loaded
  coefficients and `zeros(f).to_json()`, or the exception `zeros`
  raised, and the warnings it gave.
- `geometry`: every target c of `bench/inputs.geometry_items` (2000
  per seed).  The line holds the exit code of `sliceregular classify c`
  and its report, parsed from JSON so that --rtol compares its numbers
  (the printed text where it exits nonzero), and at each preimage p of
  c the results of `rank_classify`, `induced_ocs` (the value and unit,
  or the exception type and message) and `differential_at` (the matrix
  and the warnings it raised: none, so a warning that appears there
  shows as a difference) and `is_singular` (the verdict and the
  witness), for q -> q^2 + qi.  The twistor layer is compared at p too:
  `eval_series` there, the chart point (u, v) of `phi_inverse`, and
  `lift` at (u, v) and `twistor_transform` at v as JSON, or the
  exception one of them raised.
- `parse`: every expression e of `zeros_items` and every prefix of it
  that ends at a token boundary goes through `parse_polynomial`, so the
  parser's error paths are compared too, and then the negated variant
  `-(e)-1`, which subtracts a shorter series from one with -0.0
  components.  The line of an item lists, text by text, the
  `ParseError` message or the first 16 hex digits of a sha256 of the
  parsed coefficients (a JSON-format item has no texts).  After the
  1000 items of a seed come the 11 texts of `SIGN_TEXTS`, the same for
  every seed, one line each: signs before a factor, after `*` and in
  runs, up to 3000 long.
- `adversarial`: a fixed list of polynomials, the same for every seed,
  that reach the rare paths of `zeros`: the regroupings at radii 1/64
  as large and at 16 GROUP_TOL, the Newton-step gate and the
  `ConditioningWarning`, which benchmark items reach about 10 times in
  10,000.  The list holds the named inputs of
  ROADMAP item 1 (the four shrunk hypothesis draws of
  `test_zeros_match_exact_factorization`, two triple zeros on spheres
  0.5% apart, `(q^2+1.00002q+1)(q^2+0.99998q+1)` and `(q+i)^34`), four
  on which the scaled monic's constant term underflows to 0
  (`q^2+1e308q+1`, `q^2+1e200q+1`, `(q-1e200)(q-1e-200)` and
  `q^3+1e150q^2+q+1e-150`), then 300 products drawn from a fixed
  generator: a lead coefficient times two or three repeated factors of
  multiplicity n = 2-4, linear (q - a)^n or, a quarter of them,
  spherical ((q - x)^2 + y^2)^(n/2) (n/2 rounded down), each on a
  sphere 0.5-5% from the one before it.  The line of an item is the
  `zeros` line.
  Give one seed.
- `paper`: the 14 verify suites at the acceptance seed and sample
  counts, and `figure fig1` and `figure fig2 --grid 60`, as
  `bench/inputs.py` lists them.  The line of a suite holds its
  summary and the sha256 of every check it made, in order, as the
  pair (verdict, residual): whether the residual was within its
  tolerance and the residual for `SuiteResult.within`, the verdict and
  0.0 for `SuiteResult.check`, so a residual that moves below the
  maximum shows too.  Under --rtol it holds the verdict, the failure labels
  and that list of pairs itself instead, so that residuals that moved
  in the last bits can agree within R.  The line of a figure holds the exit code and the sha256
  of its CSV.  The items do not depend on the seed, so give one seed.

`zeros(f)` is `zeros_many([f])[0]`, so the workloads exercise the zero
finder at two batch sizes: `paper` solves 500 members in one call (the
`zeros-multiplicity` suite's `zeros_many` call), while `zeros` and
`adversarial` solve one member per call.  `tests/test_regular_fn.py`
holds a batch of many members to the answers of one call each.

The twistor layer runs at batch sizes of its own.  In `paper`,
`twistor-commute` lifts its 1000 samples in two `lift` calls of 500
series each, one per row, and `transform-roundtrip` transforms its 200
curves in one `twistor_transform` call per sample count (2d + 6 points
for degree d = 1-6, so six calls of about 33 series) and reconstructs
them in one `reconstruct_many` call, which stacks the fits of each
sample count.  `geometry` lifts and transforms one point of one series
per call.  `tests/test_twistor.py` holds stacked rows to the calls of
one series each, and `reconstruct_many` to `reconstruct` per curve.

    python3 tools/zeros_identity.py OTHER_SRC [--workload zeros] [--seeds 1-10]
                                    [--rtol R]

Prints every differing item and their count.  Exits 0 when every line
matches, 1 otherwise.  With --rtol R two lines that differ as bytes
still match when they agree within R: every number x of one is within
R (1 + |x|) of the other's, strings are equal, and a list of objects,
such as the points or the spheres of a zero set, is compared as a
multiset of entries.  The tool then prints how many items are
byte-identical, how many agree within R and how many differ.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Texts where signs stand before a factor, for the parse workload.
SIGN_TEXTS = ["q*-q^2", "2*-q^2", "q*-i^2", "q*+q", "q^2*-(q-i)^2", "-2q",
              "-(q-i)*(q-j)", "--q", "+-+q", "-" * 3000 + "q", "q*" + "-" * 3000 + "q"]
COUNT = {"zeros": 1000, "geometry": 2000, "parse": 1000 + len(SIGN_TEXTS), "paper": 16,
         "adversarial": 311}
# Token ends as the expression grammar of sliceregular.parsing defines
# them; kept here so that both trees cut the same prefixes.
TOKEN = re.compile(r"[0-9.]+(?:[eE][+-]?[0-9]+)?|[-+*^()qijk]|\S")


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _print_zeros(f) -> None:
    """Print f's coefficients, zeros(f) or its exception, and its warnings."""
    from sliceregular import zeros

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            answer = zeros(f).to_json()
        except ValueError as exc:
            answer = f"{type(exc).__name__}: {exc}"
    print(json.dumps([[c.to_json() for c in f.coeffs], answer,
                      [str(w.message) for w in caught]]))


def _dump_zeros(seeds: list[int]) -> None:
    """Print one JSON line per item: coefficients and answer."""
    from inputs import zeros_items
    from sliceregular import RegularSeries, parse_polynomial

    for seed in seeds:
        for item in zeros_items(seed, COUNT["zeros"]):
            req = item["request"]
            if req["format"] == "json":
                f = RegularSeries.from_json(json.loads(req["text"]))
            else:
                f = parse_polynomial(req["text"])
            _print_zeros(f)


def _adversarial_items() -> list:
    """The polynomials of the adversarial workload, as the module
    docstring lists them."""
    import numpy as np
    from sliceregular import Quaternion, RegularSeries, parse_polynomial, star_mul, star_power

    def product(lead, factors):
        f = RegularSeries.constant(lead)
        for a, n in factors:
            f = star_mul(star_power(RegularSeries.linear(a), n), f)
        return f

    k = Quaternion(0.0, 0.0, 0.0, 1.0)
    lead = 0.25 * k
    a = Quaternion(0.75, 0.0, 0.25, 0.25)
    items = [
        product(lead, [(k, 1), (k, 3), (Quaternion(0.0, 0.0, 0.25, 1.0), 3)]),
        product(lead, [(lead, 1), (Quaternion(0.25, 0.75, 0.25, 1.25), 3),
                       (Quaternion(0.25, 0.0, 0.0, 1.5), 3)]),
        product(lead, [(a, 3), (a, 3), (a, 2)]),
        product(lead, [(Quaternion(0.0, 0.0, 0.75, -0.75), 2),
                       (Quaternion(0.0, 0.0, -0.75, -0.75), 2),
                       (Quaternion(0.0, 0.25, -0.75, 0.75), 3)]),
        product(Quaternion(0.0, 1.75, 0.25, 1.75), [(Quaternion(0.0, 1.75, 0.25, 1.75), 3),
                                                     (Quaternion(0.0, 1.75, 0.0, 1.75), 3)]),
        parse_polynomial("(q^2+1.00002q+1)(q^2+0.99998q+1)"),
        parse_polynomial("(q+i)^34"),
    ] + [parse_polynomial(text) for text in (
        "q^2+1e308q+1", "q^2+1e200q+1", "(q-1e200)(q-1e-200)", "q^3+1e150q^2+q+1e-150")]
    rng = np.random.default_rng(20261020)
    while len(items) < COUNT["adversarial"]:
        lead = Quaternion(*rng.uniform(-2.0, 2.0, 4).tolist())
        x, y = rng.uniform(-1.5, 1.5), rng.uniform(0.25, 1.5)
        f = RegularSeries.constant(lead)
        for _ in range(rng.integers(2, 4)):
            # a sphere 0.5-5% from the last, then a point on it or the sphere
            step = rng.uniform(0.005, 0.05) * np.hypot(x, y)
            angle = rng.uniform(0.0, 2.0 * np.pi)
            x, y = x + step * np.cos(angle), abs(y + step * np.sin(angle))
            n = int(rng.integers(2, 5))
            if rng.uniform() < 0.25:
                quad = RegularSeries.polynomial(Quaternion(x * x + y * y), Quaternion(-2.0 * x),
                                                Quaternion(1.0))
                f = star_mul(star_power(quad, n // 2), f)
            else:
                u = rng.normal(size=3)
                u = (y * u / np.linalg.norm(u)).tolist()
                f = star_mul(star_power(RegularSeries.linear(Quaternion(x, *u)), n), f)
        items.append(f)
    return items


def _dump_adversarial(seeds: list[int]) -> None:
    """Print one JSON line per polynomial of the fixed list."""
    for _ in seeds:
        for f in _adversarial_items():
            _print_zeros(f)


def _dump_geometry(seeds: list[int]) -> None:
    """Print one JSON line per target: classify, then each preimage."""
    from inputs import geometry_items
    from sliceregular import (Quaternion, differential_at, eval_series,
                              induced_ocs, is_singular, lift, phi_inverse,
                              preimages, rank_classify, twistor_transform)
    from sliceregular.cli import main
    from sliceregular.parabola import F_PAR

    for seed in seeds:
        for item in geometry_items(seed, COUNT["geometry"]):
            c = item["request"]["c"]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["classify", *map(repr, c)])
            text = out.getvalue()
            line = [code, json.loads(text) if code == 0 else text]
            for p in preimages(Quaternion(*c)):
                rc = rank_classify(F_PAR, p)
                cert = is_singular(F_PAR, p)
                witness = None if cert.witness is None else cert.witness.to_json()
                try:
                    value, ocs = induced_ocs(F_PAR, p)
                    structure = [value.to_json(), ocs.unit.to_json()]
                except (ValueError, ArithmeticError) as exc:
                    structure = f"{type(exc).__name__}: {exc}"
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    matrix = differential_at(F_PAR, p).to_json()
                try:
                    chart = phi_inverse(p)
                    u, v = chart.u, chart.v
                    twistor = [None if u is None else [u.real, u.imag],
                               [v.real, v.imag], lift(F_PAR, u, v).to_json(),
                               twistor_transform(F_PAR, v).to_json()]
                except (ValueError, ArithmeticError) as exc:
                    twistor = f"{type(exc).__name__}: {exc}"
                line.append([p.to_json(), rc.rank.value, rc.a1.to_json(),
                             rc.a2.to_json(), structure, matrix,
                             [str(w.message) for w in caught],
                             eval_series(F_PAR, p).to_json(), twistor,
                             [cert.singular, witness]])
            print(json.dumps(line))


def _parse_outcome(text: str) -> str:
    """The ParseError message of text, or a digest of its coefficients."""
    from sliceregular import ParseError, parse_polynomial

    try:
        coeffs = [c.to_json() for c in parse_polynomial(text).coeffs]
    except ParseError as exc:
        return str(exc)
    return hashlib.sha256(json.dumps(coeffs).encode()).hexdigest()[:16]


def _dump_parse(seeds: list[int]) -> None:
    """Print one JSON line per item: the outcome of each text."""
    from inputs import zeros_items

    for seed in seeds:
        for item in zeros_items(seed, COUNT["parse"] - len(SIGN_TEXTS)):
            req = item["request"]
            e = req["text"]
            texts = ([] if req["format"] == "json" else
                     [e[:m.end()] for m in TOKEN.finditer(e)] + [f"-({e})-1"])
            print(json.dumps([_parse_outcome(text) for text in texts]))
        for text in SIGN_TEXTS:
            print(json.dumps([_parse_outcome(text)]))


def _dump_paper(seeds: list[int], full: bool = False) -> None:
    """Print one JSON line per suite and per figure digest; with full, a
    suite's line holds its checks instead of their digest."""
    from inputs import ACCEPTANCE_SEED, PAPER_FIGURES, PAPER_SUITES
    from sliceregular.cli import main
    from sliceregular.verify import SuiteResult, run_suite

    checks = []
    check, within = SuiteResult.check, SuiteResult.within

    def recorded(self, ok, label):
        checks.append([bool(ok), 0.0])
        check(self, ok, label)

    def recorded_within(self, residual, tol, label):
        within(self, residual, tol, label)  # counts itself through check
        checks[-1][1] = float(residual)

    SuiteResult.check = recorded
    SuiteResult.within = recorded_within
    for _ in seeds:
        for name, samples in PAPER_SUITES:
            checks.clear()
            result = run_suite(name, seed=ACCEPTANCE_SEED, samples=samples)
            if full:
                print(json.dumps([name, result.passed, result.failures, checks]))
                continue
            digest = hashlib.sha256(json.dumps(checks).encode()).hexdigest()
            print(json.dumps([name, result.summary(), digest]))
        for name, argv in PAPER_FIGURES:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
            print(json.dumps([name, code, digest]))


def _close(a, b, rtol: float) -> bool:
    """Whether two JSON values agree within rtol, as the module docstring says."""
    if isinstance(a, bool) or isinstance(b, bool) or a is None or isinstance(a, str):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(a - b) <= rtol * (1.0 + abs(a))
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(_close(a[k], b[k], rtol) for k in a))
    if not (isinstance(a, list) and isinstance(b, list) and len(a) == len(b)):
        return False
    if a and all(isinstance(t, dict) for t in a):
        rest = list(b)
        for t in a:
            match = next((n for n, u in enumerate(rest) if _close(t, u, rtol)), None)
            if match is None:
                return False
            del rest[match]
        return True
    return all(_close(s, t, rtol) for s, t in zip(a, b))


def _run(src: str, workload: str, seeds: str, rtol: float | None) -> list[str]:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    argv = [sys.executable, os.path.abspath(__file__), "--dump",
            "--workload", workload, "--seeds", seeds]
    if rtol is not None:
        argv += ["--rtol", repr(rtol)]
    out = subprocess.run(argv, env=env, check=True, capture_output=True, text=True)
    return out.stdout.splitlines()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("other_src", nargs="?")
    ap.add_argument("--workload", choices=sorted(COUNT), default="zeros")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--rtol", type=float, default=None,
                    help="also accept lines that agree within this relative tolerance")
    ap.add_argument("--dump", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.dump:
        sys.path.insert(0, os.path.join(ROOT, "bench"))
        seeds = _seeds(args.seeds)
        if args.workload == "paper":
            _dump_paper(seeds, full=args.rtol is not None)
        else:
            {"zeros": _dump_zeros, "geometry": _dump_geometry, "parse": _dump_parse,
             "adversarial": _dump_adversarial}[args.workload](seeds)
        return 0
    if args.other_src is None:
        ap.error("OTHER_SRC is required")
    ours = _run(os.path.join(ROOT, "src"), args.workload, args.seeds, args.rtol)
    theirs = _run(args.other_src, args.workload, args.seeds, args.rtol)
    count = COUNT[args.workload]
    if len(ours) != len(theirs):
        print(f"item counts differ: {len(ours)} here, {len(theirs)} there")
        return 1
    differing = within = 0
    for n, (a, b) in enumerate(zip(ours, theirs)):
        if a == b:
            continue
        if args.rtol is not None and _close(json.loads(a), json.loads(b), args.rtol):
            within += 1
            continue
        differing += 1
        print(f"item {n} (seed {_seeds(args.seeds)[n // count]}, "
              f"index {n % count}) differs:\n  here:  {a}\n  there: {b}")
    if args.rtol is not None:
        print(f"{len(ours) - within - differing} of {len(ours)} items byte-identical, "
              f"{within} agree within {args.rtol:g}, {differing} differ")
        return 1 if differing else 0
    if differing:
        print(f"{differing} of {len(ours)} items differ")
        return 1
    digest = hashlib.sha256("\n".join(ours).encode()).hexdigest()
    print(f"{len(ours)} items byte-identical, sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
