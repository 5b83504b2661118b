"""Check that two source trees give byte-identical answers.

Runs the inputs of one benchmark workload through the library of this
checkout and through the library under OTHER_SRC (the `src` directory
of another checkout, for example the parent commit), each in its own
interpreter, and compares one JSON line per item as bytes.

- `zeros` (the default): every polynomial of `bench/inputs.zeros_items`
  (1000 per seed) goes through `parse_polynomial` or
  `RegularSeries.from_json` and `zeros`.  The line holds the loaded
  coefficients and `zeros(f).to_json()`, or the exception `zeros`
  raised.
- `geometry`: every target c of `bench/inputs.geometry_items` (2000
  per seed).  The line holds the exit code and output of
  `sliceregular classify c`, and at each preimage p of c the results
  of `rank_classify`, `induced_ocs` (the value and unit, or the
  exception type and message) and `differential_at` (the matrix and
  any warning), for q -> q^2 + qi.  The twistor layer is compared at p
  too: `eval_series` there, the chart point (u, v) of `phi_inverse`,
  and `lift` at (u, v) and `twistor_transform` at v as JSON, or the
  exception one of them raised.
- `parse`: every expression e of `zeros_items` and every prefix of it
  that ends at a token boundary goes through `parse_polynomial`, so the
  parser's error paths are compared too, and then the negated variant
  `-(e)-1`, which subtracts a shorter series from one with -0.0
  components.  The line of an item lists, text by text, the
  `ParseError` message or the first 16 hex digits of a sha256 of the
  parsed coefficients (a JSON-format item has no texts).
- `paper`: the 14 verify suites at the acceptance seed and sample
  counts, and `figure fig1` and `figure fig2 --grid 60`, as
  `bench/inputs.py` lists them.  The line of a suite holds its
  summary, the line of a figure the exit code and the sha256 of its
  CSV.  The items do not depend on the seed, so give one seed.

    python3 tools/zeros_identity.py OTHER_SRC [--workload zeros] [--seeds 1-10]

Exits 0 when every line matches, 1 at the first difference.
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
COUNT = {"zeros": 1000, "geometry": 2000, "parse": 1000, "paper": 16}
# Token ends as the expression grammar of sliceregular.parsing defines
# them; kept here so that both trees cut the same prefixes.
TOKEN = re.compile(r"[0-9.]+(?:[eE][+-]?[0-9]+)?|[-+*^()qijk]|\S")


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _dump_zeros(seeds: list[int]) -> None:
    """Print one JSON line per item: coefficients and answer."""
    from inputs import zeros_items
    from sliceregular import RegularSeries, parse_polynomial, zeros

    for seed in seeds:
        for item in zeros_items(seed, COUNT["zeros"]):
            req = item["request"]
            if req["format"] == "json":
                f = RegularSeries.from_json(json.loads(req["text"]))
            else:
                f = parse_polynomial(req["text"])
            try:
                answer = zeros(f).to_json()
            except ValueError as exc:
                answer = f"{type(exc).__name__}: {exc}"
            print(json.dumps([[c.to_json() for c in f.coeffs], answer]))


def _dump_geometry(seeds: list[int]) -> None:
    """Print one JSON line per target: classify, then each preimage."""
    from inputs import geometry_items
    from sliceregular import (Quaternion, differential_at, eval_series,
                              induced_ocs, lift, phi_inverse, preimages,
                              rank_classify, twistor_transform)
    from sliceregular.cli import main
    from sliceregular.parabola import F_PAR

    for seed in seeds:
        for item in geometry_items(seed, COUNT["geometry"]):
            c = item["request"]["c"]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["classify", *map(repr, c)])
            line = [code, out.getvalue()]
            for p in preimages(Quaternion(*c)):
                rc = rank_classify(F_PAR, p)
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
                             eval_series(F_PAR, p).to_json(), twistor])
            print(json.dumps(line))


def _dump_parse(seeds: list[int]) -> None:
    """Print one JSON line per item: the outcome of each text."""
    from inputs import zeros_items
    from sliceregular import ParseError, parse_polynomial

    for seed in seeds:
        for item in zeros_items(seed, COUNT["parse"]):
            req = item["request"]
            e = req["text"]
            texts = ([] if req["format"] == "json" else
                     [e[:m.end()] for m in TOKEN.finditer(e)] + [f"-({e})-1"])
            line = []
            for text in texts:
                try:
                    coeffs = [c.to_json() for c in parse_polynomial(text).coeffs]
                except ParseError as exc:
                    line.append(str(exc))
                    continue
                digest = hashlib.sha256(json.dumps(coeffs).encode()).hexdigest()
                line.append(digest[:16])
            print(json.dumps(line))


def _dump_paper(seeds: list[int]) -> None:
    """Print one JSON line per suite summary and per figure digest."""
    from inputs import ACCEPTANCE_SEED, PAPER_FIGURES, PAPER_SUITES
    from sliceregular.cli import main
    from sliceregular.verify import run_suite

    for _ in seeds:
        for name, samples in PAPER_SUITES:
            result = run_suite(name, seed=ACCEPTANCE_SEED, samples=samples)
            print(json.dumps([name, result.summary()]))
        for name, argv in PAPER_FIGURES:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
            print(json.dumps([name, code, digest]))


def _run(src: str, workload: str, seeds: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--dump",
                          "--workload", workload, "--seeds", seeds], env=env,
                         check=True, capture_output=True, text=True)
    return out.stdout.splitlines()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("other_src", nargs="?")
    ap.add_argument("--workload", choices=sorted(COUNT), default="zeros")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--dump", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.dump:
        sys.path.insert(0, os.path.join(ROOT, "bench"))
        dump = {"zeros": _dump_zeros, "geometry": _dump_geometry,
                "parse": _dump_parse, "paper": _dump_paper}[args.workload]
        dump(_seeds(args.seeds))
        return 0
    if args.other_src is None:
        ap.error("OTHER_SRC is required")
    ours = _run(os.path.join(ROOT, "src"), args.workload, args.seeds)
    theirs = _run(args.other_src, args.workload, args.seeds)
    count = COUNT[args.workload]
    if len(ours) != len(theirs):
        print(f"item counts differ: {len(ours)} here, {len(theirs)} there")
        return 1
    for n, (a, b) in enumerate(zip(ours, theirs)):
        if a != b:
            print(f"item {n} (seed {_seeds(args.seeds)[n // count]}, "
                  f"index {n % count}) differs:\n  here:  {a}\n  there: {b}")
            return 1
    digest = hashlib.sha256("\n".join(ours).encode()).hexdigest()
    print(f"{len(ours)} items byte-identical, sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
