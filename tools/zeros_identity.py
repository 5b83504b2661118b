"""Check that two source trees give byte-identical zero sets.

Runs every polynomial of `bench/inputs.zeros_items` (1000 per seed)
through `parse_polynomial` or `RegularSeries.from_json` and `zeros`,
once with the library of this checkout and once with the library
under OTHER_SRC (the `src` directory of another checkout, for example
the parent commit), each in its own interpreter.  For every item it
compares the JSON of the loaded coefficients and of `zeros(f)`, or the
exception `zeros` raised, as bytes.

    python3 tools/zeros_identity.py OTHER_SRC [--seeds 1-10]

Exits 0 when every line matches, 1 at the first difference.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COUNT = 1000


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _dump(seeds: list[int]) -> None:
    """Print one JSON line per item: coefficients and answer."""
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    from inputs import zeros_items
    from sliceregular import RegularSeries, parse_polynomial, zeros

    for seed in seeds:
        for item in zeros_items(seed, COUNT):
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


def _run(src: str, seeds: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--dump",
                          "--seeds", seeds], env=env, check=True,
                         capture_output=True, text=True)
    return out.stdout.splitlines()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("other_src", nargs="?")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--dump", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.dump:
        _dump(_seeds(args.seeds))
        return 0
    if args.other_src is None:
        ap.error("OTHER_SRC is required")
    ours = _run(os.path.join(ROOT, "src"), args.seeds)
    theirs = _run(args.other_src, args.seeds)
    if len(ours) != len(theirs):
        print(f"item counts differ: {len(ours)} here, {len(theirs)} there")
        return 1
    for n, (a, b) in enumerate(zip(ours, theirs)):
        if a != b:
            print(f"item {n} (seed {_seeds(args.seeds)[n // COUNT]}, "
                  f"index {n % COUNT}) differs:\n  here:  {a}\n  there: {b}")
            return 1
    digest = hashlib.sha256("\n".join(ours).encode()).hexdigest()
    print(f"{len(ours)} items byte-identical, sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
