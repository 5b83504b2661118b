"""Benchmark for sliceregular: one closed-loop client, one process, one thread.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {paper,zeros-stream,geometry-stream}
                         --seed N --seconds S --trace {0,1}

The seed makes the inputs; the library sees only those inputs.  A run
repeats passes over them until S seconds have gone by, checks every
answer against the numpy reference, prints a summary and, as its last
line, one JSON object.  With --trace 0 that object holds the end-to-end
metrics; with --trace 1 it holds the per-layer metrics, taken from
traced passes that alternate with untraced ones.  Spans are written to
.bench_out/ at the end of a traced run.  End-to-end times are
calibrated against a fixed piece of work (calibration.py), because the
shared test machine's speed drifts by up to 1.8x; bench/README.md
describes the workloads, checks and metrics.
"""

from __future__ import annotations

import argparse
import os
import sys

# One client thread: keep BLAS to a single thread, in this process and
# in the set-up probes it starts.  Must happen before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import calibration  # noqa: E402
import inputs  # noqa: E402
from tracing import NullTracer, Tracer, durations, layer_stats  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("paper", "zeros-stream", "geometry-stream")
# Requests in one pass of each stream: enough distinct inputs that the
# slowest 1% is not a handful of polynomials, few enough to generate fast.
STREAM_ITEMS = {"zeros-stream": 1000, "geometry-stream": 2000}
SETUP_PROBES = 11
# Peak memory is read when this many untraced passes have ended: a fixed
# amount of work, after which it has settled (the first pass's peak
# depends on the order of the inputs) and before the harness's own
# per-request records, which grow with the requests served, count.
RSS_PASSES = 2

ZEROS_BUCKETS = (("deg01-04", 1, 4), ("deg05-08", 5, 8),
                 ("deg09-12", 9, 12), ("deg13-16", 13, 16))
CALL_MS = ("parsing.parse_polynomial", "regular_fn.from_json",
           "regular_fn.zeros", "differential.rank_classify",
           "ocs.induced_ocs", "twistor.lift", "twistor.twistor_project",
           "parabola.preimages", "parabola.fiber_intersections",
           "parabola.discriminant_D", "parabola.j_plus", "parabola.j_minus",
           "parabola.quartic_K")
CALL_P50 = ("regular_fn.zeros", "quat_core.phi_inverse")


def make_items(workload: str, seed: int) -> list[dict]:
    if workload == "paper":
        return inputs.paper_items(seed)
    if workload == "zeros-stream":
        return inputs.zeros_items(seed, STREAM_ITEMS[workload])
    return inputs.geometry_items(seed, STREAM_ITEMS[workload])


def measure_setup(workload: str, request: dict) -> float:
    """Median set-up time over fresh interpreters; each serves `request` once.

    Each probe's time is scaled to the reference machine speed by the
    calibrations the probe takes right after it (see calibration.py).
    """
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload],
            input=json.dumps(request), capture_output=True, text=True,
            cwd=ROOT, timeout=120, check=True)
        setup, cal = map(float, proc.stdout.split())
        times.append(setup * calibration.REFERENCE_S / cal)
    return statistics.median(times)


class Run:
    """The counts and timings one run collects."""

    def __init__(self):
        # (pass, item, traced, start, end)
        self.samples: list[tuple[int, int, bool, float, float]] = []
        self.calibrator = calibration.Calibrator()
        self.complete = {False: [], True: []}  # pass numbers run to the end
        # (first, end) indices into the tracer's spans of each complete traced pass
        self.traced_passes: list[tuple[int, int]] = []
        self.requests = 0
        # item index -> every failure reason its answers got.  `attempted`
        # and `failed` count items, not requests, so that for a given seed
        # they do not depend on how many passes fit into the run.
        self.failed_items: dict[int, set[str]] = {}
        self.short_traced = 0  # short answers in complete traced passes
        self.requests_traced = 0
        self.peak_rss_mb = 0.0  # when RSS_PASSES untraced passes have ended


def measure(workloads, workload: str, items: list[dict], seconds: float,
            trace: bool):
    """Closed loop over passes of `items` until `seconds` have gone by.

    Each answer is checked in full the first time it is seen; a later
    pass whose answer has the same repr reuses that verdict, so the
    client's own checking takes little of the measured time.  The loop
    completes at least two passes, so that pass times and the memory
    reading exist: both untraced, or with tracing one of each.  After
    that it may stop mid-pass.
    """
    serve, check = workloads.SERVE[workload], workloads.CHECK[workload]
    null, tracer = NullTracer(), Tracer()
    run = Run()
    verdicts: dict[int, tuple[str, str | None]] = {}
    serve(items[0]["request"], null)  # warm-up
    min_passes = 2
    passes = 0
    with run.calibrator:
        run.calibrator.sample()
        deadline = time.perf_counter() + seconds
        while passes < min_passes or time.perf_counter() < deadline:
            traced = trace and passes % 2 == 1
            tr = tracer if traced else null
            first_span, short = len(tracer.spans), 0
            for index, item in enumerate(items):
                if passes >= min_passes and time.perf_counter() >= deadline:
                    break
                t0 = time.perf_counter()
                try:
                    with tr.span("request"):
                        out = serve(item["request"], tr)
                except Exception as exc:  # counted as a failure, the run goes on
                    t1 = time.perf_counter()
                    verdict = f"{type(exc).__name__}: {exc}"
                else:
                    t1 = time.perf_counter()
                    seen = repr(out)
                    if index in verdicts and verdicts[index][0] == seen:
                        verdict = verdicts[index][1]
                    else:
                        verdict = check(item, out)
                        verdicts[index] = (seen, verdict)
                run.calibrator.sample()
                run.samples.append((passes, index, traced, t0, t1))
                run.requests += 1
                if verdict is not None:
                    run.failed_items.setdefault(index, set()).add(verdict)
                if traced:
                    run.requests_traced += 1
                    short += verdict in workloads.SHORT
            else:
                run.complete[traced].append(passes)
                if traced:
                    run.traced_passes.append((first_span, len(tracer.spans)))
                    run.short_traced += short
                elif len(run.complete[False]) == RSS_PASSES:
                    run.peak_rss_mb = resource.getrusage(
                        resource.RUSAGE_SELF).ru_maxrss / 1024.0
            passes += 1
    return run, tracer


def normalized(run: Run) -> list[tuple[int, int, bool, float]]:
    """(pass, item, traced, latency at the reference machine speed) per request."""
    return [(pass_no, index, traced, run.calibrator.latency(t0, t1))
            for pass_no, index, traced, t0, t1 in run.samples]


def pass_times(samples, traced: bool, complete: list[int]) -> list[float]:
    return [sum(t for p, _, tr, t in samples if p == n and tr == traced)
            for n in complete]


def end_to_end(run: Run, setup_s: float) -> dict:
    """Each input's latency is the median of its calibrated untraced samples.

    Calibration removes most of the machine's slow stretches; the median
    over passes removes single slow requests and the calibration error
    of long requests, during which the machine's speed can change.  The
    spread between inputs, which the inputs cause, stays in the
    percentiles.
    """
    by_item: dict[int, list[float]] = {}
    for _, index, traced, t in normalized(run):
        if not traced:
            by_item.setdefault(index, []).append(t)
    lat = [statistics.median(samples) for samples in by_item.values()]
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
        "wall_s": (sum(lat), "s"),
        "p50_ms": (statistics.median(lat) * 1e3, "ms"),
        # inclusive: with paper's 16 inputs the default method extrapolates
        # past the slowest one
        "p99_ms": (statistics.quantiles(lat, n=100, method="inclusive")[98] * 1e3, "ms"),
        "requests_per_s": (len(lat) / sum(lat), "1/s"),
    }


def per_layer(run: Run, tracer: Tracer) -> dict:
    """Per-layer metrics from the complete traced passes only.

    `calls` and `ms` are per pass, so for a given seed `calls` is exact
    and neither depends on how many passes fit into the run.
    """
    passes = len(run.traced_passes)
    spans = [s for first, end in run.traced_passes
             for s in tracer.spans[first:end]]
    by_name = durations(spans)
    out = {}
    for name in CALL_MS:
        calls, ms, _ = layer_stats(by_name.get(name, []))
        out[name + ".calls"] = (calls / passes, "count")
        out[name + ".ms"] = (ms / passes, "ms")
    for name in CALL_P50:
        calls, _, us = layer_stats(by_name.get(name, []))
        out[name + ".calls"] = (calls / passes, "count")
        out[name + ".us_p50"] = (us, "us")
    zeros_spans = [(s[6]["degree"], s[5] - s[4]) for s in spans
                   if s[3] == "regular_fn.zeros"]
    for label, lo, hi in ZEROS_BUCKETS:
        _, _, us = layer_stats([d for deg, d in zeros_spans if lo <= deg <= hi])
        out[f"regular_fn.zeros.us_p50.{label}"] = (us, "us")
    zeros_calls = len(zeros_spans)
    out["regular_fn.zeros.short_ratio"] = (
        run.short_traced / zeros_calls if zeros_calls else 0.0, "ratio")
    for suite, _ in inputs.PAPER_SUITES:
        _, _, us = layer_stats(by_name.get("verify.run_suite." + suite, []))
        out[f"verify.run_suite.{suite}.s"] = (us / 1e6, "s")
    for fig, _ in inputs.PAPER_FIGURES:
        _, _, us = layer_stats(by_name.get("cli.main.figure-" + fig, []))
        out[f"cli.main.figure-{fig}.ms"] = (us / 1e3, "ms")
    samples = normalized(run)
    out["trace.overhead_ratio"] = (
        statistics.median(pass_times(samples, True, run.complete[True]))
        / statistics.median(pass_times(samples, False, run.complete[False]))
        - 1.0, "ratio")
    return out


def git_sha() -> str:
    """The checked-out commit; 'unknown' when the checkout has no .git of its own."""
    if not (ROOT / ".git").exists():  # else git would report an enclosing repository
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(args, run: Run, items: list[dict]) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas.get("name", "unknown"),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS), "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "items_per_pass": len(items), "requests": run.requests,
        "requests_traced": run.requests_traced,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sliceregular" / "__init__.py").is_file():
        print(f"benchmark: no library source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    items = make_items(args.workload, args.seed)
    setup_s = 0.0 if args.trace else measure_setup(
        args.workload, inputs.SETUP_REQUESTS[args.workload])
    run, tracer = measure(workloads, args.workload, items, args.seconds,
                          bool(args.trace))
    if args.trace:
        metrics = per_layer(run, tracer)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = end_to_end(run, setup_s)

    # Every item is served at least once: the first two passes complete.
    attempted, failed = len(items), len(run.failed_items)
    reasons: dict[str, int] = {}
    for item_reasons in run.failed_items.values():
        for reason in item_reasons:
            reasons[reason] = reasons.get(reason, 0) + 1
    print("environment " + json.dumps(environment(args, run, items)))
    raw = [t1 - t0 for _, _, traced, t0, t1 in run.samples if not traced]
    print(f"{'calibration_median_us':45s} {statistics.median(run.calibrator.durations) * 1e6:14.6g} us"
          f"  (reference {calibration.REFERENCE_S * 1e6:g} us)")
    print(f"{'raw_p50_ms':45s} {statistics.median(raw) * 1e3:14.6g} ms")
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:14.6g} {unit}")
    print(f"{'fail_ratio':45s} {failed / attempted:14.6g} ratio"
          f"  ({failed} of {attempted} items)")
    for reason, count in sorted(reasons.items()):
        print(f"  failed x{count}: {reason}")
    unexpected = set(reasons) - set(workloads.KNOWN)
    print(json.dumps({
        "correct": not unexpected, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
