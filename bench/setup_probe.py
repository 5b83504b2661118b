"""Time a fresh interpreter's set-up: import the library, serve one request.

Usage: python3 bench/setup_probe.py WORKLOAD < request.json

Prints the seconds from just before the import to the end of the
request, then the median of calibrations taken right after (see
calibration.py).  Reading the request happens before the clock starts,
so input generation is not part of set-up.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    workload = sys.argv[1]
    request = json.loads(sys.stdin.read())
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    start = time.perf_counter()
    import workloads
    from tracing import NullTracer
    workloads.SERVE[workload](request, NullTracer())
    setup = time.perf_counter() - start
    from calibration import calibrate
    cal = sorted(calibrate() for _ in range(5))[2]
    print(repr(setup), repr(cal))
    return 0


if __name__ == "__main__":
    sys.exit(main())
