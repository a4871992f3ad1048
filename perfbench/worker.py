"""Fresh-interpreter side of the benchmark: import, warm up, measure.

``run.py`` starts this script once per set-up probe and once for the
measured run, so that set-up time and peak memory belong to one workload:

    python3 perfbench/worker.py --workload NAME --seed N [--seconds S]
                                [--trace 0|1] [--spans FILE] [--probe] [--quick]

It imports ``polydecomp`` from the checkout's ``src`` directory, runs the
discarded warm-up op, prints ``READY``, and then (unless ``--probe``) prints
one JSON line with the measured metrics and every failed check.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="worker.py")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans")
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import numpy
    import polydecomp

    if Path(polydecomp.__file__).resolve().parent != (src / "polydecomp").resolve():
        print(f"error: imported polydecomp from {polydecomp.__file__}", file=sys.stderr)
        return 2

    import workloads

    wl = workloads.make(args.workload, args.seed, args.quick)
    wl.warm_up()
    print("READY", flush=True)
    if args.probe:
        return 0

    if args.trace:
        out = workloads.measure_traced(wl, args.seconds, args.spans)
    else:
        out = workloads.measure(wl, args.seconds)
    checks = out.pop("checks")
    out.update(
        attempted=checks.attempted,
        failed=checks.failed,
        hard_failed=checks.hard_failed,
        failures=checks.failures,
        known_defects=workloads.KNOWN_DEFECTS,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        numpy=numpy.__version__,
        polydecomp=polydecomp.__version__,
        polydecomp_threads_env=os.environ.get("POLYDECOMP_THREADS"),
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
