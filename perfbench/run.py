"""Benchmark for polydecomp: exact decomposition and Monte Carlo tube densities.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the parent of this directory.  With
``--trace 0`` the last stdout line is a JSON object holding the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a separate
traced run.  ``correct`` is false when a check outside the known defects
fails; ``attempted`` and ``failed`` count every check, known defects
included, so ``failed / attempted`` is the workload's fail fraction.  A full
record (run record, set-up samples, every failed check by op) goes to
``perfbench/out/``.  See ``perfbench/README.md`` for what each workload and
metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = HERE / "out"

WORKLOADS = ("exact", "monte_carlo")

END_TO_END = {
    "ops_per_s": "op/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "samples_per_s": "samples/s",
    "samples_per_s_1w": "samples/s",
    "time_to_1pct_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "polynomial.taylor_coefficients.self_s": "s",
    "polynomial.series_dth_root.self_s": "s",
    "polynomial.series_inverse.self_s": "s",
    "polynomial.series_inverse.calls": "count",
    "polynomial.compose.self_s": "s",
    "decompose.try_decompose.self_s": "s",
    "decompose.try_decompose.calls": "count",
    "decompose.try_decompose.hit_ratio": "ratio",
    "decompose.try_decompose.miss_s": "s",
    "decompose.try_decompose.false_reject": "count",
    "decompose.try_decompose.false_accept": "count",
    "decompose.right_component.self_s": "s",
    "decompose.is_decomposable.self_s": "s",
    "collisions.alpha_exp.self_s": "s",
    "collisions.alpha_trig.self_s": "s",
    "batched.section_batch.self_s": "s",
    "batched.section_batch.rows": "count",
    "batched.section_batch.rows_per_s": "rows/s",
    "batched.series_root_batch.s": "s",
    "density.estimate_density.self_s": "s",
    "density.disk_overlap_area.s": "s",
    "density.blocks": "count",
    "density.parallel_speedup": "ratio",
    "process.minor_faults_per_block": "count",
    "process.cpu_s_per_wall_s": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.unaccounted_s": "s",
    "trace.wall_s": "s",
    "fail_frac": "ratio",
}

# Set-up is sampled in this many extra fresh interpreters, plus the measured
# one: half of them before the measured run and half after it, so that the
# samples are spread over the run's whole span of time.
SETUP_PROBES = 10
# Everything, probes included, must end well inside 180 s.
RUN_BUDGET_S = 170.0


class WorkerFailed(RuntimeError):
    pass


def run_worker(args: list[str], env: dict, deadline: float) -> tuple[float, str]:
    """Start a fresh interpreter; return (seconds until READY, rest of stdout).

    The worker is killed at ``deadline`` (a ``time.monotonic`` value) and is
    always waited for."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        cwd=ROOT,
        env=env,
        text=True,
    )
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "READY" or proc.returncode != 0:
        raise WorkerFailed(f"worker exited with code {proc.returncode} ({' '.join(args)})")
    return ready_s, rest


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None, "note": "not a git checkout"}
    git = ["git", "--no-optional-locks", "-C", str(ROOT)]
    try:
        sha = subprocess.run(
            git + ["rev-parse", "HEAD"], capture_output=True, text=True, timeout=20, check=True
        ).stdout.strip()
        status = subprocess.run(
            git + ["status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, timeout=20, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError) as exc:
        return {"sha": None, "dirty": None, "note": f"git failed: {exc}"}
    return {"sha": sha, "dirty": bool(status.strip())}


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument(
        "--quick", action="store_true",
        help="tiny inputs and one set-up probe, for the benchmark's own tests",
    )
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        ap.error("--seed must lie in [0, 2**63)")
    if not 1 <= args.seconds <= 120:
        ap.error("--seconds must lie in [1, 120]")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "polydecomp" / "__init__.py").is_file():
        print(f"error: no polydecomp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S

    # POLYDECOMP_THREADS would silently change the default worker count.
    env = dict(os.environ)
    threads_env = env.pop("POLYDECOMP_THREADS", None)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores_affinity": len(os.sched_getaffinity(0)),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git": git_state(),
        "POLYDECOMP_THREADS": f"unset for the run (was {threads_env!r})",
        "loadavg_start": os.getloadavg(),
    }

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.quick:
        common.append("--quick")
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        probes = 0 if args.trace else 1 if args.quick else SETUP_PROBES
        setup = [run_worker(common + ["--probe"], env, deadline)[0] for _ in range(probes // 2)]
        run_args = common + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            run_args += ["--spans", str(stem) + ".spans.jsonl"]
        ready_s, out = run_worker(run_args, env, deadline)
        setup.append(ready_s)
        setup += [
            run_worker(common + ["--probe"], env, deadline)[0]
            for _ in range(probes - probes // 2)
        ]
        child = json.loads(out.strip().splitlines()[-1])
    except (WorkerFailed, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record["loadavg_end"] = os.getloadavg()
    record["numpy"] = child["numpy"]
    record["polydecomp"] = child["polydecomp"]

    values = dict(child["metrics"])
    if args.trace:
        units = PER_LAYER
    else:
        units = END_TO_END
        values["setup_s"] = statistics.median(setup)
        values["peak_rss_mb"] = child["peak_rss_mb"]
    result = {
        "correct": child["hard_failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }

    stem.with_suffix(".json").write_text(
        json.dumps(
            {"run_record": record, "setup_samples_s": setup, "worker": child, "result": result},
            indent=1,
        )
    )
    tally = Counter(
        (f["case"], f["check"], f["known_defect"] or "NEW") for f in child["failures"]
    )
    print("# run record: " + json.dumps(record))
    print(
        f"# checks: {child['attempted']} attempted, {child['failed']} failed "
        f"({child['failed'] - child['hard_failed']} known defects); "
        f"fail_frac {child['failed'] / max(child['attempted'], 1):.4g}"
    )
    for (case, check, defect), count in sorted(tally.items()):
        print(f"#   {count:6d} x {check} failed on {case} [{defect}]")
    if child.get("absent_layers"):
        print("# absent layers: " + ", ".join(child["absent_layers"]))
    print(f"# full record: {stem.with_suffix('.json').relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
