"""Tests of the benchmark itself: python3 -m pytest -q perfbench/tests"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from polydecomp import decompose, density, polynomial  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def test_benchmark_json_matches_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_every_metric_with_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "monte_carlo", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout


# -- tracing changes nothing ------------------------------------------------------


def _originals():
    return {
        (mod, name): getattr(sys.modules[f"polydecomp.{mod}"], name)
        for mod, name, _ in tracer.TRACED
    }


def test_tracing_is_transparent_for_estimates():
    before = _originals()
    for spec, mode in [
        (density.TubeSpec(20, 5, 0.1, 1.0), "conditional"),
        (density.TubeSpec(12, 3, 0.1, 1.0, "complex"), "conditional"),
        (density.TubeSpec(6, None, 0.1, 1.0), "plain"),
    ]:
        plain = density.estimate_density(spec, 3000, seed=9, mode=mode, threads=1)
        with tracer.Tracer() as t:
            traced = density.estimate_density(spec, 3000, seed=9, mode=mode, threads=1)
        assert (traced.mean, traced.std_error) == (plain.mean, plain.std_error)
        assert t.spans
    assert _originals() == before


def test_tracing_is_transparent_for_exact_witnesses():
    for wl in (workloads.ExactRational(3, quick=True), workloads.ExactFloat(3, quick=True)):
        items = [wl.make_input(case) for case in wl.cycle]
        plain = [wl.run_op(item)[0] for item in items]
        with tracer.Tracer() as t:
            traced = [wl.run_op(item)[0] for item in items]
        assert traced == plain
        assert t.layer_summary()["decompose.try_decompose"]["calls"] > 0


def test_self_times_and_unaccounted_add_up_to_wall():
    wl = workloads.make("exact", 4, quick=True)
    out = workloads.measure_traced(wl, 0.3)
    m = out["metrics"]
    self_total = sum(row["self_s"] for row in out["layers"].values()) / out["passes"]
    assert m["trace.unaccounted_s"] >= 0.0
    assert math.isclose(self_total + m["trace.unaccounted_s"], m["trace.wall_s"], rel_tol=1e-9)


def test_absent_layer_is_reported_not_fatal(monkeypatch):
    monkeypatch.setattr(tracer, "TRACED", tracer.TRACED + (("polynomial", "no_such_fn", None),))
    with tracer.Tracer() as t:
        polynomial.compose(polynomial.x_power(2), polynomial.x_power(3))
    assert t.absent == ["polynomial.no_such_fn"]
    assert t.layer_summary()["polynomial.compose"]["calls"] == 1


# -- injected bad cases count toward the fail fraction -----------------------------


def test_perturbed_polynomial_labelled_genuine_fails():
    wl = workloads.ExactFloat(1)
    item = wl.make_input((30, 5))
    (n, d), (g, h, j) = item
    fake = workloads.ExactFloat.perturbed(polynomial.compose(g, h), j)
    checks = workloads.Checks()
    workloads.ExactFloat.check_op(checks, 0, item, decompose.try_decompose(fake, d), None)
    assert (checks.failed, checks.hard_failed) == (1, 1)
    assert checks.failures[0]["check"] == "genuine_accepted"


def test_bracket_forced_off_fails():
    spec = density.TubeSpec(20, 5, 0.1, 1.0)
    r = density.estimate_density(spec, 2000, seed=2, mode="conditional")
    checks = workloads.Checks()
    workloads.check_estimate(checks, 0, "ok", spec, r)
    off = dataclasses.replace(r, mean=10 * r.mean)
    workloads.check_estimate(checks, 1, "off", spec, off)
    assert (checks.attempted, checks.failed, checks.hard_failed) == (4, 1, 1)
    assert checks.failures[0]["op"] == 1


def test_exception_counts_and_run_continues():
    class Broken(workloads.ExactFloat):
        @staticmethod
        def run_op(item):
            raise ZeroDivisionError("injected")

    wl = Broken(2, quick=True)
    checks = workloads.Checks()
    best, first, passes = workloads.run_pool(wl, 0.0, checks)
    assert passes == workloads.MIN_PASSES
    assert best == first == [None] * len(wl.pool)
    # Counted once per op, not once per pass.
    assert checks.failed == checks.hard_failed == len(wl.pool)
    assert checks.failures[0]["detail"] == "ZeroDivisionError: injected"


# -- the pool: counts depend on the seed, not on the run's length -----------------


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_attempted_and_failed_do_not_grow_with_passes(workload):
    counts = []
    for seconds in (0.0, 1.0):
        wl = workloads.make(workload, 7, quick=True)
        out = workloads.measure(wl, seconds)
        checks = out["checks"]
        counts.append((out["metrics"]["passes"], checks.attempted, checks.failed))
    (short, *same_short), (long, *same_long) = counts
    assert long > short == workloads.MIN_PASSES
    assert same_short == same_long


def test_op_that_changes_its_answer_on_a_later_pass_is_a_hard_failure():
    wl = workloads.ExactFloat(4, quick=True)
    real, runs = wl.run_op, []

    def drifting(item):
        runs.append(item)
        out, dt = real(item)
        return ((None, out[1]) if len(runs) > len(wl.pool) else out), dt

    wl.run_op = drifting
    checks = workloads.Checks()
    workloads.run_pool(wl, 0.0, checks)
    repeats = [f for f in checks.failures if f["check"] == "repeat_identical"]
    assert len(repeats) == len(wl.pool) * (workloads.MIN_PASSES - 1)
    assert checks.hard_failed == len(repeats)


def _zero_hit_check(label):
    """Checks a forced 0/0 estimate on one config."""
    wl = workloads.MonteCarlo(0, quick=True)
    _, spec, mode, zero_hit_defect = next(c for c in wl.configs if c[0] == label)
    r = density.estimate_density(spec, 10, seed=0, mode=mode)
    zero = dataclasses.replace(r, mean=0.0, std_error=0.0)
    checks = workloads.Checks()
    workloads.check_estimate(checks, 0, label, spec, zero, zero_hit_defect)
    return checks


def test_zero_hit_estimate_is_a_known_defect_only_on_plain_30_5():
    checks = _zero_hit_check("plain real(30,5)")
    assert (checks.failed, checks.hard_failed) == (1, 0)
    assert checks.failures[0]["known_defect"] == "mc_zero_hits"


@pytest.mark.parametrize(
    "label", ["conditional real(20,5)", "conditional complex(12,3)", "plain real(6,union)"]
)
def test_zero_hit_estimate_elsewhere_is_a_hard_failure(label):
    checks = _zero_hit_check(label)
    assert (checks.failed, checks.hard_failed) == (1, 1)


@pytest.mark.parametrize("shift,hard", [(1e-4, 0), (0.5, 1)])
def test_witness_drift_is_excused_only_below_the_cap(shift, hard):
    item = workloads.ExactFloat(1).make_input((100, 10))
    (n, d), (g, h, j) = item
    drifted = polynomial.Polynomial([g.coeffs[0] + shift, *g.coeffs[1:]])
    dec = SimpleNamespace(g=drifted, h=h)
    checks = workloads.Checks()
    workloads.ExactFloat.check_op(checks, 0, item, dec, None)
    assert (checks.failed, checks.hard_failed) == (1, hard)
    assert checks.failures[0]["check"] == "witness_close"


def test_pooled_relvar_matches_one_big_sample():
    import random

    rng = random.Random(0)
    xs = [rng.expovariate(1.0) for _ in range(3000)]
    parts = [xs[:1000], xs[1000:1700], xs[1700:]]

    def stats(v):
        n = len(v)
        m = sum(v) / n
        var = sum((x - m) ** 2 for x in v) / (n - 1)
        return n, m, math.sqrt(var / n)

    n, m, se = stats(xs)
    whole = se * se * n / (m * m)
    assert math.isclose(workloads.pooled_relvar([stats(p) for p in parts]), whole, rel_tol=1e-9)
    assert workloads.pooled_relvar([(10, 0.0, 0.0), (5, 0.0, 0.0)]) is None
