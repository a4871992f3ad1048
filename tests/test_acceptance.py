"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or by running
this file directly).  Statistical checks use the 3-standard-error brackets
plus a 1e-12 absolute guard for float roundoff: two of the configurations
achieve their closed-form upper bound exactly, where the Monte Carlo mean can
differ from the bound only by accumulated rounding.
"""

import math
import random
import sys
import time
from fractions import Fraction

import numpy as np

from polydecomp.collisions import CollisionParams, alpha_exp, alpha_trig, verify_bidecomposable
from polydecomp.decompose import (
    is_composite,
    nt_coordinates,
    proper_divisors,
    right_component,
    section_components,
    try_decompose,
)
from polydecomp.density import (
    TubeSpec,
    cheng_bound,
    density_bounds,
    disk_overlap_area,
    estimate_density,
    estimate_subspace_density,
)
from polydecomp.polynomial import Polynomial, compose, x_power

FP_GUARD = 1e-12


def _report(name: str, ok: bool, elapsed: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    extra = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status} [{elapsed:.1f}s]{extra}")


def rand_fraction(rng, num=9, den=5):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def rand_monic_original(rng, deg):
    return Polynomial([0] + [rand_fraction(rng, 9, 4) for _ in range(deg - 1)] + [1])


def test_criterion_1_golden_right_component():
    """50 random rational triples reproduce the closed-form h and g4 at (20,5)."""
    t0 = time.perf_counter()
    rng = random.Random(20_05)
    ok = True
    for _ in range(50):
        c1, c2, c3 = (rand_fraction(rng) for _ in range(3))
        coeffs = [0] * 21
        coeffs[20] = 1
        coeffs[19], coeffs[18], coeffs[17] = c1, c2, c3
        for i in list(range(1, 17)):
            coeffs[i] = rand_fraction(rng)
        f = Polynomial(coeffs)
        h = right_component(f, 5)
        ok &= h[3] == c1 / 5
        ok &= h[2] == (-2 * c1**2 + 5 * c2) / 25
        ok &= h[1] == (6 * c1**3 - 20 * c2 * c1 + 25 * c3) / 125
        g, h2 = section_components(nt_coordinates(f, 5), 20, 5)
        ok &= h2 == h
        g4_expected = coeffs[16] - Fraction(
            21 * c1**4 - 90 * c2 * c1**2 + 50 * c2**2 + 100 * c3 * c1, 125
        )
        ok &= g[4] == g4_expected
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    _report("1 golden right-component formulas (n=20, d=5)", ok, elapsed)
    assert ok


def test_criterion_2_roundtrip_all_divisors():
    """100 random rational (g,h) per (n,d) for composite n <= 30: exact roundtrip."""
    t0 = time.perf_counter()
    rng = random.Random(30_30)
    ok = True
    pairs = 0
    for n in range(4, 31):
        if not is_composite(n):
            continue
        for d in proper_divisors(n):
            pairs += 1
            for _ in range(100):
                g = rand_monic_original(rng, d)
                h = rand_monic_original(rng, n // d)
                dec = try_decompose(compose(g, h), d)
                if dec is None or dec.g != g or dec.h != h:
                    ok = False
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    _report("2 section/decomposition roundtrip (n <= 30)", ok, elapsed, f"{100 * pairs} roundtrips")
    assert ok


def test_criterion_3_real_density_sandwich():
    """Conditional MC (1e6 samples) lands in the real bracket at (4,2), (6,2), (6,3)."""
    overall = True
    for n, d in [(4, 2), (6, 2), (6, 3)]:
        t0 = time.perf_counter()
        spec = TubeSpec(n=n, d=d, epsilon=0.1, B=1.0)
        r = estimate_density(spec, 1_000_000, seed=300 + n * 10 + d, mode="conditional")
        b = density_bounds(spec)
        lo = b.lower - 3 * r.std_error - FP_GUARD
        hi = b.upper + 3 * r.std_error + FP_GUARD
        ok = lo <= r.mean <= hi and r.std_error < 0.001
        elapsed = time.perf_counter() - t0
        ok &= elapsed < 60.0
        _report(
            f"3 real sandwich (n={n}, d={d})", ok, elapsed,
            f"mean={r.mean:.6f} se={r.std_error:.1e} bracket=[{b.lower:.6f}, {b.upper:.6f}]",
        )
        overall &= ok
    assert overall


def test_criterion_4_union_density():
    """Plain MC (1e7 samples) lands in the union bracket at n=6, eps=0.1."""
    t0 = time.perf_counter()
    spec = TubeSpec(n=6, d=None, epsilon=0.1, B=1.0)
    r = estimate_density(spec, 10_000_000, seed=4000, mode="plain")
    b = density_bounds(spec)
    lo = b.lower - 3 * r.std_error - FP_GUARD
    hi = b.upper + 3 * r.std_error + FP_GUARD
    ok = lo <= r.mean <= hi
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 300.0
    _report(
        "4 union density (n=6, plain, 1e7)", ok, elapsed,
        f"mean={r.mean:.6f} se={r.std_error:.1e} bracket=[{b.lower:.6f}, {b.upper:.6f}]",
    )
    assert ok


def test_criterion_5_complex_density_sandwich():
    """Complex conditional MC in bracket at (4,2); lens area vs rejection sampling."""
    t0 = time.perf_counter()
    spec = TubeSpec(n=4, d=2, epsilon=0.1, B=1.0, field="complex")
    r = estimate_density(spec, 1_000_000, seed=5000, mode="conditional")
    b = density_bounds(spec)
    lo = b.lower - 3 * r.std_error - FP_GUARD
    hi = b.upper + 3 * r.std_error + FP_GUARD
    ok = lo <= r.mean <= hi

    # independent validation of the lens-area function
    rng = np.random.default_rng(5001)
    samples = 200_000
    for _ in range(10):
        B = rng.uniform(0.5, 2.0)
        eps = rng.uniform(0.05, 0.95) * B
        dist = rng.uniform(0.0, B + eps + 0.2)
        pts = np.empty((0, 2))
        while len(pts) < samples:
            cand = rng.uniform(-B, B, size=(2 * samples, 2))
            cand = cand[(cand**2).sum(axis=1) < B * B]
            pts = np.vstack([pts, cand])
        pts = pts[:samples]
        frac = (((pts[:, 0] - dist) ** 2 + pts[:, 1] ** 2) < eps * eps).mean()
        se = math.sqrt(frac * (1 - frac) / samples + 1e-30) * math.pi * B * B
        ok &= abs(disk_overlap_area(dist, eps, B) - frac * math.pi * B * B) <= 3 * se + 1e-9
    elapsed = time.perf_counter() - t0
    _report(
        "5 complex sandwich (n=4, d=2) + lens oracle", ok, elapsed,
        f"mean={r.mean:.6f} se={r.std_error:.1e} bracket=[{b.lower:.6f}, {b.upper:.6f}]",
    )
    assert ok


def test_criterion_6_subspace_calibration():
    """Conditional estimator on the linear model is exact to 1e-12 at (5,2,0.1,1)."""
    t0 = time.perf_counter()
    r = estimate_subspace_density(5, 2, 0.1, 1.0, 100_000, seed=6000, mode="conditional")
    exact = (0.1 / 1.0) ** 3
    ok = abs(r.mean - exact) < 1e-12
    elapsed = time.perf_counter() - t0
    _report(
        "6 subspace calibration (n=5, k=2)", ok, elapsed,
        f"|mean - (eps/B)^3| = {abs(r.mean - exact):.2e}",
    )
    assert ok


def test_criterion_7_collision_verification():
    """50 random rational parameter sets per constructor at (6,2,3) and (12,3,4)."""
    t0 = time.perf_counter()
    rng = random.Random(7000)
    X = x_power(1)
    ok = True
    for n, d, e in [(6, 2, 3), (12, 3, 4)]:
        s = e // d
        for _ in range(50):
            w = Polynomial([rand_fraction(rng, 5, 3) for _ in range(s)] + [1])
            pe = CollisionParams(n=n, d=d, u=X, v=X, a=rand_fraction(rng, 5, 3), w=w)
            ok &= verify_bidecomposable(alpha_exp(pe), d, e)
            pt = CollisionParams(
                n=n, d=d, u=X, v=X, a=rand_fraction(rng, 5, 3), z=rand_fraction(rng, 5, 3)
            )
            ok &= verify_bidecomposable(alpha_trig(pt), d, e)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    _report("7 collision verification (200 parameter sets)", ok, elapsed)
    assert ok


def test_criterion_8_bound_comparison():
    """Union complex upper bound beats the hypersurface bound for composite n <= 20."""
    t0 = time.perf_counter()
    ok = True
    for n in range(4, 21):
        if not is_composite(n):
            continue
        ours = density_bounds(TubeSpec(n=n, d=None, epsilon=0.1, B=1.0, field="complex")).upper
        theirs = cheng_bound(n, 0.1, 1.0)
        if not ours <= theirs:
            ok = False
    elapsed = time.perf_counter() - t0
    _report("8 bound comparison (composite n <= 20)", ok, elapsed)
    assert ok


if __name__ == "__main__":
    failures = 0
    for fn in [
        test_criterion_1_golden_right_component,
        test_criterion_2_roundtrip_all_divisors,
        test_criterion_3_real_density_sandwich,
        test_criterion_4_union_density,
        test_criterion_5_complex_density_sandwich,
        test_criterion_6_subspace_calibration,
        test_criterion_7_collision_verification,
        test_criterion_8_bound_comparison,
    ]:
        try:
            fn()
        except AssertionError:
            failures += 1
    sys.exit(1 if failures else 0)
