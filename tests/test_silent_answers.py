"""Reproducers of silent wrong answers, one test each.

A known wrong answer is a strict xfail that names its ROADMAP item, so the
fix must turn it into a plain test; a fixed one is a plain test.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from polydecomp import density
from polydecomp.cli import main
from polydecomp.density import TubeSpec, density_bounds, estimate_density


def test_std_error_does_not_underflow_with_the_mean():
    # item 3c: the mean is 5.9e-168, so x*x underflowed and se read 0.0.
    # The per-sample values are the library's own draw and weights of block
    # 0; the oracle is the exact two-pass se of those values
    n, d, eps, B, seed, samples = 64, 8, 0.02, 1.0, 5, 8192
    model = density._SectionModel(n, d)
    draw = density._sample_disk(seed, 0, samples, len(model.free_cols), B)
    x = np.empty(samples)
    density._disk_weights(model.predict(draw(samples)), model.dep_cols, eps, B, x)
    exact = [Fraction(v) for v in x]
    mean = sum(exact) / samples
    var = sum((v - mean) ** 2 for v in exact) / (samples - 1) / samples
    t = (var.denominator.bit_length() - var.numerator.bit_length()) // 2  # var * 4^t ~ 1
    se = math.ldexp(math.sqrt(var * 4**t), -t)

    r = estimate_density(TubeSpec(n, d, eps, B, "complex"), samples, seed=seed, mode="conditional")
    assert 0 < r.mean < 1e-160
    assert r.std_error > 0
    assert abs(r.std_error - se) <= 1e-12 * se


@pytest.mark.xfail(strict=True, reason="ROADMAP item 8: the lower bound excludes the estimate")
def test_lower_bound_holds_the_estimate():
    spec = TubeSpec(24, 4, 0.01, 1.0)
    r = estimate_density(spec, 8192, seed=5, mode="conditional")
    b = density_bounds(spec)
    assert b.lower <= r.mean + 4 * r.std_error + 1e-12 * b.upper


@pytest.mark.xfail(strict=True, reason="ROADMAP item 12: a float collision decomposes at neither divisor")
def test_real64_trig_collision_decomposes(capsys):
    params = {"variant": "trig", "n": 72, "d": 8, "u": "1,0", "v": "1,0", "a": "0.952", "z": "0.913"}
    assert main(["collide", json.dumps(params), "--field", "real64"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["d"], report["e"]) == (8, 9)
    assert report["decomposes_at_d"] and report["decomposes_at_e"]
