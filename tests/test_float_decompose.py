"""The float and complex contract of try_decompose, against oracles outside
the float path: exact compositions over the (Gaussian) rationals and mpmath
at 50 digits.  The hypothesis property is in test_properties.py.

f decomposes at d when the Gauss-Newton polished residual
rho = |g(h) - f|_inf / max(1, |f|_inf) is at most TAU, and the witness is
the polished pair.
"""

import random
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from polydecomp.collisions import CollisionParams, alpha_exp, alpha_trig, verify_bidecomposable
from polydecomp.decompose import DivisorError, try_decompose
from polydecomp.polynomial import Polynomial, x_power

TAU = 1e-10
PERTURB_REL = 1e-6


def rounded_composition(g, h):
    """f = g(h) rounded once per coefficient from the exact composition over
    the Gaussian rationals, so no float arithmetic of the library is used.

    Every float is an integer over a power of two; with D the largest such
    denominator, G = D g and H = D h are Gaussian-integer polynomials (pairs
    of ints), and D^(d+1) f = sum_i G_i H^i D^(d-i), summed by Horner."""
    parts = [(Fraction(c.real), Fraction(c.imag)) for c in (*g.coeffs, *h.coeffs)]
    D = max(x.denominator for pair in parts for x in pair)

    def scaled(p):
        return [(int(c.real * D), int(c.imag * D)) for c in map(complex, p.coeffs)]

    G, H, d = scaled(g), scaled(h), g.degree
    acc, scale = [G[-1]], 1
    for gr, gi in reversed(G[:-1]):
        out = [[0, 0] for _ in range(len(acc) + len(H) - 1)]
        for i, (ar, ai) in enumerate(acc):
            for j, (br, bi) in enumerate(H):
                out[i + j][0] += ar * br - ai * bi
                out[i + j][1] += ar * bi + ai * br
        scale *= D
        out[0][0] += gr * scale
        out[0][1] += gi * scale
        acc = out
    den = D ** (d + 1)
    real = all(isinstance(c, float) for c in (*g.coeffs, *h.coeffs))
    coeffs = [complex(float(Fraction(re, den)), float(Fraction(im, den))) for re, im in acc]
    return Polynomial([c.real for c in coeffs] if real else coeffs)


def draw_pair(rng, n, d, field):
    def scalar():
        if field == "complex":
            return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        return rng.uniform(-1, 1)

    return tuple(Polynomial([0.0, *(scalar() for _ in range(k - 1)), 1.0]) for k in (d, n // d))


def perturbed(f, j):
    coeffs = list(f.coeffs)
    coeffs[j] += PERTURB_REL * max(map(abs, coeffs))
    return Polynomial(coeffs)


def witness_error(dec, g, h):
    """max |witness - true| over both components, relative to max(1, |true|_inf)."""
    true = g.coeffs + h.coeffs
    got = dec.g.coeffs + dec.h.coeffs
    return max(abs(a - b) for a, b in zip(got, true)) / max(1.0, *map(abs, true))


def mpmath_rho(f, dec):
    """rho of a witness recomputed with mpmath at 50 digits from the exact
    values of its float coefficients."""
    with mpmath.workdps(50):
        g, h, fv = ([mpmath.mpmathify(c) for c in p.coeffs] for p in (dec.g, dec.h, f))
        acc = [g[-1]]
        for c in reversed(g[:-1]):
            out = [mpmath.mpf(0)] * (len(acc) + len(h) - 1)
            for i, a in enumerate(acc):
                for j, b in enumerate(h):
                    out[i + j] += a * b
            out[0] += c
            acc = out
        return max(abs(a - b) for a, b in zip(acc, fv)) / max(1, *map(abs, fv))


@pytest.mark.parametrize("field", ["float", "complex"])
def test_genuine_accepted_and_perturbed_rejected_at_100_10(field):
    rng = random.Random(1310)
    n, d, draws = 100, 10, 200
    accepted = 0
    for _ in range(draws):
        g, h = draw_pair(rng, n, d, field)
        f = rounded_composition(g, h)
        dec = try_decompose(f, d)
        if dec is not None:
            accepted += 1
            assert witness_error(dec, g, h) <= 1e-9
            assert all(type(c) in (int, float, complex) for c in dec.g.coeffs + dec.h.coeffs)
        assert try_decompose(perturbed(f, rng.randrange(1, n)), d) is None
    assert accepted >= 0.99 * draws


@pytest.mark.parametrize("field", ["float", "complex"])
@pytest.mark.parametrize("n,d", [(12, 3), (30, 5), (64, 8), (100, 10)])
def test_mpmath_residual_of_accepted_witnesses(n, d, field):
    rng = random.Random(n * d)
    for _ in range(4):
        f = rounded_composition(*draw_pair(rng, n, d, field))
        dec = try_decompose(f, d)
        assert dec is not None
        assert mpmath_rho(f, dec) <= TAU


@pytest.mark.parametrize("variant", ["exp", "trig"])
def test_float_collisions_verify_at_both_divisors(variant):
    rng = random.Random(4267)
    x = x_power(1)
    for _ in range(40):
        a, z = rng.uniform(-1, 1), rng.uniform(-1, 1)
        if variant == "exp":
            w = Polynomial([rng.uniform(-1, 1), 1.0])
            f = alpha_exp(CollisionParams(n=42, d=6, u=x, v=x, a=a, w=w))
        else:
            f = alpha_trig(CollisionParams(n=42, d=6, u=x, v=x, a=a, z=z))
        assert verify_bidecomposable(f, 6, 7)


def test_singular_step_ends_the_polish_and_a_singular_fit_rejects(monkeypatch):
    g, h = draw_pair(random.Random(1), 30, 5, "float")
    f = rounded_composition(g, h)
    solve, calls = np.linalg.solve, []

    def singular_after(k):
        def fake(a, b):
            calls.append(k)
            if len(calls) > k:
                raise np.linalg.LinAlgError("singular matrix")
            return solve(a, b)

        return fake

    # the first fit is within TAU; the step after it finds a singular system
    monkeypatch.setattr(np.linalg, "solve", singular_after(1))
    dec = try_decompose(f, 5)
    assert len(calls) == 2
    assert dec is not None and witness_error(dec, g, h) <= 1e-9
    calls.clear()
    monkeypatch.setattr(np.linalg, "solve", singular_after(0))
    assert try_decompose(f, 5) is None


def test_overflow_rejects_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert try_decompose(Polynomial([0.0, 1e300, 0.0, 1e200, 1.0]), 2) is None


@pytest.mark.parametrize("d", [0, -2, 3, 4])
def test_float_input_with_a_bad_divisor_raises(d):
    with pytest.raises(DivisorError):
        try_decompose(Polynomial([0.0, 0.5, 0.25, 1.0, 1.0]), d)
