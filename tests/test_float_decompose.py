"""The float and complex contract of try_decompose, against oracles outside
the float path: exact compositions over the (Gaussian) rationals and mpmath
at 50 digits.  The hypothesis property is in test_properties.py.

f decomposes at d when the Gauss-Newton polished residual
rho = |g(h) - f|_inf / max(1, |f|_inf) is at most TAU, and the witness is
the polished pair.
"""

import hashlib
import math
import random
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from polydecomp.collisions import CollisionParams, alpha_exp, alpha_trig, verify_bidecomposable
from polydecomp.decompose import Decomposition, DivisorError, nt_set, right_component, try_decompose
from polydecomp.polynomial import Polynomial, compose, series_dth_root, x_power

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


def pinned_inputs(n, d):
    """Seeded float inputs of try_decompose at (n, d), e = n/d >= 3.

    For each field (real, complex, and real with about half its coefficients
    as the Fractions of their exact values): a genuine composition, a copy
    moved by PERTURB_REL * |f|_inf at a complement coefficient, and a random
    monic original.  Then inputs at the edges of the root:
    - a composition whose top coefficients f_(n-1..n-e+1) are all exact, and
      a copy with the top rounded to thirds;
    - compositions with f_(n-e+1) = 0, all float, and with the rest of the
      top exact in both fields: the root's series drops the zero, so that
      root is exact;
    - compositions g(x^e), whose top coefficients are all +-0.0 or 0j."""
    rng = random.Random(1000 * n + d)
    e = n // d
    top = range(n - e + 1, n)
    complement = nt_set(n, d).complement

    out = []
    for field in ("float", "complex"):
        f = rounded_composition(*draw_pair(rng, n, d, field))
        moved = list(f.coeffs)
        moved[rng.choice(complement)] += PERTURB_REL * max(map(abs, moved))
        out += [f, Polynomial(moved), draw_pair(rng, n, 1, field)[1]]
    for f in out[:3]:
        out.append(Polynomial([Fraction(c) if rng.random() < 0.5 else c for c in f.coeffs]))
    f = rounded_composition(*draw_pair(rng, n, d, "float"))
    out.append(Polynomial([Fraction(c) if i in top else c for i, c in enumerate(f.coeffs)]))
    thirds = [Fraction(round(3 * c), 3) if i in top else c for i, c in enumerate(f.coeffs)]
    out.append(Polynomial(thirds))
    # h = x^e + a x^(e-1) + h_1 x with d h_1 = -binom(d, e-1) a^(e-1) makes
    # f_(n-e+1) = 0; composed exactly and rounded once per coefficient
    g = Polynomial([0, *(Fraction(rng.randint(-8, 8), 8) for _ in range(d - 1)), 1])
    a = Fraction(rng.randint(1, 15), 8)
    h = Polynomial([0, -math.comb(d, e - 1) * a ** (e - 1) / d, *[0] * (e - 3), a, 1])
    exact = compose(g, h).coeffs
    assert exact[n - e + 1] == 0
    out.append(Polynomial([float(c) for c in exact]))
    for scalar in (float, complex):
        out.append(Polynomial([c if i in top[1:] else scalar(c) for i, c in enumerate(exact)]))
    # g(x^e), with each zero of the top given a random sign
    exact = compose(g, x_power(e)).coeffs
    for scalar in (float, complex):
        coeffs = [scalar(c) for c in exact]
        for i in top:
            coeffs[i] *= rng.choice((1, -1))
        out.append(Polynomial(coeffs))
    return out


def polish_reference(f, d):
    """The float try_decompose as it was written on Polynomials: h from
    `series_dth_root` of the top coefficients, then the polish on arrays
    allocated afresh at every step.  Its floating-point operations are those
    of try_decompose in the same order, so the reprs must be equal whatever
    BLAS numpy calls."""
    n = f.degree
    e = n // d
    root = series_dth_root(Polynomial([1, *(f[n - j] for j in range(1, e))]), d, e)
    h = Polynomial([0, *(root[e - j] for j in range(1, e)), 1])
    dtype = complex if any(isinstance(c, complex) for c in f.coeffs) else float
    fv = np.array(f.coeffs, dtype=dtype)
    norm = max(1.0, np.abs(fv).max())

    def lstsq(a, b):
        s = 1 / np.linalg.norm(a, axis=0)
        a = a * s
        return s * np.linalg.solve(a.conj().T @ a, a.conj().T @ b)

    def powers(h):
        p = np.zeros((d + 1, n + 1), dtype=dtype)
        p[0, 0] = 1
        p[1, : e + 1] = h
        for i in range(2, d + 1):
            p[i, : i * e + 1] = np.convolve(p[i - 1, : (i - 1) * e + 1], h)
        return p

    rho, best = math.inf, None
    with np.errstate(all="ignore"):
        try:
            h = np.array(h.coeffs, dtype=dtype)
            p = powers(h)
            g = np.concatenate([[0], lstsq(p[1:d, 1:n].T, fv[1:n] - p[d, 1:n]), [1]])
            while True:
                r = (g @ p - fv)[1:n]
                trial = np.abs(r).max() / norm
                if not trial < rho:
                    break
                cut = 0 < trial <= rho / 10
                rho, best = trial, (g, h)
                if not cut:
                    break
                jac = np.zeros((n - 1, d + e - 2), dtype=dtype)
                jac[:, : d - 1] = p[1:d, 1:n].T
                dg = np.arange(1, d + 1) * g[1:] @ p[:d]
                for j in range(1, e):
                    jac[j - 1 :, d - 2 + j] = dg[: n - j]
                step = lstsq(jac, -r)
                g = g + np.concatenate([[0], step[: d - 1], [0]])
                h = h + np.concatenate([[0], step[d - 1 :], [0]])
                p = powers(h)
        except np.linalg.LinAlgError:
            pass
    if not rho <= TAU:
        return None
    return Decomposition(*(Polynomial([0, *v[1:-1].tolist(), 1]) for v in best))


# sha256 of "\n".join(repr(try_decompose(f, d)) for f in pinned_inputs(n, d)),
# recorded from the formulation `polish_reference` keeps, with numpy 2.4 and
# its bundled OpenBLAS 0.3.31 on x86-64: the polish's products and solves run
# in BLAS and LAPACK, whose kernels may round differently on another build or
# CPU
FLOAT_DECISION_SHA256 = {
    (6, 2): "a6ec4b7252b129e28bc861e7eec27e48838115930707fc926492e7bc04a6a81a",
    (12, 3): "ecad7e7fc66deb0a82b03f51843627941c14e2cea3fc403fea3ed9ce258639e1",
    (30, 5): "253a312304bfd46503ee1aa7b3c65fca651fead466b7cda65c3cf09c0ea9fc2e",
    (60, 6): "b56cab65c347575d2dc928ddf288743c1cf1c6f00b0638135eb231f15c6c6935",
    (64, 8): "89786ab57b72a2c5599be3877c491085ea2dd56ec626cca315abc86a5f76e90a",
    (100, 10): "f0a01b32e388c52c57724dfd8cf0e7f9d9796fd03ba32a31b7329da259a8e1ab",
    (100, 25): "31945509a64d6aa4a0cac42145a5c38b68ae6906cab882ed483b67a0c760d5b3",
}


@pytest.mark.parametrize("n,d", sorted(FLOAT_DECISION_SHA256))
def test_float_decisions_are_pinned(n, d):
    reprs = [repr(try_decompose(f, d)) for f in pinned_inputs(n, d)]
    assert reprs == [repr(polish_reference(f, d)) for f in pinned_inputs(n, d)]
    assert hashlib.sha256("\n".join(reprs).encode()).hexdigest() == FLOAT_DECISION_SHA256[n, d]


def test_root_drops_trailing_zeros_as_a_polynomial_does():
    # n = 6, d = 2: the root's series is 1 + f_5 x + f_4 x^2.  With f_4 = 0.0
    # dropped, the series is exact, and so is the root
    h = right_component(Polynomial([0.0, 0.1, 0.2, 0.3, 0.0, Fraction(1, 3), 1.0]), 2)
    assert h.coeffs == (0, Fraction(-1, 72), Fraction(1, 6), 1)
    assert [type(c) for c in h.coeffs] == [int, Fraction, Fraction, int]
    # the root 1 + 0.5 x + 0.0 x^2 drops its zero, which reads as int 0
    h = right_component(Polynomial([0.0, 0.1, 0.2, 0.3, 0.25, 1.0, 1.0]), 2)
    assert h.coeffs == (0, 0, 0.5, 1)
    assert [type(c) for c in h.coeffs] == [int, int, float, int]


def test_two_fault_inputs_raise_in_check_order():
    # the monic check comes first, then the divisor, then finiteness
    with pytest.raises(ValueError, match="not monic original"):
        try_decompose(Polynomial([0.0, math.nan, 0.0, 0.0, 2.0]), 2)
    with pytest.raises(DivisorError):
        try_decompose(Polynomial([0.0, math.nan, 0.0, 0.0, 1.0]), 3)
    with pytest.raises(ValueError, match="not monic original"):
        try_decompose(Polynomial([0.5j, math.nan, 0.0, 0.0, 1.0]), 2)
