import random
from fractions import Fraction

import numpy as np
import pytest

from polydecomp.batched import section_batch, series_root_batch
from polydecomp.decompose import is_composite, nt_set, proper_divisors, section
from polydecomp.polynomial import Polynomial, compose, series_dth_root


class GaussQ:
    """Exact complex rational re + im*i with Fraction parts: a field in
    which the scalar section runs without any rounding."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @staticmethod
    def of(x):
        return x if isinstance(x, GaussQ) else GaussQ(x)

    def __add__(self, other):
        o = GaussQ.of(other)
        return GaussQ(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussQ(-self.re, -self.im)

    def __sub__(self, other):
        return self + -GaussQ.of(other)

    def __rsub__(self, other):
        return GaussQ.of(other) - self

    def __mul__(self, other):
        o = GaussQ.of(other)
        return GaussQ(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = GaussQ.of(other)
        norm = o.re * o.re + o.im * o.im
        return self * GaussQ(o.re / norm, -o.im / norm)

    def __rtruediv__(self, other):
        return GaussQ.of(other) / self

    def __eq__(self, other):
        o = GaussQ.of(other)
        return self.re == o.re and self.im == o.im

    __hash__ = None

    def __complex__(self):
        return complex(float(self.re), float(self.im))


def exact_section_row(b_values, n, d):
    """The section at the same float (or complex) input in exact arithmetic.

    Fraction(float) is exact, and `section` runs the same kernel as
    `section_batch` over Fractions (or Gaussian rationals).  Comparing with
    it measures only the rounding of the float kernel, not its algorithm;
    the dyadic compositions below check the algorithm against `compose`.
    """
    ns = nt_set(n, d)
    if np.iscomplexobj(b_values):
        b = {i: GaussQ(v.real, v.imag) for i, v in zip(ns.nt, b_values)}
        f = section(b, n, d)
        return np.array([complex(GaussQ.of(f[i])) for i in range(1, n)])
    b = {i: Fraction(float(v)) for i, v in zip(ns.nt, b_values)}
    f = section(b, n, d)
    return np.array([float(f[i]) for i in range(1, n)])


def assert_close_to_exact(got, want, rtol):
    # error relative to the row's largest coefficient, and at least absolute
    scale = max(1.0, float(np.abs(want).max()))
    assert np.abs(got - want).max() <= rtol * scale


class TestSeriesRootBatch:
    def test_matches_exact_root(self):
        rng = random.Random(301)
        for d in (2, 3, 5):
            for e in (2, 3, 4, 6):
                rows = []
                expected = []
                for _ in range(5):
                    cs = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(e - 1)]
                    p = Polynomial([1] + cs)
                    q = series_dth_root(p, d, e)
                    rows.append([1.0] + [float(c) for c in cs])
                    expected.append([float(q[i]) for i in range(e)])
                # coefficient-major: one row per power of x
                got = series_root_batch(np.array(rows).T, d).T
                assert np.allclose(got, np.array(expected), atol=1e-12)

    def test_complex_dtype(self):
        u = np.array([[1.0 + 0j], [0.5 + 0.25j], [-0.125j]])
        q = series_root_batch(u, 3)
        assert q.dtype == np.complex128
        # cube the result truncated mod x^3 and compare with u
        q0, q1, q2 = q[:, 0]
        cube1 = 3 * q1
        cube2 = 3 * q2 + 3 * q1**2
        assert abs(cube1 - u[1, 0]) < 1e-12
        assert abs(cube2 - u[2, 0]) < 1e-12

    @pytest.mark.parametrize("d,e", [(2, 2), (3, 4), (5, 5), (8, 8), (10, 10)])
    def test_power_of_root_is_input(self, d, e):
        # q^d = u mod x^e, with q's float coefficients raised to the d-th
        # power exactly by Polynomial arithmetic over Fractions
        rng = np.random.default_rng(10 * d + e)
        u = rng.uniform(-1, 1, size=(e, 6))
        u[0] = 1
        q = series_root_batch(u, d)
        for col in range(u.shape[1]):
            power = Polynomial([Fraction(c) for c in q[:, col]]) ** d
            for t in range(e):
                assert abs(float(power[t]) - u[t, col]) <= 1e-13, (d, e, col, t)


class TestSectionBatch:
    @pytest.mark.parametrize(
        "n,d", [(4, 2), (6, 2), (6, 3), (9, 3), (12, 4), (20, 5), (30, 5), (64, 8)]
    )
    def test_agrees_with_exact_section(self, n, d):
        rng = random.Random(100 * n + d)
        ns = nt_set(n, d)
        rows = np.array(
            [[rng.uniform(-1, 1) for _ in ns.nt] for _ in range(8)]
        )
        got = section_batch(rows, n, d)
        assert got.shape == (8, n - 1) and got.dtype == np.float64
        for r in range(rows.shape[0]):
            assert_close_to_exact(got[r], exact_section_row(rows[r], n, d), 1e-13)

    @pytest.mark.parametrize("n,d,field", [(20, 5, "real"), (64, 8, "real"), (12, 3, "complex")])
    def test_block_equals_rows_one_at_a_time(self, n, d, field):
        rng = np.random.default_rng(n + d)
        shape = (300, len(nt_set(n, d).nt))
        rows = rng.uniform(-1, 1, size=shape)
        if field == "complex":
            rows = rows + 1j * rng.uniform(-1, 1, size=shape)
        block = section_batch(rows, n, d)
        for r in range(0, shape[0], 7):
            alone = section_batch(rows[r : r + 1], n, d)[0]
            if field == "real":
                assert np.array_equal(block[r], alone)
            else:
                # numpy's complex product may round differently in its
                # vectorized loop and its scalar tail
                assert_close_to_exact(block[r], alone, 1e-14)

    def test_all_divisors_up_to_16(self):
        rng = np.random.default_rng(5)
        for n in range(4, 17):
            if not is_composite(n):
                continue
            for d in proper_divisors(n):
                ns = nt_set(n, d)
                rows = rng.uniform(-1, 1, size=(3, len(ns.nt)))
                got = section_batch(rows, n, d)
                for r in range(3):
                    want = exact_section_row(rows[r], n, d)
                    assert np.allclose(got[r], want, atol=1e-8), (n, d)

    def test_dyadic_compositions_match_compose(self):
        # with coefficients k/8, |k| <= 8, every input and every coefficient
        # of f = g(h) is exact in float64, so compose over Fractions gives
        # the answer the float kernel must reproduce
        rng = random.Random(5)

        def dyadic(degree):
            return Polynomial([0, *(Fraction(rng.randint(-8, 8), 8) for _ in range(degree - 1)), 1])

        pairs = [(n, d) for n in range(4, 31) if is_composite(n) for d in proper_divisors(n)]
        for n, d in pairs + [(64, 8)]:
            ns = nt_set(n, d)
            for _ in range(5):
                f = compose(dyadic(d), dyadic(n // d))
                assert all(Fraction(float(c)) == c for c in f.coeffs)
                got = section_batch(np.array([[float(f[i]) for i in ns.nt]]), n, d)[0]
                assert_close_to_exact(got, np.array([float(f[i]) for i in range(1, n)]), 1e-13)

    def test_nt_columns_reproduced(self):
        # the section agrees with its inputs on the determining columns
        rng = np.random.default_rng(11)
        n, d = 12, 3
        ns = nt_set(n, d)
        rows = rng.uniform(-1, 1, size=(20, len(ns.nt)))
        full = section_batch(rows, n, d)
        for pos, i in enumerate(ns.nt):
            assert np.allclose(full[:, i - 1], rows[:, pos], atol=1e-12)

    @pytest.mark.parametrize(
        "coords", [[0.1, 0.2, 0.3], [[0.1, 0.2]], [[[0.1, 0.2, 0.3]]]], ids=["1-D", "2-cols", "3-D"]
    )
    def test_bad_input_shape_rejected(self, coords):
        # (6, 2) takes three coordinate columns per row
        with pytest.raises(ValueError, match="2-D"):
            section_batch(np.array(coords), 6, 2)

    def test_complex_agrees_with_exact(self):
        # (12, 3) is the benchmark's complex shape; the oracle runs the
        # scalar section over Gaussian rationals
        rng = np.random.default_rng(17)
        for n, d in [(6, 2), (12, 3)]:
            shape = (8, len(nt_set(n, d).nt))
            rows = rng.uniform(-1, 1, size=shape) + 1j * rng.uniform(-1, 1, size=shape)
            got = section_batch(rows, n, d)
            assert got.shape == (8, n - 1) and got.dtype == np.complex128
            for r in range(rows.shape[0]):
                assert_close_to_exact(got[r], exact_section_row(rows[r], n, d), 1e-13)
