import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest

from polydecomp.batched import section_batch, section_block, series_root_batch
from polydecomp.decompose import is_composite, nt_set, proper_divisors, section, section_components
from polydecomp.polynomial import Polynomial, compose, series_dth_root


def exact_section_row(b_values, n, d, gaussq):
    """The section at the same float (or complex) input in exact arithmetic.

    Fraction(float) is exact, and `section` runs the same kernel as
    `section_batch` over Fractions (or Gaussian rationals).  Comparing with
    it measures only the rounding of the float kernel, not its algorithm;
    the dyadic compositions below check the algorithm against `compose`.
    """
    ns = nt_set(n, d)
    if np.iscomplexobj(b_values):
        b = {i: gaussq(v.real, v.imag) for i, v in zip(ns.nt, b_values)}
        f = section(b, n, d)
        return np.array([complex(gaussq.of(f[i])) for i in range(1, n)])
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

    @pytest.mark.parametrize(
        "field,sha256",
        [
            # recorded before the root ran the scalar loop of series_dth_root
            # over rows; 8,197 columns leave a ragged tail after any SIMD width
            ("real", "180728dbd81738020a5b68e4a081eaae2eae96d89cd2f07b8016215db65973b3"),
            ("complex", "0d99e8defda87c472c0be1c732042f1394e07fd196c1e55d644be0acd4c40e99"),
        ],
    )
    def test_root_bytes_are_unchanged(self, field, sha256):
        digest = hashlib.sha256()
        for e in (2, 3, 4, 5, 8, 10):
            for d in (2, 3, 5, 8):
                rng = np.random.default_rng(100 * e + d)
                u = rng.uniform(-1, 1, size=(e, 8197))
                if field == "complex":
                    u = u + 1j * rng.uniform(-1, 1, size=u.shape)
                u[0] = 1
                # zeros of each sign, in the real and imaginary parts apart,
                # so complex zeros of every sign pair occur
                for t in range(1, e):
                    u.real[t, t % 5 :: 5] = 0.0
                    u.real[t, (t + 2) % 5 :: 5] = -0.0
                    if field == "complex":
                        u.imag[t, t % 3 :: 3] = 0.0
                        u.imag[t, (t + 1) % 3 :: 3] = -0.0
                q = series_root_batch(u, d)
                assert q.shape == u.shape and q.dtype == u.dtype
                digest.update(q.tobytes())
        assert digest.hexdigest() == sha256

    def test_integer_rows_give_the_float_bytes(self):
        u = np.random.default_rng(7).integers(-3, 4, size=(6, 101))
        u[0] = 1
        for d in (2, 3, 5):
            q = series_root_batch(u, d)
            assert q.dtype == np.float64
            assert q.tobytes() == series_root_batch(u.astype(float), d).tobytes()


# zeros of both signs, +-1 and small integers, where rounding cannot hide a
# change in which terms the power rows sum
DEGENERATE_SHAPES = [
    (4, 2), (6, 2), (6, 3), (8, 2), (8, 4), (9, 3), (12, 3),
    (12, 4), (20, 5), (30, 5), (60, 6), (64, 8), (100, 10),
]
DEGENERATE_VALUES = {
    "zeros": (0.0, -0.0),
    "ones": (0.0, -0.0, 1.0, -1.0),
    "small": (-3.0, -2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 3.0),
}
# recorded before complex and object power rows took h_e = 1 as a term
DEGENERATE_FLOAT_SHA256 = "43683f42714774b7b17680711da799f5824a81eaf569dceb107b851597d1facc"
DEGENERATE_OBJECT_SHA256 = "84c8683c27f76f47cbe1be559863cc8bbe6312c1dfd59bbfbd9df1afde2eeb1b"


def degenerate_rows(n, d, field):
    """Four rows of each kind in DEGENERATE_VALUES at (n, d); a complex
    entry draws its real and imaginary parts apart."""
    rng = random.Random(1000 * n + d)
    k = len(nt_set(n, d).nt)

    def draw(values):
        if field == "real":
            return rng.choice(values)
        return complex(rng.choice(values), rng.choice(values))

    return [np.array([[draw(v) for _ in range(k)] for _ in range(4)]) for v in DEGENERATE_VALUES.values()]


class TestSectionBatch:
    @pytest.mark.parametrize(
        "n,d", [(4, 2), (6, 2), (6, 3), (9, 3), (12, 4), (20, 5), (30, 5), (64, 8)]
    )
    def test_agrees_with_exact_section(self, n, d, gaussq):
        rng = random.Random(100 * n + d)
        ns = nt_set(n, d)
        rows = np.array(
            [[rng.uniform(-1, 1) for _ in ns.nt] for _ in range(8)]
        )
        got = section_batch(rows, n, d)
        assert got.shape == (8, n - 1) and got.dtype == np.float64
        for r in range(rows.shape[0]):
            assert_close_to_exact(got[r], exact_section_row(rows[r], n, d, gaussq), 1e-13)

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

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_block_is_the_section_rows_byte_for_byte(self, field):
        # the plain estimator decides a sample on these rows alone and
        # must see the bytes the full section gives
        rng = np.random.default_rng(29)
        cases = [(n, d) for n in range(4, 31) if is_composite(n) for d in proper_divisors(n)]
        for n, d in cases + [(64, 8)]:
            e = n // d
            shape = (1001, len(nt_set(n, d).nt))
            rows = rng.uniform(-1, 1, size=shape)
            if field == "complex":
                rows = rows + 1j * rng.uniform(-1, 1, size=shape)
            f = section_block(rows, d, 2.0)  # |z| <= sqrt(2) in both fields
            want = section_batch(rows, n, d)[:, (d - 2) * e : (d - 1) * e - 1].T
            assert f.dtype == want.dtype and f.shape == (e - 1, shape[0]), (n, d)
            assert f.tobytes() == np.ascontiguousarray(want).tobytes(), (n, d)

    def test_block_is_none_where_no_bound_proves_the_section_finite(self):
        # the caller then solves the whole section and reports its overflow
        rng = np.random.default_rng(30)
        rows = rng.uniform(-1, 1, size=(64, len(nt_set(30, 5).nt)))
        assert section_block(rows, 5, 1.0).shape == (5, 64)
        assert section_block(1e15 * rows, 5, 1e15) is None
        rows[17, 6] = np.nan  # f_26, a coefficient the root h reads
        assert section_block(rows, 5, 1.0) is None

    def test_all_divisors_up_to_16(self, gaussq):
        rng = np.random.default_rng(5)
        for n in range(4, 17):
            if not is_composite(n):
                continue
            for d in proper_divisors(n):
                ns = nt_set(n, d)
                rows = rng.uniform(-1, 1, size=(3, len(ns.nt)))
                got = section_batch(rows, n, d)
                for r in range(3):
                    want = exact_section_row(rows[r], n, d, gaussq)
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

    def test_complex_agrees_with_exact(self, gaussq):
        # (12, 3) is the benchmark's complex shape; the oracle runs the
        # scalar section over Gaussian rationals
        rng = np.random.default_rng(17)
        for n, d in [(6, 2), (12, 3)]:
            shape = (8, len(nt_set(n, d).nt))
            rows = rng.uniform(-1, 1, size=shape) + 1j * rng.uniform(-1, 1, size=shape)
            got = section_batch(rows, n, d)
            assert got.shape == (8, n - 1) and got.dtype == np.complex128
            for r in range(rows.shape[0]):
                assert_close_to_exact(got[r], exact_section_row(rows[r], n, d, gaussq), 1e-13)

    @pytest.mark.parametrize(
        "n,d,field,rows,sha256",
        [
            # recorded before the float64 power rows moved to einsum, whose
            # summation order numpy does not document; 8,197 rows leave a
            # ragged tail after any SIMD width
            (20, 5, "real", 1, "ebc14fee8fe849826012dc5791c8e99f65628d63e18b5153a89ea87310e581e8"),
            (20, 5, "real", 3, "b521f7f34901e2166e93827920a17b749e334613b9ad93320b52bdd0c2ccc036"),
            (20, 5, "real", 8197, "28eb4aa342048cfb643226ceca8f5145f19e15e9f29d1172694c50d4daf112f0"),
            (64, 8, "real", 1, "a512876d0a4e3a2f42b33573e77b70c0dd760c90176573d48d341756eba62cf6"),
            (64, 8, "real", 3, "8894f8487db57af3d4097800db868482c338342f374e6ebe315222c680cde1dc"),
            (64, 8, "real", 8197, "d332552b516f89c92f660d0b74f899d223f58b5f1a206aba264b213b72927850"),
            (100, 10, "real", 1, "9be4c825e70a7538c34d7440ee33fb527b99809c0c5253cf402ab22a1ecf55c0"),
            (100, 10, "real", 3, "d052b0ceb4480bde97cd9fe81e4a8a9d1cbd51889496ee0b7017c9495d5f4904"),
            (100, 10, "real", 8197, "9994ce40b9b86fcf705ce0e7af82df7e84b90f3681c770564f5ca1a2ded1f7b1"),
            (12, 3, "complex", 1, "b35c3e95c565001108e4da3aa9d54811bb8a808614bcc76772b7d43f8ff94470"),
            (12, 3, "complex", 3, "d6cb81546cfaa1757cedaee8e1b7b68ecbd518823e5b941c63bf8277a9e74f92"),
            (12, 3, "complex", 8197, "1b0e554b468cf149c21fb1a51e6445b2ad96cf703fb3cd2c1ae8134ca9290019"),
            # d = 2: f = g_1 h + h^2, and every row m > e of h^2 takes the
            # h_e = 1 term; recorded before the power rows shared one loop
            (6, 2, "real", 3, "c64a8befd237d556e4d541c68c0d22c1343206688dd9a7ffaa9eb4751c25b8de"),
            (6, 2, "complex", 8197, "c7b82de7a2d34c4c66abde129414fd45153290e95aff37a59ca471e8e4ef91ff"),
            (8, 2, "real", 8197, "b37d1b863dbedc6a643d1d2114c028c6d6e79f03e9fd1652bfaadb3d6b265d85"),
            (8, 2, "complex", 3, "f1bde65a9b71ca476eccdfbfba9ad542ab95425393217bea78033261732528ec"),
        ],
    )
    def test_section_bytes_are_unchanged(self, n, d, field, rows, sha256):
        rng = np.random.default_rng(1000 * n + d)
        shape = (rows, len(nt_set(n, d).nt))
        coords = rng.uniform(-1, 1, size=shape)
        if field == "complex":
            coords = coords + 1j * rng.uniform(-1, 1, size=shape)
        got = np.ascontiguousarray(section_batch(coords, n, d))
        assert hashlib.sha256(got.tobytes()).hexdigest() == sha256

    def test_degenerate_float_bytes_are_unchanged(self):
        digest = hashlib.sha256()
        for n, d in DEGENERATE_SHAPES:
            for rows in degenerate_rows(n, d, "real"):
                digest.update(np.ascontiguousarray(section_batch(rows, n, d)).tobytes())
        assert digest.hexdigest() == DEGENERATE_FLOAT_SHA256

    def test_degenerate_object_reprs_are_unchanged(self):
        # ints, and Fractions with the small values over 3, on the exact path
        digest = hashlib.sha256()
        for n, d in DEGENERATE_SHAPES:
            for rows in degenerate_rows(n, d, "real"):
                for row in rows:
                    for scalars in ([int(v) for v in row], [Fraction(int(v), 3) for v in row]):
                        b = dict(zip(nt_set(n, d).nt, scalars))
                        digest.update(repr(section_components(b, n, d)).encode())
        assert digest.hexdigest() == DEGENERATE_OBJECT_SHA256

    def test_degenerate_complex_rows_equal_the_exact_section(self, gaussq):
        # the top e - 1 columns are signed zeros, so h is x^e up to the signs
        # of its zeros and every product in the kernel is exact: the float
        # section equals the exact one, whatever sign a zero entry takes
        for n, d in DEGENERATE_SHAPES:
            for rows in degenerate_rows(n, d, "complex"):
                rows[:, d - 1 :] *= 0
                got = section_batch(rows, n, d)
                for r in range(len(rows)):
                    want = exact_section_row(rows[r], n, d, gaussq)
                    assert np.array_equal(got[r], want), (n, d, r)

    @pytest.mark.parametrize("n,d", [(10, 3), (6, 1), (6, 6)])
    def test_improper_divisor_rejected(self, n, d):
        # d + n // d - 2 columns pass the column count; at (10, 3) the
        # section of a degree-9 composition used to come back
        with pytest.raises(ValueError, match="proper divisor"):
            section_batch(np.zeros((1, d + n // d - 2)), n, d)
