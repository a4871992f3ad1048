import math
import random
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from polydecomp.batched import series_root_batch
from polydecomp.polynomial import (
    Polynomial,
    SeriesNormalizationError,
    compose,
    format_polynomial,
    format_scalar,
    parse_polynomial,
    parse_scalar,
    series_dth_root,
    series_inverse,
    taylor_coefficients,
    x_power,
)


# 0 where Python has no int-to-str digit limit (before 3.10.7) or it is off
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


# Reference arithmetic used as the independent oracle: plain schoolbook
# convolution on coefficient lists, no shortcuts shared with the library.
def ref_mul(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def ref_add(a, b):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return out


def ref_compose(g, h):
    """Horner over the reference arithmetic: coefficients of g(h)."""
    acc, h = [], list(h)
    for c in reversed(list(g)):
        acc = ref_add(ref_mul(acc, h), [c])
    return acc


def P(*descending):
    return Polynomial(reversed(descending))


def rand_poly(rng, deg, exact=True):
    if exact:
        cs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(deg)]
    else:
        cs = [rng.uniform(-1, 1) for _ in range(deg)]
    cs.append(Fraction(1) if exact else 1.0)
    return Polynomial(cs)


class TestRingOps:
    def test_add_cancellation(self):
        assert P(1, 1, 0) + P(-1, 0) == P(1, 0, 0)

    def test_add_identity(self):
        p = P(1, 2, 3)
        assert p + Polynomial() == p

    def test_add_coefficientwise(self):
        assert P(1, 0, 2, 0) + P(1, 0, 3, 0) == P(2, 0, 5, 0)

    def test_scalar_operands(self):
        assert P(1, 2) + 3 == 3 + P(1, 2) == P(1, 5)
        assert 3 - P(1, 2) == P(-1, 1)
        assert Fraction(1, 2) - P(1, 0) == Polynomial([Fraction(1, 2), -1])

    def test_mul_difference_of_squares(self):
        assert P(1, 1) * P(1, -1) == P(1, 0, -1)

    def test_mul_identity(self):
        p = P(3, 1, 4)
        assert p * Polynomial([1]) == p

    def test_mul_square(self):
        p = P(1, 2, 0)
        expected = Polynomial(ref_mul(list(p.coeffs), list(p.coeffs)))
        assert p * p == expected
        assert p * p == P(1, 4, 4, 0, 0)

    def test_mul_matches_reference_randomized(self):
        # ref_mul sums in the same order, so float and complex products must
        # agree bit for bit, not just approximately
        rng = random.Random(7)
        draws = (
            lambda: rng.randint(-5, 5),
            lambda: rng.choice([0.0, rng.uniform(-5, 5)]),
            lambda: complex(rng.uniform(-5, 5), rng.uniform(-5, 5)),
        )
        for draw in draws:
            for _ in range(100):
                a = [draw() for _ in range(rng.randint(0, 12))]
                b = [draw() for _ in range(rng.randint(0, 12))]
                assert Polynomial(a) * Polynomial(b) == Polynomial(ref_mul(a, b))

    def test_long_exact_operands_match_reference(self):
        # large operands: 96 x 113 coefficients, far past the sizes above
        rng = random.Random(11)
        a = [Fraction(rng.randint(-9, 9)) for _ in range(96)]
        b = [Fraction(rng.randint(-9, 9)) for _ in range(113)]
        assert Polynomial(a) * Polynomial(b) == Polynomial(ref_mul(a, b))

    def test_pow(self):
        rng = random.Random(13)
        cases = [P(1, 1, 0), Polynomial(), Polynomial([Fraction(-2, 3)]),
                 rand_poly(rng, 3), rand_poly(rng, 5)]
        for p in cases:
            q = Polynomial([1])
            for k in range(7):
                assert p**k == q
                q = q * p
            with pytest.raises(ValueError):
                p**-1
        assert x_power(3) == P(1, 0, 0, 0)
        with pytest.raises(ValueError, match="negative exponent"):
            x_power(-1)

    def test_divmod_roundtrip(self):
        rng = random.Random(3)
        for _ in range(50):
            a = rand_poly(rng, rng.randint(0, 10))
            b = rand_poly(rng, rng.randint(1, 6))
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.degree < b.degree

    def test_divmod_by_higher_degree_is_pinned(self):
        # the quotient is empty and the remainder is the dividend, types kept
        cases = [
            (Polynomial([1, 2]), Polynomial([3, 0, 1]), "[1, 2]"),
            (
                Polynomial([Fraction(1, 3), Fraction(-2, 5)]),
                Polynomial([1, 2, Fraction(3, 7)]),
                "[Fraction(1, 3), Fraction(-2, 5)]",
            ),
            (Polynomial([0.5, -0.0, 1.25]), Polynomial([1.0, 2.0, 0.0, 3.0]), "[0.5, -0.0, 1.25]"),
            (Polynomial([1j, 2 + 0j]), Polynomial([1, 0, 2j]), "[1j, (2+0j)]"),
            (Polynomial(), Polynomial([1, 1]), "[]"),
        ]
        for a, b, rem in cases:
            assert repr(divmod(a, b)) == f"(Polynomial([]), Polynomial({rem}))"

    def test_divmod_by_non_monic_divisor(self):
        # exact input divides by the leading coefficient in Fractions
        q, r = divmod(Polynomial([1, 2, 3, 4, 5]), Polynomial([1, 1, 3]))
        assert repr((q, r)) == (
            "(Polynomial([Fraction(5, 27), Fraction(7, 9), Fraction(5, 3)]), "
            "Polynomial([Fraction(22, 27), Fraction(28, 27)]))"
        )
        q, r = divmod(Polynomial([1.0, 2.0, 3.0, 4.0, 5.0]), Polynomial([1.0, 1.0, 3.0]))
        assert repr((q, r)) == (
            "(Polynomial([0.1851851851851852, 0.7777777777777777, 1.6666666666666667]), "
            "Polynomial([0.8148148148148148, 1.0370370370370372]))"
        )

    def test_divmod_of_exact_by_float_divisor_is_all_float(self):
        # an int leading coefficient over float lower ones: the quotient
        # follows both operands, not the type of each running coefficient
        a, b = Polynomial([Fraction(1, 3), 2, 3, 4, 5]), Polynomial([1.5, 1, 3])
        q, r = divmod(a, b)
        assert all(type(c) is float for c in (*q.coeffs, *r.coeffs))
        # the exact division of the same values, as an independent oracle
        qe, re = divmod(a, Polynomial([Fraction(3, 2), 1, 3]))
        assert q.coeffs == pytest.approx([float(c) for c in qe.coeffs], rel=1e-14)
        assert r.coeffs == pytest.approx([float(c) for c in re.coeffs], rel=1e-14)

    def test_divmod_by_scalar_or_zero(self):
        assert divmod(Polynomial([1, 2, 3]), 2) == (
            Polynomial([Fraction(1, 2), 1, Fraction(3, 2)]),
            Polynomial(),
        )
        assert repr(divmod(Polynomial([1.0, 2.0]), 2.0)) == "(Polynomial([0.5, 1.0]), Polynomial([]))"
        for zero in (Polynomial(), 0):
            with pytest.raises(ZeroDivisionError, match="division by zero"):
                divmod(Polynomial([1, 2]), zero)

    def test_zero_polynomial(self):
        z = Polynomial([0, 0, 0])
        assert z.is_zero and z.degree == -1 and z.coeffs == ()

    def test_float_trailing_small_not_dropped(self):
        p = Polynomial([0.0, 1.0, 1e-15])
        assert p.degree == 2


class TestCompose:
    def test_direct_expansion(self):
        g, h = P(1, 1, 0), P(1, 2, 0)
        # oracle: h^2 + h via reference arithmetic
        hh = ref_mul(list(h.coeffs), list(h.coeffs))
        expected = Polynomial(ref_add(hh, list(h.coeffs)))
        assert compose(g, h) == expected == P(1, 4, 5, 2, 0)

    def test_identity_right(self):
        g = P(1, 0, -3, 0)
        assert compose(g, P(1, 0)) == g

    def test_identity_left(self):
        h = P(1, 7, 0)
        assert compose(P(1, 0), h) == h

    def test_degree_law(self):
        rng = random.Random(5)
        for _ in range(30):
            g = rand_poly(rng, rng.randint(1, 6))
            h = rand_poly(rng, rng.randint(1, 6))
            assert compose(g, h).degree == g.degree * h.degree

    def test_constant_right_factor_rejected(self):
        with pytest.raises(ValueError):
            compose(P(1, 0), Polynomial([3]))

    def test_all_int_input_gives_ints(self):
        f = compose(P(2, -3, 0, 5), P(-1, 4, 7))
        assert f == Polynomial(ref_add(
            ref_add([5], [-3 * c for c in ref_mul([7, 4, -1], [7, 4, -1])]),
            [2 * c for c in ref_mul(ref_mul([7, 4, -1], [7, 4, -1]), [7, 4, -1])],
        ))
        assert all(type(c) is int for c in f)

    def test_exact_type_convention(self):
        # a zero is int 0, a nonzero coefficient below the top a Fraction,
        # the top an int when it is integral
        f = compose(P(1, Fraction(1, 2), 0), P(2, 0, 0))  # 4x^4 + x^2
        assert list(f) == [0, 0, 1, 0, 4]
        assert [type(c) for c in f] == [int, int, Fraction, int, int]
        f = compose(P(Fraction(1, 2), 0, Fraction(1, 3)), P(1, 0))  # x^2/2 + 1/3
        assert list(f) == [Fraction(1, 3), 0, Fraction(1, 2)]
        assert [type(c) for c in f] == [Fraction, int, Fraction]
        assert [type(c) for c in compose(Polynomial([Fraction(6, 2)]), P(1, 0))] == [int]
        assert compose(Polynomial(), P(Fraction(1, 2), 0)) == Polynomial()

    def test_float_and_complex_match_horner(self, gaussq):
        # oracle: Horner in exact arithmetic on the exact values of the floats
        # (Gaussian rationals, which hold real input too); coefficient i must
        # lie within 2*n*u*(|g| o |h|)_i, with |g| o |h| exact as well
        u = Fraction(1, 2**53)

        def modulus(c):  # an upper bound: abs of a complex rounds once
            return Fraction(abs(c)) * (1 + 2 * u)

        rng = random.Random(11)
        for _ in range(10):
            g, h = rand_poly(rng, 5, exact=False), rand_poly(rng, 4, exact=False)
            hc = Polynomial([complex(c, rng.uniform(-1, 1)) for c in h])
            for right in (h, hc):
                f = compose(g, right)
                n = f.degree
                exact = ref_compose(map(gaussq.of, g), map(gaussq.of, right))
                size = ref_compose(map(modulus, g), map(modulus, right))
                assert n == len(exact) - 1 == g.degree * right.degree
                for fi, ei, si in zip(f, exact, size):
                    assert (gaussq.of(fi) - ei).norm() <= (2 * n * u * si) ** 2

    def test_big_integers_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")

        def to_sympy(p):
            return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)], x)

        rng = random.Random(37)
        for _ in range(6):
            g = Polynomial([rng.randint(-(2**80), 2**80) for _ in range(4)] + [1])
            h = Polynomial([rng.randint(-(10**40), 10**40) for _ in range(3)] + [rng.randint(1, 10**40)])
            f = compose(g, h)
            assert all(type(c) is int for c in f)
            assert to_sympy(f) == to_sympy(g).compose(to_sympy(h))
            gq = Polynomial([Fraction(c, rng.randint(1, 2**70)) for c in g])
            assert to_sympy(compose(gq, h)) == to_sympy(gq).compose(to_sympy(h))

    def test_results_hold_python_scalars(self):
        rng = random.Random(41)
        g, h = rand_poly(rng, 4, exact=False), rand_poly(rng, 3, exact=False)
        assert {type(c) for c in compose(g, h)} == {float}
        assert {type(c) for c in compose(g, Polynomial([complex(c, 0.5) for c in h]))} == {complex}
        exact = compose(rand_poly(rng, 4), rand_poly(rng, 3))
        assert {type(c) for c in exact} <= {int, Fraction}

    def test_float_overflow_is_inf_without_warning(self):
        p = parse_polynomial("1,1e200,0", "real64")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = compose(p, p)
        assert f.degree == 4 and math.isinf(f[1]) and math.isinf(f[2])

    def test_mixed_and_custom_scalars(self, gaussq):
        # (x^2 + 2x)^2 + (x^2 + 2x)/2, every value exact in floats
        assert compose(P(1, Fraction(1, 2), 0), P(1.0, 2, 0)) == P(1, 4, 4.5, 1, 0)
        rng = random.Random(43)
        g = Polynomial([gaussq(Fraction(rng.randint(-9, 9), 7), rng.randint(-3, 3)) for _ in range(4)])
        h = Polynomial([gaussq(rng.randint(-5, 5), Fraction(1, rng.randint(1, 5))) for _ in range(3)])
        assert compose(g, h) == Polynomial(ref_compose(g, h))


class TestSeriesInverse:
    def test_geometric_series(self):
        assert series_inverse(P(-1, 1), 4) == P(1, 1, 1, 1)

    def test_one(self):
        assert series_inverse(Polynomial([1]), 9) == Polynomial([1])

    def test_multiply_back(self):
        # oracle: (1+2x) * q = 1 mod x^3 pins q = 1 - 2x + 4x^2
        p = P(2, 1)
        q = series_inverse(p, 3)
        assert not any((p * q - 1).coeffs[:3])
        assert q == P(4, -2, 1)

    def test_inverse_property_all_orders(self):
        rng = random.Random(17)
        for _ in range(3):
            p = Polynomial([Fraction(1)] + [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(12)])
            for k in range(1, 65):
                q = series_inverse(p, k)
                assert not any((p * q - 1).coeffs[:k])
                assert q.degree < k

    def test_zero_constant_term(self):
        with pytest.raises(ValueError, match="zero constant term"):
            series_inverse(P(1, 0), 3)

    def test_reciprocal_in_the_series_field(self):
        assert series_inverse(Polynomial([3, 1]), 2) == Polynomial([Fraction(1, 3), Fraction(-1, 9)])
        q = series_inverse(Polynomial([49, 0.5]), 3)
        assert type(q[0]) is float and q[0] == 1 / 49
        assert max(abs(c) for c in (Polynomial([49, 0.5]) * q - 1).coeffs[:3]) <= 1e-15


class TestSeriesRoot:
    def test_square_root_truncated(self):
        # (1+2x)^2 = 1+4x+4x^2 = 1+4x mod x^2
        q = series_dth_root(P(2, 5, 4, 1), 2, 2)
        assert q == P(2, 1)
        assert not any((q * q - P(2, 5, 4, 1)).coeffs[:2])

    def test_root_of_one(self):
        for d in (2, 3, 7):
            assert series_dth_root(Polynomial([1]), d, 10) == Polynomial([1])

    def test_fifth_root_closed_form(self):
        # coefficients of (1 + c1 x + c2 x^2 + c3 x^3)^(1/5) mod x^4
        rng = random.Random(23)
        for _ in range(20):
            c1, c2, c3 = (Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3))
            p = Polynomial([1, c1, c2, c3])
            q = series_dth_root(p, 5, 4)
            assert q[0] == 1
            assert q[1] == c1 / 5
            assert q[2] == (-2 * c1**2 + 5 * c2) / 25
            assert q[3] == (6 * c1**3 - 20 * c2 * c1 + 25 * c3) / 125
            assert not any((q**5 - p).coeffs[:4])

    def test_root_property_all_orders(self):
        rng = random.Random(29)
        for d in (2, 3, 5):
            p = Polynomial([Fraction(1)] + [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(31)])
            for k in range(1, 33):
                q = series_dth_root(p, d, k)
                assert q[0] == 1 and q.degree < k
                assert not any((q**d - p).coeffs[:k])

    def test_normalization_contract(self):
        with pytest.raises(SeriesNormalizationError):
            series_dth_root(P(1, 2), 2, 3)
        for d in (0, -2):
            with pytest.raises(ValueError, match="root index must be positive"):
                series_dth_root(P(1, 1), d, 3)
        for k in (0, -1):
            with pytest.raises(ValueError, match="truncation order must be positive"):
                series_dth_root(P(1, 1), 2, k)

    @pytest.mark.parametrize("d,e", [(3, 4), (5, 6), (10, 10)])
    def test_object_column_keeps_scalar_types(self, d, e):
        # on a dtype=object column the batched root stays in the field of its
        # input: Fractions stay Fractions, floats floats, and q_0 is int 1
        rng = random.Random(d * e)
        for scalar, kind in (
            (lambda: rng.uniform(-1, 1), float),
            (lambda: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), complex),
            (lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9)), Fraction),
        ):
            u = [1, *(scalar() for _ in range(e - 1))]
            column = series_root_batch(np.array([[c] for c in u], dtype=object), d)[:, 0]
            assert type(column[0]) is int and column[0] == 1
            assert all(type(c) is kind for c in column[1:])
            if kind is Fraction:
                assert not any((Polynomial(column.tolist()) ** d - Polynomial(u)).coeffs[:e])


class TestTaylor:
    def test_h_squared_plus_h(self):
        h = P(1, 2, 0)
        f = h * h + h
        gs = taylor_coefficients(f, h, 2)
        assert gs == (Polynomial(), Polynomial([1]), Polynomial([1]))

    def test_f_equals_h(self):
        h = P(1, 0, 3, 0)
        assert taylor_coefficients(h, h, 1) == (Polynomial(), Polynomial([1]))

    def test_nonconstant_remainder(self):
        f = P(1, 0, 0, 1, 0)  # x^4 + x
        gs = taylor_coefficients(f, x_power(2), 2)
        assert gs == (P(1, 0), Polynomial(), Polynomial([1]))

    def test_bad_base_or_degree_rejected(self):
        with pytest.raises(ValueError, match="expansion base must be nonconstant"):
            taylor_coefficients(P(1, 0, 0), Polynomial([2]), 2)
        with pytest.raises(ValueError, match="degree of f exceeds"):
            taylor_coefficients(x_power(5), x_power(2), 2)

    def test_reassembly_randomized(self):
        rng = random.Random(31)
        for _ in range(40):
            e = rng.randint(1, 5)
            d = rng.randint(1, 4)
            h = rand_poly(rng, e)
            f = Polynomial([Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(d * e + 1)])
            gs = taylor_coefficients(f, h, d)
            assert all(g.degree < e for g in gs)
            total = Polynomial()
            for i, g in enumerate(gs):
                total = total + g * h**i
            assert total == f

    def test_compose_taylor_roundtrip_identity(self):
        rng = random.Random(37)
        for _ in range(25):
            g = rand_poly(rng, rng.randint(1, 5))
            h = rand_poly(rng, rng.randint(1, 5))
            f = compose(g, h)
            gs = taylor_coefficients(f, h, g.degree)
            rebuilt = Polynomial()
            for i, gi in enumerate(gs):
                rebuilt = rebuilt + gi * h**i
            assert rebuilt == f


class TestTextFormat:
    def test_parse_descending(self):
        assert parse_polynomial("1,4,5,2,0") == P(1, 4, 5, 2, 0)

    def test_rational_scalars(self):
        assert parse_scalar("3/4") == Fraction(3, 4)
        assert parse_scalar("-7") == Fraction(-7)

    def test_real_field(self):
        p = parse_polynomial("1,0.5,0", "real64")
        assert p.coeffs == (0.0, 0.5, 1.0)

    def test_complex_field(self):
        assert parse_scalar("1+2i", "complex64") == 1 + 2j
        assert parse_scalar("-3i", "complex64") == -3j
        assert parse_scalar("2.5", "complex64") == 2.5 + 0j

    def test_format_roundtrip(self):
        for text in ("1,4,5,2,0", "1,-1/2,0,3/4", "1,0"):
            assert format_polynomial(parse_polynomial(text)) == text

    def test_complex_roundtrip(self):
        z = 1.25 - 2.5j
        assert parse_scalar(format_scalar(z), "complex64") == z

    @pytest.mark.parametrize("field", ["real64", "complex64"])
    def test_signed_zeros_roundtrip(self, field):
        # the text keeps every bit: zeros of each sign in either part
        if field == "real64":
            cast, values = float, (0.0, -0.0, 1.5)
        else:
            cast = complex
            values = [complex(a, b) for a in (0.0, -0.0, 1.5) for b in (0.0, -0.0, -2.5)]
        for v in values:
            p = Polynomial([0, v, -v, 1])
            back = parse_polynomial(format_polynomial(p), field)
            assert np.array(back.coeffs, cast).tobytes() == np.array(p.coeffs, cast).tobytes(), v

    def test_numpy_scalars_format_as_python_scalars(self):
        assert format_scalar(np.complex128(1 - 2j)) == format_scalar(1 - 2j) == "1.0-2.0i"
        assert format_scalar(np.float64(0.1)) == format_scalar(0.1) == "0.1"

    def test_malformed(self):
        with pytest.raises(ValueError):
            parse_polynomial("1,,2")
        with pytest.raises(ValueError):
            parse_scalar("1/0")
        with pytest.raises(ValueError, match="unknown field 'real32'"):
            parse_scalar("1", "real32")

    def test_format_zero(self):
        assert format_polynomial(Polynomial()) == "0"

    @pytest.mark.skipif(not INT_DIGIT_LIMIT, reason="no int-to-str digit limit")
    def test_too_many_digits_is_a_plain_value_error(self):
        big = 10**INT_DIGIT_LIMIT
        for p in (Polynomial([big, 1]), Polynomial([Fraction(1, big), 1])):
            with pytest.raises(ValueError, match="more digits than can be printed"):
                format_polynomial(p)


class TestFloatComparison:
    def test_exact_equality_and_max_abs_difference(self):
        # float polynomials compare exactly; closeness is a max-abs bound on the difference
        p = Polynomial([0.0, 2.0, 1.0])
        q = Polynomial([1e-12, 2.0 + 1e-12, 1.0])
        assert p != q
        assert max(abs(c) for c in (p - q).coeffs) <= 1e-9
        assert max(abs(c) for c in (p - Polynomial([0.0, 2.1, 1.0])).coeffs) > 1e-9
