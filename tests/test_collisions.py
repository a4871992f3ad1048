import random
from fractions import Fraction

import pytest

from polydecomp.collisions import (
    CollisionParameterError,
    CollisionParams,
    alpha_exp,
    alpha_trig,
    dickson,
    original_shift,
    verify_bidecomposable,
)
from polydecomp.polynomial import Polynomial, compose, x_power


def P(*descending):
    return Polynomial(reversed(descending))


X = x_power(1)


def rand_monic_original(rng, deg):
    return Polynomial(
        [0] + [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(deg - 1)] + [1]
    )


def rand_scalar(rng):
    return Fraction(rng.randint(-5, 5), rng.randint(1, 3))


def dickson_recurrence(z, k_max):
    """T_0, ..., T_k_max from T_0 = 2, T_1 = x, T_k = x*T_(k-1) - z*T_(k-2):
    the oracle for `dickson`."""
    ts = [Polynomial([2]), x_power(1)]
    while len(ts) <= k_max:
        ts.append(Polynomial([0, *ts[-1].coeffs]) - ts[-2] * z)
    return ts


class TestDickson:
    @pytest.mark.parametrize(
        "re,im",
        [(0, 0), (3, 0), (-2, 0), (Fraction(-7, 5), 0), (Fraction(2, 9), 0), (Fraction(1, 2), Fraction(-3, 4))],
        ids=["0", "3", "-2", "-7/5", "2/9", "gauss"],
    )
    def test_closed_form_equals_recurrence(self, re, im, gaussq):
        z = gaussq(re, im) if im else re
        for k, t in enumerate(dickson_recurrence(z, 64)):
            assert dickson(k, z) == t

    def test_float_within_rounding_of_exact(self):
        # coefficient x^(k-2j) is an integer below 2^53 times (-z)^j, built by
        # j + 1 rounded products: relative error at most (j+1)u/(1-(j+1)u)
        u = 2.0**-53
        rng = random.Random(42)
        for _ in range(60):
            k, z = rng.randint(1, 64), rng.uniform(-2, 2)
            got, exact = dickson(k, z), dickson(k, Fraction(z))
            assert got.degree == k
            for i in range(k + 1):
                j, odd = divmod(k - i, 2)
                if odd:
                    assert got[i] == 0
                else:
                    assert abs(Fraction(got[i]) - exact[i]) <= (j + 2) * u * abs(exact[i])

    def test_zero_parameter_gives_pure_powers(self):
        for k in range(1, 10):
            assert dickson(k, 0) == x_power(k)

    def test_degree_two(self):
        z = Fraction(3, 2)
        assert dickson(2, z) == P(1, 0, -2 * z)

    def test_degree_six(self):
        z = Fraction(2)
        assert dickson(6, z) == P(1, 0, -6 * z, 0, 9 * z**2, 0, -2 * z**3)

    def test_t0(self):
        assert dickson(0, Fraction(5)) == Polynomial([2])
        with pytest.raises(ValueError, match="negative Dickson degree"):
            dickson(-1, Fraction(5))

    def test_composition_semigroup(self):
        # T_m(T_k(x, z), z^k) = T_{mk}(x, z) for mk <= 12
        z = Fraction(2, 3)
        for m in range(1, 13):
            for k in range(1, 13):
                if m * k > 12:
                    continue
                lhs = compose(dickson(m, z**k), dickson(k, z))
                assert lhs == dickson(m * k, z)


class TestOriginalShift:
    def test_shift_by_zero_drops_constant(self):
        p = P(1, 2, 3, 4)
        assert original_shift(p, 0) == p - Polynomial([4])

    def test_square(self):
        a = Fraction(5, 2)
        assert original_shift(x_power(2), a) == P(1, 2 * a, 0)

    def test_shift_inverse(self):
        a = Fraction(3)
        assert original_shift(P(1, 2 * a, 0), -a) == x_power(2)

    def test_always_original_and_group_action(self):
        rng = random.Random(211)
        for _ in range(20):
            p = Polynomial([rand_scalar(rng) for _ in range(rng.randint(2, 7))] + [1])
            a, b = rand_scalar(rng), rand_scalar(rng)
            pa = original_shift(p, a)
            assert pa[0] == 0
            assert original_shift(pa, b) == original_shift(p, a + b)


class TestAlphaExp:
    def test_n6_core_expansion(self):
        # u = v = x, a = 0, w = x + w0: the core is x^2 * w(x^2)^2
        w0 = Fraction(7, 3)
        params = CollisionParams(n=6, d=2, u=X, v=X, a=Fraction(0), w=P(1, w0))
        f = alpha_exp(params)
        assert f == x_power(2) * compose(P(1, w0), x_power(2)) ** 2
        assert f == P(1, 0, 2 * w0, 0, w0**2, 0, 0)

    def test_collapses_to_power(self):
        params = CollisionParams(n=6, d=2, u=X, v=X, a=Fraction(0), w=P(1, 0))
        assert alpha_exp(params) == x_power(6)

    def test_outputs_bidecomposable(self):
        rng = random.Random(223)
        for n, d, e in [(6, 2, 3), (12, 3, 4)]:
            for _ in range(10):
                s = e // d
                w = Polynomial([rand_scalar(rng) for _ in range(s)] + [1])
                params = CollisionParams(n=n, d=d, u=X, v=X, a=rand_scalar(rng), w=w)
                f = alpha_exp(params)
                assert f.degree == n
                assert verify_bidecomposable(f, d, e)

    def test_degenerate_exponent_rejected(self):
        # d divides e forces e = s*d, the x^0 factor case
        params = CollisionParams(
            n=12, d=2, u=P(1, 1, 0), v=P(1, 2, 0), a=Fraction(1),
            w=P(1, 0, 1, 2),
        )
        with pytest.raises(CollisionParameterError):
            alpha_exp(params)

    def test_bad_degrees_rejected(self):
        with pytest.raises(CollisionParameterError):
            alpha_exp(CollisionParams(n=6, d=3, u=X, v=X, a=0, w=P(1, 0)))
        with pytest.raises(CollisionParameterError):
            alpha_exp(CollisionParams(n=6, d=2, u=P(1, 0, 0), v=X, a=0, w=P(1, 0)))
        with pytest.raises(CollisionParameterError, match="needs w"):
            alpha_exp(CollisionParams(n=6, d=2, u=X, v=X, a=0))
        with pytest.raises(CollisionParameterError, match="w must be monic of degree 1"):
            alpha_exp(CollisionParams(n=6, d=2, u=X, v=X, a=0, w=P(1, 0, 0)))


class TestAlphaTrig:
    def test_n6_originalized_dickson(self):
        z = Fraction(4, 3)
        params = CollisionParams(n=6, d=2, u=X, v=X, a=Fraction(0), z=z)
        f = alpha_trig(params)
        assert f == P(1, 0, -6 * z, 0, 9 * z**2, 0, 0)

    def test_zero_parameter_gives_power(self):
        params = CollisionParams(n=6, d=2, u=X, v=X, a=Fraction(0), z=Fraction(0))
        assert alpha_trig(params) == x_power(6)

    def test_outputs_bidecomposable(self):
        rng = random.Random(227)
        for n, d, e in [(6, 2, 3), (12, 3, 4), (12, 2, 6)]:
            i = 2 if (n, d) == (12, 2) else 1
            for _ in range(10):
                u = rand_monic_original(rng, i) if i > 1 else X
                v = rand_monic_original(rng, i) if i > 1 else X
                params = CollisionParams(n=n, d=d, u=u, v=v, a=rand_scalar(rng), z=rand_scalar(rng))
                f = alpha_trig(params)
                assert f.degree == n
                assert verify_bidecomposable(f, d, e)

    def test_missing_z(self):
        with pytest.raises(CollisionParameterError):
            alpha_trig(CollisionParams(n=6, d=2, u=X, v=X, a=0))


class TestTwelveTwoSix:
    # (12, 2, 6) has d = gcd(d, e), the degenerate exponential case: the
    # exponential constructor rejects it while the trigonometric one covers it.
    def test_exp_rejected_trig_works(self):
        rng = random.Random(229)
        for _ in range(10):
            u = rand_monic_original(rng, 2)
            v = rand_monic_original(rng, 2)
            a, z = rand_scalar(rng), rand_scalar(rng)
            w = Polynomial([rand_scalar(rng) for _ in range(3)] + [1])
            with pytest.raises(CollisionParameterError):
                alpha_exp(CollisionParams(n=12, d=2, u=u, v=v, a=a, w=w))
            f = alpha_trig(CollisionParams(n=12, d=2, u=u, v=v, a=a, z=z))
            assert verify_bidecomposable(f, 2, 6)


class TestVerify:
    def test_pure_power(self):
        assert verify_bidecomposable(x_power(6), 2, 3)

    def test_single_divisor(self):
        assert verify_bidecomposable(P(1, 4, 5, 2, 0), 2, 2)

    def test_negative(self):
        assert not verify_bidecomposable(P(1, 0, 0, 0, 0, 1, 0), 2, 3)
