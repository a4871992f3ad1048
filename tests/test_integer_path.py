"""Exact decomposition over the integers, checked against sympy and by call counts."""

import random
from fractions import Fraction

import pytest

from polydecomp import decompose, polynomial
from polydecomp.decompose import Decomposition, is_decomposable, try_decompose
from polydecomp.polynomial import Polynomial, compose


def rand_monic_original(rng, deg, den=7):
    middle = [Fraction(rng.randint(-9, 9), rng.randint(1, den)) for _ in range(deg - 1)]
    return Polynomial([0, *middle, 1])


def to_float(p):
    return Polynomial([float(c) for c in p.coeffs])


# d = 4, 6 and 8 are not prime: the root's exact division by d*t is not by a prime
ORACLE_CASES = [(8, 4), (12, 4), (12, 6), (16, 8), (18, 6), (24, 6), (24, 8), (10, 2), (15, 3)]


class TestSympyOracle:
    @staticmethod
    def poly(sympy, p, x):
        return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)], x)

    @pytest.mark.parametrize("n,d", ORACLE_CASES)
    def test_compose_and_decompose_match_sympy(self, n, d):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = random.Random(1000 * n + d)
        for _ in range(3):
            g, h = rand_monic_original(rng, d), rand_monic_original(rng, n // d)
            f = compose(g, h)
            assert self.poly(sympy, g, x).compose(self.poly(sympy, h, x)) == self.poly(sympy, f, x)
            assert try_decompose(f, d) == Decomposition(g=g, h=h)

    @pytest.mark.parametrize("n,d", ORACLE_CASES)
    def test_scaled_composition_is_integral(self, n, d):
        # F(x) = c^n f(x/c), H(x) = c^e h(x/c) and G(y) = c^n g(y/c^e) are
        # integer polynomials with F = G(H)
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = random.Random(2000 * n + d)
        e = n // d
        g, h = rand_monic_original(rng, d), rand_monic_original(rng, e)
        f = compose(g, h)
        c, F, H = decompose._integer_components(f, d)
        assert all(isinstance(a, int) for a in (*F, *H))

        def scaled(p, power, arg):
            expr = sympy.expand(power * self.poly(sympy, p, x).as_expr().subs(x, arg))
            return sympy.Poly(expr, x)

        assert scaled(f, c**n, x / c) == self.poly(sympy, F, x)
        assert scaled(h, c**e, x / c) == self.poly(sympy, H, x)
        assert scaled(g, c**n, x / c**e).compose(self.poly(sympy, H, x)) == self.poly(sympy, F, x)


def test_exact_input_never_runs_the_float_polish(monkeypatch):
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(decompose, "series_dth_root", counted("root", polynomial.series_dth_root))
    monkeypatch.setattr(decompose, "_polished", counted("polish", decompose._polished))
    rng = random.Random(24)
    g, h = rand_monic_original(rng, 4, den=5), rand_monic_original(rng, 6, den=5)
    f = compose(g, h)
    assert (4, Decomposition(g=g, h=h)) in is_decomposable(f)
    assert calls == []
    is_decomposable(to_float(f))
    assert set(calls) == {"root", "polish"}


class TestFloatWitness:
    def test_no_fraction_in_float_witness(self):
        dec = try_decompose(compose(Polynomial([0, 0.5, 1]), Polynomial([0, -1.5, 0.25, 1])), 2)
        assert dec is not None
        assert not any(isinstance(c, Fraction) for c in (*dec.g, *dec.h))

    @pytest.mark.parametrize("n,d", [(6, 2), (6, 3), (12, 4), (24, 6)])
    def test_no_fraction_in_random_float_witnesses(self, n, d):
        rng = random.Random(n * d)
        for _ in range(5):
            # an int leading 1, as in Polynomial([0, 0.5, 1]), used to divide to Fraction(1, 1)
            g = Polynomial([0, *(rng.uniform(-1, 1) for _ in range(d - 1)), 1])
            h = Polynomial([0, *(rng.uniform(-1, 1) for _ in range(n // d - 1)), 1])
            found = is_decomposable(compose(g, h))
            assert d in dict(found)
            for _, dec in found:
                assert not any(isinstance(c, Fraction) for c in (*dec.g, *dec.h))
