"""Exact decomposition over the integers, checked against sympy and by call counts."""

import hashlib
import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from polydecomp import collisions, decompose, polynomial
from polydecomp.decompose import (
    Decomposition,
    is_decomposable,
    proper_divisors,
    right_component,
    try_decompose,
)
from polydecomp.polynomial import Polynomial, compose, series_dth_root


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


M61 = 2**61 - 1  # a prime far above the bound of the scale's trial division


def rand_with_denominators(rng, deg, dens):
    middle = [Fraction(rng.randint(-9, 9), rng.choice(dens)) for _ in range(deg - 1)]
    return Polynomial([0, *middle, 1])


def clears(c0, f):
    """True when every c0^(n-i) f_i is an integer."""
    n = f.degree
    return all((c0 ** (n - i) * Fraction(a)).denominator == 1 for i, a in enumerate(f.coeffs))


def lcm_of_denominators(f):
    return math.lcm(*[Fraction(a).denominator for a in f.coeffs])


class TestScale:
    """c = c0 * d^2, with c0 from `decompose._integer_form`."""

    def test_primes_above_the_bound_go_in_whole(self):
        # 2^6 at x^1 needs only 2^ceil(6/11); 97^4 there would need only 97,
        # but primes >= 64 are not divided out of the lcm
        n = 12
        f = Polynomial([0, Fraction(1, 2**6 * 97**4), *[0] * 9, Fraction(3, M61), 1])
        c0, F0 = decompose._integer_form(f)
        assert c0 == 2 * 97**4 * M61
        assert all(type(a) is int for a in F0)
        assert F0 == [c0 ** (n - i) * a for i, a in enumerate(f.coeffs)]
        c, F, _ = decompose._integer_components(f, 3)
        assert c == 9 * c0
        assert F.coeffs == tuple(c ** (n - i) * a for i, a in enumerate(f.coeffs))

    @pytest.mark.parametrize("seed", range(8))
    def test_minimal_on_smooth_denominators(self, seed):
        rng = random.Random(seed)
        n, d = rng.choice([(12, 2), (12, 4), (24, 6), (30, 5), (36, 6), (60, 4)])
        dens = [2**k * 3**m * q for k in range(7) for m in range(4) for q in (1, 5**3, 7**2, 61**3)]
        f = rand_with_denominators(rng, n, dens)
        c, _, _ = decompose._integer_components(f, d)
        c0, rem = divmod(c, d * d)
        assert rem == 0 and clears(c0, f)
        primes = [p for p in (2, 3, 5, 7, 61) if c0 % p == 0]
        assert primes
        for p in primes:
            assert not clears(c0 // p, f)

    @pytest.mark.parametrize("seed", range(8))
    def test_never_above_lcm_times_d_squared(self, seed):
        rng = random.Random(100 + seed)
        n = rng.choice([12, 24, 30, 36])
        dens = [1, 2, 4, 9, 25, 6, 97, 97**3, 2 * M61, 128]
        f = rand_with_denominators(rng, n, dens)
        for d in proper_divisors(n):
            c, _, _ = decompose._integer_components(f, d)
            assert (lcm_of_denominators(f) * d * d) % c == 0

    @pytest.mark.parametrize("n", [12, 24, 36])
    def test_no_remainder_when_denominators_share_primes_with_d(self, n):
        # the root's divisions are exact because c0 alone clears every
        # denominator and d^2 is left whole; the rational series root is the oracle
        rng = random.Random(n)
        for _ in range(4):
            f = rand_with_denominators(rng, n, [2, 3, 4, 6, 8, 9, 12, 16, 27, 32])
            assert is_decomposable(f) == []
            for d in proper_divisors(n):
                e = n // d
                root = series_dth_root(Polynomial([1, *(f[n - j] for j in range(1, e))]), d, e)
                expected = Polynomial([0, *(root[e - j] for j in range(1, e)), 1])
                assert right_component(f, d) == expected

    @pytest.mark.parametrize("n", [12, 24, 36])
    def test_integer_form_decides_as_try_decompose_does(self, n):
        # is_decomposable tries each divisor on f itself, keeps the integer
        # form c0^n f(x/c0) of the first, and scales each witness back once;
        # each result, Fraction and int 0 alike, is the one try_decompose
        # gives on f alone
        rng = random.Random(400 + n)
        dens = [1, 2, 9, 97, 4 * 97, M61]
        for d in proper_divisors(n):
            g, h = rand_with_denominators(rng, d, dens), rand_with_denominators(rng, n // d, dens)
            f = compose(g, h)
            expected = [(k, try_decompose(f, k)) for k in proper_divisors(n)]
            found = is_decomposable(f)
            assert (d, Decomposition(g=g, h=h)) in found
            assert repr(found) == repr([(k, dec) for k, dec in expected if dec is not None])

    @pytest.mark.parametrize("n,d", [(12, 2), (12, 3), (12, 4), (12, 6), (24, 4), (30, 5)])
    def test_witnesses_match_sympy_with_large_and_shared_primes(self, n, d):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        poly = TestSympyOracle.poly
        rng = random.Random(3000 * n + d)
        dens = [1, d, d * d, 2 * d, 97, M61, 4 * 97]
        g, h = rand_with_denominators(rng, d, dens), rand_with_denominators(rng, n // d, dens)
        f_sym = poly(sympy, g, x).compose(poly(sympy, h, x))
        f = Polynomial([Fraction(int(a.p), int(a.q)) for a in reversed(f_sym.all_coeffs())])
        found = dict(is_decomposable(f))
        assert found[d] == Decomposition(g=g, h=h)
        for dec in found.values():
            assert poly(sympy, dec.g, x).compose(poly(sympy, dec.h, x)) == f_sym


@pytest.mark.parametrize("n", [4, 6, 8, 9, 12, 16, 18, 24, 30, 36, 48, 60])
def test_continued_root_is_the_root_of_the_scaled_reverse(n):
    # the first 2e coefficients q of the integer root of U = reverse(F)
    # satisfy q^d = U mod x^(2e), with every division exact, for denominators
    # that share primes with d, powers of 97 and 2^61 - 1; a composition's
    # root is 0 at the orders e+1 .. 2e-1
    rng = random.Random(8000 + n)
    for d in proper_divisors(n):
        e = n // d
        dens = [1, d, d * d, 2 * d, 97, 97**2, 97**4, M61]
        g, h = rand_with_denominators(rng, d, dens), rand_with_denominators(rng, e, dens)
        for f in (rand_with_denominators(rng, n, dens), compose(g, h)):
            _, F, _ = decompose._integer_components(f, d)
            u = list(F.coeffs[::-1][: 2 * e])
            q = [1, *decompose._integer_root(u, d)]
            assert len(q) == 2 * e and all(type(a) is int for a in q)
            qd = Polynomial(q) ** d
            assert [qd[k] for k in range(2 * e)] == u
        assert not any(q[e + 1 :])


def test_is_decomposable_scales_once_and_tries_every_divisor(monkeypatch):
    # is_decomposable clears the denominators once; at each divisor
    # try_decompose gets the caller's f, and `_integer_form` serves its
    # form from the memo, without another lcm or prime scan
    rng = random.Random(60)
    g, h = rand_monic_original(rng, 6), rand_monic_original(rng, 10)
    f = compose(g, h)
    lcms, tries = [], []
    real_lcm, real_try = math.lcm, decompose.try_decompose
    monkeypatch.setattr(decompose.math, "lcm", lambda *b: lcms.append(b) or real_lcm(*b))
    monkeypatch.setattr(decompose, "try_decompose", lambda f, d: tries.append(d) or real_try(f, d))
    assert (6, Decomposition(g=g, h=h)) in is_decomposable(f)
    assert len(lcms) == 1 and tries == list(proper_divisors(60))


def test_kept_integer_form_never_leaks_between_inputs(monkeypatch):
    # distinct degree-12 inputs, one equal in value to another but a
    # different Polynomial, tried in turn and from 2 threads: every answer is
    # the one a call with no kept integer form gives
    rng = random.Random(12)
    f = compose(rand_monic_original(rng, 3), rand_monic_original(rng, 4))
    inputs = [
        f,
        Polynomial(list(f.coeffs)),
        compose(rand_with_denominators(rng, 2, [1, 97]), rand_with_denominators(rng, 6, [2, M61])),
        compose(rand_monic_original(rng, 4, den=1), rand_monic_original(rng, 3, den=1)),
        rand_monic_original(rng, 12),
    ]
    calls = [(op, p, d) for p in inputs for op in (try_decompose, right_component) for d in (2, 3, 4, 6)]
    calls += [(is_decomposable, p) for p in inputs]

    def answer(k):
        op, *args = calls[k]
        return repr(op(*args))

    def fresh(k):
        monkeypatch.setattr(decompose, "_form_memo", (None, None))
        return answer(k)

    expected = [fresh(k) for k in range(len(calls))]
    monkeypatch.undo()
    # is_decomposable tells the inputs apart, except the two equal in value
    assert expected[-5] == expected[-4] and len(set(expected[-5:])) == 4
    order = random.Random(0).sample(range(len(calls)), len(calls))
    assert [answer(k) for k in order] == [expected[k] for k in order]

    def run(seed):
        picks = random.Random(seed).choices(range(len(calls)), k=100)
        return [answer(k) == expected[k] for k in picks]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(2) as pool:
            results = list(pool.map(run, (1, 2), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert [len(r) for r in results] == [100, 100] and all(map(all, results))


def test_exact_input_never_runs_the_float_polish(monkeypatch):
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(decompose, "_dth_root", counted("root", polynomial._dth_root))
    monkeypatch.setattr(decompose, "_lstsq", counted("polish", decompose._lstsq))
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


PIN_DEGREES = (4, 6, 8, 9, 12, 16, 18, 24, 30, 36, 48, 60)


def pinned_exact_inputs():
    """Seeded exact f at each pinned degree: six random originals, then g(h)
    at every proper divisor, each followed by four copies moved by 1/7 at
    x^1, x^(n-e-1) (the top complement block), x^(n-e) (a multiple of e, so
    still a composition) and x^(n/2)."""
    for n in PIN_DEGREES:
        rng = random.Random(7000 + n)
        for _ in range(6):
            yield rand_monic_original(rng, n)
        for d in proper_divisors(n):
            e = n // d
            f = compose(rand_monic_original(rng, d), rand_monic_original(rng, e))
            yield f
            for i in (1, n - e - 1, n - e, n // 2):
                yield f + Polynomial([0] * i + [Fraction(1, 7)])


def rational_bench_inputs(seed):
    """The rational inputs of the `exact` benchmark pool at this seed, drawn
    as `perfbench/workloads.py` `ExactRational` draws them: one shuffled cycle
    of compose(g, h) at every proper divisor of 12, 24, 30, 36, 48 and 60 and
    both collision families at (6,2), (12,3), (20,4) and (42,6)."""
    rng = random.Random(seed)

    def coeff():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 5))

    cases = [("compose", n, d) for n in (12, 24, 30, 36, 48, 60) for d in proper_divisors(n)]
    cases += [(v, n, d) for n, d in ((6, 2), (12, 3), (20, 4), (42, 6)) for v in ("exp", "trig")]
    rng.shuffle(cases)
    x = Polynomial([0, 1])
    for kind, n, d in cases:
        e = n // d
        if kind == "compose":
            g = Polynomial([0, *(coeff() for _ in range(d - 1)), 1])
            h = Polynomial([0, *(coeff() for _ in range(e - 1)), 1])
            yield compose(g, h)
        elif kind == "exp":
            w = Polynomial([*(coeff() for _ in range(e // d)), 1])
            params = collisions.CollisionParams(n=n, d=d, u=x, v=x, a=coeff(), w=w)
            yield collisions.alpha_exp(params)
        else:
            params = collisions.CollisionParams(n=n, d=d, u=x, v=x, a=coeff(), z=coeff())
            yield collisions.alpha_trig(params)


# sha256 of the reprs of is_decomposable(f), then try_decompose(f, d) and
# right_component(f, d) at each proper divisor, over `pinned_exact_inputs`
EXACT_DECISION_SHA256 = "28e8935a39188b4da7a93e238544a952840ad65420b506999a9979cf28448c15"
# sha256 of the reprs of is_decomposable(f) over `rational_bench_inputs(81..83)`
BENCH_DECISION_SHA256 = "bb9074b4391cb79f78740d6e86a9b4fc3addefa49c3d7ac5e2baaa3b0bbbd4ed"


def _digest(reprs):
    return hashlib.sha256("\n".join(reprs).encode()).hexdigest()


def test_exact_decisions_are_pinned():
    reprs = []
    for f in pinned_exact_inputs():
        reprs.append(repr(is_decomposable(f)))
        for d in proper_divisors(f.degree):
            reprs += [repr(try_decompose(f, d)), repr(right_component(f, d))]
    assert _digest(reprs) == EXACT_DECISION_SHA256


def test_bench_decisions_are_pinned():
    reprs = [repr(is_decomposable(f)) for seed in (81, 82, 83) for f in rational_bench_inputs(seed)]
    assert _digest(reprs) == BENCH_DECISION_SHA256
