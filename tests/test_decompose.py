import hashlib
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from polydecomp import decompose
from polydecomp.decompose import (
    Decomposition,
    DivisorError,
    degree_bound,
    dimension,
    divisor_plan,
    is_composite,
    is_decomposable,
    nt_coordinates,
    nt_set,
    proper_divisors,
    right_component,
    section,
    section_components,
    try_decompose,
)
from polydecomp.batched import section_batch
from polydecomp.density import TubeSpec, cheng_bound
from polydecomp.polynomial import (
    Polynomial,
    compose,
    taylor_coefficients,
    x_power,
)


def P(*descending):
    return Polynomial(reversed(descending))


def rand_monic_original(rng, deg, num=9, den=4):
    return Polynomial(
        [0]
        + [Fraction(rng.randint(-num, num), rng.randint(1, den)) for _ in range(deg - 1)]
        + [1]
    )


def to_float(p):
    return Polynomial([float(c) for c in p.coeffs])


class TestNtSet:
    def test_example_20_5(self):
        ns = nt_set(20, 5)
        assert ns.nt == (4, 8, 12, 16, 17, 18, 19)
        assert ns.codim == 12
        assert len(ns.nt) == 7

    def test_example_4_2(self):
        ns = nt_set(4, 2)
        assert ns.nt == (2, 3)
        assert ns.codim == 1

    def test_example_6_3(self):
        ns = nt_set(6, 3)
        assert ns.nt == (2, 4, 5)
        assert ns.codim == 2

    def test_counting_identity_up_to_100(self):
        for n in range(4, 101):
            if not is_composite(n):
                continue
            for d in proper_divisors(n):
                ns = nt_set(n, d)
                e = n // d
                assert len(ns.nt) == d + e - 2
                assert ns.codim == n - d - e + 1
                assert len(ns.nt) + ns.codim == n - 1
                # the two constituent sets are disjoint
                top = set(range(n - e + 1, n))
                mults = set(range(e, n, e))
                assert not top & mults
                assert set(ns.nt) == top | mults
                assert set(ns.complement) == set(range(1, n)) - set(ns.nt)

    def test_rejects_bad_divisor(self):
        with pytest.raises(DivisorError):
            nt_set(20, 3)
        with pytest.raises(DivisorError):
            nt_set(7, 1)


class TestDivisorPlan:
    def test_square_of_prime(self):
        plan = divisor_plan(4)
        assert (plan.least_prime, plan.delta, plan.proper_divisors) == (2, 1, (2,))

    def test_two_large_components(self):
        plan = divisor_plan(6)
        assert (plan.least_prime, plan.delta, plan.proper_divisors) == (2, 2, (2, 3))

    def test_20(self):
        plan = divisor_plan(20)
        assert plan.least_prime == 2
        assert plan.delta == 2
        assert plan.proper_divisors == (2, 4, 5, 10)

    def test_rejects_prime(self):
        with pytest.raises(DivisorError):
            divisor_plan(7)
        with pytest.raises(DivisorError):
            divisor_plan(3)


def _degree_f(n, c=1):
    return x_power(n) + c * x_power(1) if n > 1 else x_power(1)


_DEGREE_CALLS = {
    "nt_set": lambda n, d: nt_set(n, d),
    "dimension": lambda n, d: dimension(n, d),
    "try_decompose exact": lambda n, d: try_decompose(_degree_f(n), d),
    "try_decompose float": lambda n, d: try_decompose(_degree_f(n, 0.5), d),
    "right_component": lambda n, d: right_component(_degree_f(n), d),
    "divisor_plan": lambda n, d: divisor_plan(n),
    "TubeSpec": lambda n, d: TubeSpec(n, d if n == 12 else None, 0.1, 1.0),
    "cheng_bound": lambda n, d: cheng_bound(n, 0.1, 1.0),
    "section_batch": lambda n, d: section_batch(np.zeros((1, d + n // d - 2)), n, d),
}


@pytest.mark.parametrize(
    "call,n,d,error,message",
    [
        ("nt_set", 7, 2, DivisorError, "degree 7 is not composite"),
        ("nt_set", 1, 2, DivisorError, "degree 1 is not composite"),
        ("nt_set", 12, 5, DivisorError, "5 is not a proper divisor of 12"),
        ("dimension", 7, 2, DivisorError, "degree 7 is not composite"),
        ("dimension", 1, 2, DivisorError, "degree 1 is not composite"),
        ("dimension", 12, 5, DivisorError, "5 is not a proper divisor of 12"),
        ("try_decompose exact", 7, 2, DivisorError, "degree 7 is not composite"),
        ("try_decompose exact", 1, 2, DivisorError, "degree 1 is not composite"),
        ("try_decompose exact", 12, 5, DivisorError, "5 is not a proper divisor of 12"),
        ("try_decompose float", 7, 2, DivisorError, "degree 7 is not composite"),
        ("try_decompose float", 1, 2, DivisorError, "degree 1 is not composite"),
        ("try_decompose float", 12, 5, DivisorError, "5 is not a proper divisor of 12"),
        ("right_component", 7, 2, DivisorError, "degree 7 is not composite"),
        ("right_component", 1, 2, DivisorError, "degree 1 is not composite"),
        ("right_component", 12, 5, DivisorError, "5 is not a proper divisor of 12"),
        # divisor_plan, and TubeSpec's union through it, word a prime or
        # small degree as the entry points above do
        ("divisor_plan", 7, None, DivisorError, "degree 7 is not composite"),
        ("divisor_plan", 1, None, DivisorError, "degree 1 is not composite"),
        ("TubeSpec", 7, None, DivisorError, "degree 7 is not composite"),
        ("TubeSpec", 1, None, DivisorError, "degree 1 is not composite"),
        ("TubeSpec", 12, 5, DivisorError, "5 is not a proper divisor of 12"),
        ("cheng_bound", 7, None, DivisorError, "degree 7 is not composite"),
        ("cheng_bound", 1, None, DivisorError, "degree 1 is not composite"),
        ("section_batch", 7, 2, DivisorError, "degree 7 is not composite"),
        ("section_batch", 1, 2, DivisorError, "degree 1 is not composite"),
        ("section_batch", 12, 5, DivisorError, "5 is not a proper divisor of 12"),
    ],
)
def test_degree_errors_name_the_rule(call, n, d, error, message):
    # prime n, n < 4 and a non-divisor d, through every public entry point
    with pytest.raises(ValueError) as info:
        _DEGREE_CALLS[call](n, d)
    assert type(info.value) is error and str(info.value) == message


class TestDimension:
    def test_example_20_5(self):
        assert dimension(20, 5) == 7

    def test_degree_bound_4_2(self):
        assert degree_bound(4, 2) == 4

    def test_dimension_6(self):
        assert dimension(6, 2) == dimension(6, 3) == 3

    def test_degree_bound_is_exact_integer(self):
        assert degree_bound(30, 2) == 2**15


class TestRightComponent:
    def test_small_example(self):
        assert right_component(P(1, 4, 5, 2, 0), 2) == P(1, 2, 0)

    def test_pure_power(self):
        for n, d in [(6, 2), (6, 3), (12, 4)]:
            assert right_component(x_power(n), d) == x_power(n // d)

    def test_instantiated_golden_values(self):
        # n=20, d=5 with f19 = f18 = f17 = 5: closed forms give
        # h3 = 1, h2 = -1, h1 = 3
        coeffs = [0] * 21
        coeffs[20] = 1
        coeffs[19] = coeffs[18] = coeffs[17] = Fraction(5)
        f = Polynomial(coeffs)
        assert right_component(f, 5) == P(1, 1, -1, 3, 0)

    def test_golden_closed_forms_random(self):
        rng = random.Random(101)
        for _ in range(10):
            c1, c2, c3 = (Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3))
            coeffs = [0] * 21
            coeffs[20] = 1
            coeffs[19], coeffs[18], coeffs[17] = c1, c2, c3
            coeffs[5] = Fraction(rng.randint(-9, 9))  # outside the determining set
            h = right_component(Polynomial(coeffs), 5)
            assert h[3] == c1 / 5
            assert h[2] == (-2 * c1**2 + 5 * c2) / 25
            assert h[1] == (6 * c1**3 - 20 * c2 * c1 + 25 * c3) / 125


def seeded_float_monic_original(n, field):
    rng = random.Random(n)
    if field == "complex":
        middle = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n - 1)]
        return Polynomial([0j, *middle, 1 + 0j])
    return Polynomial([0.0, *(rng.uniform(-1, 1) for _ in range(n - 1)), 1.0])


# sha256 of repr(right_component(seeded_float_monic_original(n, field), d)),
# recorded from the d-th root recurrence.  At e = 2 the root is f_(n-1)/d
# alone, so the d = 49 cases at n = 98 kept the hashes of the earlier root.
RIGHT_COMPONENT_SHA256 = {
    (12, 3, "float"): "0732911cbe0634c386bae790aed45eb79325e8caf4e4d1112a25dafd6471f458",
    (12, 3, "complex"): "7fc39b6e9129ec71f97ecc7f33bfd96b0b612273fe2b31cbd7dd69e2ab52427d",
    (100, 10, "float"): "d2442b1934d30abd3776d29fb7034bf5419b49ccb38821c82784b9da1f811068",
    (100, 10, "complex"): "11a825e56cf62523ce301b2ba4d946f2799759204251f7804434194ba92d5031",
    (98, 49, "float"): "df5067a53af08627e5bbf13683e35ef7ac7b45e59aa7793c31c9d15130287cec",
    (98, 49, "complex"): "0de2eaf687cfac0f8edac3605c813cdf5643e3e728ab64c634bd76c13e1790ab",
    (245, 49, "float"): "1cf3c3c770afdeb06029e333487fd9097256ffb0a7e3a74f58379938018863b8",
    (245, 49, "complex"): "1f682aa4179834857519dea46a05399fb0942136d5a83a970559e8d6f600756c",
}


def mpmath_right_component(f, d):
    """h_(e-1), ..., h_1 at 50 digits from the binomial series of the root:
    (1 + u)^(1/d) = sum_m binom(1/d, m) u^m mod x^e, u = sum_j f_(n-j) x^j."""
    n = f.degree
    e = n // d
    with mpmath.workdps(50):
        u = [mpmath.mpf(0), *(mpmath.mpmathify(f[n - j]) for j in range(1, e))]
        q, power = [mpmath.mpf(0)] * e, [mpmath.mpf(1)] + [mpmath.mpf(0)] * (e - 1)
        for m in range(e):
            c = mpmath.binomial(mpmath.mpf(1) / d, m)
            q = [a + c * b for a, b in zip(q, power)]
            power = [sum(power[i] * u[t - i] for i in range(t + 1)) for t in range(e)]
        return [q[e - j] for j in range(1, e)]


@pytest.mark.parametrize("n,d,field", sorted(RIGHT_COMPONENT_SHA256))
def test_float_right_component_is_pinned(n, d, field):
    f = seeded_float_monic_original(n, field)
    h = right_component(f, d)
    assert hashlib.sha256(repr(h).encode()).hexdigest() == RIGHT_COMPONENT_SHA256[n, d, field]
    reference = mpmath_right_component(f, d)
    for j, want in enumerate(reference, 1):
        assert abs(h[j] - want) <= 1e-14 * max(1, abs(want))


class TestTryDecompose:
    def test_small_positive(self):
        dec = try_decompose(P(1, 4, 5, 2, 0), 2)
        assert dec == Decomposition(g=P(1, 1, 0), h=P(1, 2, 0))

    def test_small_negative(self):
        assert try_decompose(P(1, 0, 0, 1, 0), 2) is None

    def test_roundtrip_random(self):
        rng = random.Random(103)
        for n, d in [(4, 2), (6, 2), (6, 3), (9, 3), (12, 4)]:
            for _ in range(10):
                g = rand_monic_original(rng, d)
                h = rand_monic_original(rng, n // d)
                f = compose(g, h)
                dec = try_decompose(f, d)
                assert dec is not None
                assert dec.g == g and dec.h == h

    def test_float_tolerance_vs_exact(self):
        # decomposable f with all coefficients in [-1, 1]: float and exact
        # decompositions agree to 1e-6 coefficientwise up to n = 16
        rng = random.Random(107)
        for n in range(4, 17):
            if not is_composite(n):
                continue
            for d in proper_divisors(n):
                ns = nt_set(n, d)
                done = 0
                while done < 5:
                    b = {i: Fraction(rng.randint(-8, 8), 8) for i in ns.nt}
                    f = section(b, n, d)
                    if any(abs(f[i]) > 1 for i in range(1, n)):
                        continue
                    done += 1
                    exact = try_decompose(f, d)
                    approx = try_decompose(to_float(f), d)
                    assert exact is not None and approx is not None
                    for want, got in ((exact.g, approx.g), (exact.h, approx.h)):
                        assert got.degree == want.degree
                        assert max(abs(float(a) - b) for a, b in zip(want, got)) <= 1e-6

    def test_float_rejects_indecomposable(self):
        f = to_float(P(1, 0, 0, 1, 0))  # x^4 + x
        assert try_decompose(f, 2) is None

    @pytest.mark.parametrize(
        "coeffs",
        [
            pytest.param([0.0, math.nan, 0.0, 0.0, 1.0], id="nan"),
            pytest.param([0.0, math.inf, 0.0, 0.0, 1.0], id="inf"),
            pytest.param([0.0, -math.inf, 0.0, 0.0, 1.0], id="-inf"),
            pytest.param([0.0, complex(0, math.nan), 0.0, 0.0, 1.0], id="nanj"),
            # a NaN and an inf in the middle, away from the coefficients the root reads
            pytest.param([0.0, 0.5, math.nan, -math.inf, 0.25, -0.5, 1.0], id="float-middle"),
            pytest.param(
                [0.0, 0.5j, complex(math.nan, 1), complex(1, math.inf), 0.25, -0.5, 1.0],
                id="complex-middle",
            ),
        ],
    )
    def test_non_finite_coefficient_rejected(self, coeffs):
        # abs(nan) >= threshold is False, so no threshold test can reject a nan
        f = Polynomial(coeffs)
        with pytest.raises(ValueError, match="finite"):
            try_decompose(f, 2)
        with pytest.raises(ValueError, match="finite"):
            is_decomposable(f)


def reference_try_decompose(f, d):
    """The documented exact rule applied to the full Taylor expansion: every
    G_i constant."""
    h = right_component(f, d)
    gs = taylor_coefficients(f, h, d)
    accept = all(gi.degree <= 0 for gi in gs)
    return Decomposition(g=Polynomial([gi[0] for gi in gs]), h=h) if accept else None


def rand_float_monic_original(rng, deg):
    return Polynomial([0.0] + [rng.uniform(-1, 1) for _ in range(deg - 1)] + [1.0])


class TestEarlyExit:
    """Exact try_decompose solves for g top down and compares; its answer
    must equal the rule applied to the whole Taylor expansion.  Float
    input runs no Taylor division, and its answer must match that rule on the
    exact input it was rounded from."""

    @pytest.mark.parametrize("n", [12, 24, 30])
    def test_exact_matches_full_expansion(self, n):
        rng = random.Random(n)
        for d in proper_divisors(n):
            for f in (
                rand_monic_original(rng, n),
                compose(rand_monic_original(rng, d), rand_monic_original(rng, n // d)),
            ):
                assert repr(try_decompose(f, d)) == repr(reference_try_decompose(f, d))

    @pytest.mark.parametrize("n", [12, 24, 30])
    def test_exact_near_misses_match_full_expansion(self, n):
        # a composition at d tried at every divisor, those dividing d among
        # them, and moved by 1/2 at each index: a move inside the top
        # complement block, at a multiple of e or far below must all be
        # decided as the whole expansion decides them
        rng = random.Random(500 + n)
        for d in proper_divisors(n):
            f = compose(rand_monic_original(rng, d), rand_monic_original(rng, n // d))
            for k in proper_divisors(n):
                assert repr(try_decompose(f, k)) == repr(reference_try_decompose(f, k))
            for i in range(1, n):
                moved = f + Polynomial([0] * i + [Fraction(1, 2)])
                assert repr(try_decompose(moved, d)) == repr(reference_try_decompose(moved, d))

    @pytest.mark.parametrize("n", [12, 24, 30])
    def test_compare_rejects_near_misses_that_pass_the_root(self, n):
        # the near misses above, counted: a try that the continued root
        # passes and try_decompose still rejects was rejected by the g-solve's
        # compare, so that path is exercised at every n
        rng = random.Random(500 + n)
        compared_away = 0
        for d in proper_divisors(n):
            f = compose(rand_monic_original(rng, d), rand_monic_original(rng, n // d))
            tries = [(f, k) for k in proper_divisors(n)]
            tries += [(f + Polynomial([0] * i + [Fraction(1, 2)]), d) for i in range(1, n)]
            for p, k in tries:
                got = try_decompose(p, k)
                assert repr(got) == repr(reference_try_decompose(p, k))
                passed_root = decompose._integer_components(p, k, prove=True) is not None
                compared_away += passed_root and got is None
        assert compared_away >= 1

    @pytest.mark.parametrize("n,d", [(12, 3), (30, 5), (60, 6), (64, 8)])
    def test_float_matches_full_expansion(self, n, d):
        # dyadic (g, h) composed over the rationals, and a copy moved off the
        # variety by about 1e-6 |f|_inf at a coefficient outside the nt set
        rng = random.Random(100 * n + d)
        complement = nt_set(n, d).complement
        for _ in range(3):
            g, h = (
                Polynomial([Fraction(c) for c in rand_float_monic_original(rng, k).coeffs])
                for k in (d, n // d)
            )
            f = compose(g, h)
            coeffs = list(f.coeffs)
            coeffs[rng.choice(complement)] += Fraction(1e-6) * max(map(abs, coeffs))
            for candidate in (f, Polynomial(coeffs)):
                want = reference_try_decompose(candidate, d)
                got = try_decompose(to_float(candidate), d)
                assert (want is None) == (got is None)
                if want is not None:
                    pairs = list(zip(want.g.coeffs + want.h.coeffs, got.g.coeffs + got.h.coeffs))
                    scale = max(1, *(abs(a) for a, _ in pairs))
                    assert max(abs(a - b) for a, b in pairs) <= 1e-9 * scale

    @pytest.mark.parametrize("n,d", [(12, 3), (12, 4), (24, 6), (30, 5)])
    @pytest.mark.parametrize("field", [Fraction, float])
    def test_exit_at_first_non_constant_coefficient(self, monkeypatch, n, d, field):
        # a*x*h^j has degree at most (d-2)e + 1, so it leaves the top e - 1
        # coefficients (and so h) unchanged, and adds a*x to G_j alone.  At
        # j = d-2 it reaches x^((d-2)e+1), the lowest index of the top
        # complement block, where the continued integer root rejects it;
        # below that the g-solve's compare rejects it.  No try, exact or
        # float, runs a polynomial division.
        rng = random.Random(n * d)
        e = n // d
        g, h = rand_monic_original(rng, d), rand_monic_original(rng, e)
        divisions = []
        real_divmod = Polynomial.__divmod__

        def counting_divmod(self, other):
            divisions.append(1)
            return real_divmod(self, other)

        for j in range(d - 1):
            f = compose(g, h) + Polynomial([0, Fraction(1, 2)]) * h**j
            gs = taylor_coefficients(f, right_component(f, d), d)
            assert [gi.degree > 0 for gi in gs].index(True) == j
            assert reference_try_decompose(f, d) is None
            f = Polynomial([field(c) for c in f.coeffs])
            monkeypatch.setattr(Polynomial, "__divmod__", counting_divmod)
            divisions.clear()
            assert try_decompose(f, d) is None
            monkeypatch.undo()
            assert divisions == []


class TestIsDecomposable:
    def test_single_divisor(self):
        out = is_decomposable(P(1, 4, 5, 2, 0))
        assert out == [(2, Decomposition(g=P(1, 1, 0), h=P(1, 2, 0)))]

    def test_pure_power_both_ways(self):
        out = is_decomposable(x_power(6))
        assert [(d, dec.g, dec.h) for d, dec in out] == [
            (2, x_power(2), x_power(3)),
            (3, x_power(3), x_power(2)),
        ]

    def test_indecomposable(self):
        assert is_decomposable(P(1, 0, 0, 1, 0)) == []

    def test_prime_degree_empty(self):
        assert is_decomposable(P(1, 0, 0, 0, 1, 0)) == []


class TestSection:
    def test_reproduces_known_composition(self):
        # compose over Fractions is the oracle: the section of f0's
        # determining coordinates must give back exactly the (g, h) it came from
        rng = random.Random(109)
        pairs = [(n, d) for n in range(4, 31) if is_composite(n) for d in proper_divisors(n)]
        for n, d in pairs + [(64, 8)]:
            g = rand_monic_original(rng, d)
            h = rand_monic_original(rng, n // d)
            f0 = compose(g, h)
            assert section_components(nt_coordinates(f0, d), n, d) == (g, h), (n, d)
            assert section(nt_coordinates(f0, d), n, d) == f0

    def test_all_zero_gives_pure_power(self):
        for n, d in [(4, 2), (6, 3), (20, 5)]:
            b = {i: 0 for i in nt_set(n, d).nt}
            assert section(b, n, d) == x_power(n)
            g, h = section_components(b, n, d)
            assert g == x_power(d) and h == x_power(n // d)

    def test_small_derived_example(self):
        # n=4, d=2, b3=4, b2=5: h = x^2+2x, g = x^2+x (g1 = 5-4), so f is the
        # brute-force composition below
        b = {3: Fraction(4), 2: Fraction(5)}
        g, h = section_components(b, 4, 2)
        assert h == P(1, 2, 0)
        assert g == P(1, 1, 0)
        f = section(b, 4, 2)
        assert f == compose(P(1, 1, 0), P(1, 2, 0))
        assert f == P(1, 4, 5, 2, 0)

    def test_section_components_reprs_are_unchanged(self):
        # one dtype=object row each of Fractions, floats and ints through the
        # kernel; recorded while the top row of every power was built as 1*1
        rng = random.Random(29)
        draws = (
            lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            lambda: rng.uniform(-1, 1),
            lambda: rng.randint(-5, 5),
        )
        reprs = []
        for n, d in [(6, 3), (12, 4), (20, 5)]:
            for draw in draws:
                reprs.append(repr(section_components({i: draw() for i in nt_set(n, d).nt}, n, d)))
        digest = hashlib.sha256("\n".join(reprs).encode()).hexdigest()
        assert digest == "e63792148df353f57b1e7253d1e7bcd3fcbef8f417aa09b1d08c14465f3a8027"

    def test_golden_g4_formula(self):
        rng = random.Random(113)
        for _ in range(10):
            b = {i: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for i in nt_set(20, 5).nt}
            g, _h = section_components(b, 20, 5)
            c1, c2, c3 = b[19], b[18], b[17]
            expected_g4 = b[16] - Fraction(
                21 * c1**4 - 90 * c2 * c1**2 + 50 * c2**2 + 100 * c3 * c1, 125
            )
            assert g[4] == expected_g4

    def test_nt_locality(self):
        # perturbing complement coefficients changes neither h nor g
        rng = random.Random(127)
        for n, d in [(6, 2), (12, 3), (20, 5)]:
            f = rand_monic_original(rng, n)
            ns = nt_set(n, d)
            h0 = right_component(f, d)
            g0, _ = section_components(nt_coordinates(f, d), n, d)
            for i in ns.complement:
                coeffs = list(f.coeffs) + [0] * (n + 1 - len(f.coeffs))
                coeffs[i] += Fraction(rng.randint(1, 5))
                f2 = Polynomial(coeffs)
                assert right_component(f2, d) == h0
                g2, _ = section_components(nt_coordinates(f2, d), n, d)
                assert g2 == g0

    def test_missing_determining_index_rejected(self):
        # section({5: 1}, 6, 2) used to escape as KeyError: 3; keys outside
        # the determining set are still ignored
        with pytest.raises(ValueError, match=r"determining indices \[3, 4\]"):
            section({5: 1, 1: 7}, 6, 2)
        assert section({3: 0, 4: 0, 5: 0, 1: 7}, 6, 2) == x_power(6)

    def test_section_is_right_inverse_of_projection(self):
        rng = random.Random(131)
        for n, d in [(8, 2), (9, 3), (10, 5)]:
            ns = nt_set(n, d)
            b = {i: Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for i in ns.nt}
            f = section(b, n, d)
            assert {i: f[i] for i in ns.nt} == b
            assert try_decompose(f, d) is not None
