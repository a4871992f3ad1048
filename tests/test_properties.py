"""Property tests (hypothesis): compose and the original shift against sympy,
the compose/decompose roundtrip and the section."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

try:
    import sympy
except ImportError:
    sympy = None

from polydecomp.decompose import (  # noqa: E402
    Decomposition,
    is_composite,
    nt_coordinates,
    nt_set,
    proper_divisors,
    section,
    section_components,
    try_decompose,
)
from polydecomp.collisions import original_shift  # noqa: E402
from polydecomp.polynomial import Polynomial, compose  # noqa: E402

fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def monic_original(draw, min_degree=2, max_degree=5):
    degree = draw(st.integers(min_degree, max_degree))
    middle = draw(st.lists(fractions, min_size=degree - 1, max_size=degree - 1))
    return Polynomial([Fraction(0), *middle, Fraction(1)])


@st.composite
def exact_polynomial(draw, max_degree=6):
    """Any exact polynomial: ints, Fractions or both, not monic, possibly
    constant or zero, with any constant term."""
    ints = st.integers(-20, 20)
    scalars = draw(st.sampled_from([ints, fractions, st.one_of(ints, fractions)]))
    return Polynomial(draw(st.lists(scalars, max_size=max_degree + 1)))


def sympy_poly(p):
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    return sympy.Poly(coeffs or [0], sympy.Symbol("x"), domain="QQ")


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@settings(max_examples=60, deadline=None)
@given(g=exact_polynomial(), h=exact_polynomial(max_degree=4))
def test_compose_matches_sympy(g, h):
    assume(g.degree < 1 or h.degree >= 1)
    f = compose(g, h)
    assert sympy_poly(f) == sympy_poly(g).compose(sympy_poly(h))
    if all(type(c) is int for c in (*g, *h)):
        assert all(type(c) is int for c in f)
    elif f:
        *below, top = f.coeffs
        assert all(type(c) is (Fraction if c else int) for c in below)
        assert type(top) is (int if top.denominator == 1 else Fraction)


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@settings(max_examples=60, deadline=None)
@given(p=exact_polynomial(), a=st.one_of(st.just(0), st.integers(-9, 9), fractions))
@example(p=Polynomial(), a=Fraction(3, 2))
@example(p=Polynomial([Fraction(-7, 3)]), a=2)
@example(p=Polynomial([4, Fraction(1, 2), 0, 1]), a=0)
def test_original_shift_matches_sympy(p, a):
    # p(x + a) - p(a), from sympy's Taylor shift
    shifted = sympy_poly(p).shift(sympy.Rational(a.numerator, a.denominator))
    assert sympy_poly(original_shift(p, a)) == shifted - shifted.coeff_monomial(1)


@settings(max_examples=30, deadline=None)
@given(g=monic_original(), h=monic_original())
def test_try_decompose_inverts_compose(g, h):
    assert try_decompose(compose(g, h), g.degree) == Decomposition(g=g, h=h)


COMPOSITE_DEGREES = [n for n in range(4, 17) if is_composite(n)]


@st.composite
def exact_monic_original(draw):
    """An arbitrary Fraction monic original f of composite degree, or a composition."""
    n = draw(st.sampled_from(COMPOSITE_DEGREES))
    if draw(st.booleans()):
        d = draw(st.sampled_from(proper_divisors(n)))
        return compose(draw(monic_original(d, d)), draw(monic_original(n // d, n // d)))
    middle = draw(st.lists(fractions, min_size=n - 1, max_size=n - 1))
    return Polynomial([Fraction(0), *middle, Fraction(1)])


@settings(max_examples=40, deadline=None)
@given(f=exact_monic_original())
def test_try_decompose_is_sound_at_every_divisor(f):
    # the integer root raises ArithmeticError if an exact division leaves a remainder
    for d in proper_divisors(f.degree):
        dec = try_decompose(f, d)
        assert dec is None or compose(dec.g, dec.h) == f


DIVISOR_PAIRS = [(n, d) for n in range(4, 17) if is_composite(n) for d in proper_divisors(n)]


@st.composite
def section_input(draw):
    n, d = draw(st.sampled_from(DIVISOR_PAIRS))
    scalars = draw(st.sampled_from([st.integers(-9, 9), fractions]))
    return n, d, {i: draw(scalars) for i in nt_set(n, d).nt}


@settings(max_examples=40, deadline=None)
@given(case=section_input())
def test_section_is_idempotent_and_stays_exact(case):
    n, d, b = case
    f = section(b, n, d)
    assert section(nt_coordinates(f, d), n, d) == f
    g, h = section_components(b, n, d)
    assert all(isinstance(c, (int, Fraction)) for c in (*g, *h, *f))
