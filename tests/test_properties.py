"""Property tests (hypothesis): the compose/decompose roundtrip and the section."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

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
from polydecomp.polynomial import Polynomial, compose  # noqa: E402

fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def monic_original(draw, min_degree=2, max_degree=5):
    degree = draw(st.integers(min_degree, max_degree))
    middle = draw(st.lists(fractions, min_size=degree - 1, max_size=degree - 1))
    return Polynomial([Fraction(0), *middle, Fraction(1)])


@settings(max_examples=30, deadline=None)
@given(g=monic_original(), h=monic_original())
def test_try_decompose_inverts_compose(g, h):
    assert try_decompose(compose(g, h), g.degree) == Decomposition(g=g, h=h)


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
