"""Property tests (hypothesis): the compose/decompose roundtrip."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from polydecomp.decompose import Decomposition, try_decompose  # noqa: E402
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
