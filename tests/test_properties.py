"""Property tests (hypothesis): compose and the original shift against sympy,
the compose/decompose roundtrip, the section, the float decomposition
contract, and the CLI's exit codes on malformed input."""

import contextlib
import io
import json
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
from polydecomp.cli import main  # noqa: E402
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


FLOAT_PAIRS = [(n, d) for n in range(4, 31) if is_composite(n) for d in proper_divisors(n)]
float_scalars = st.one_of(
    st.floats(-1, 1), st.complex_numbers(max_magnitude=1, allow_nan=False, allow_infinity=False)
)


@st.composite
def float_composition(draw):
    """(n, d, g, h, j): float or complex g, h with coefficients in the unit
    disk, and an index j outside nt_set(n, d), so f + c x^j leaves the variety."""
    n, d = draw(st.sampled_from(FLOAT_PAIRS))
    g, h = (
        Polynomial([0.0, *draw(st.lists(float_scalars, min_size=k - 1, max_size=k - 1)), 1.0])
        for k in (d, n // d)
    )
    return n, d, g, h, draw(st.sampled_from(nt_set(n, d).complement))


@settings(max_examples=60, deadline=None)
@given(case=float_composition())
def test_float_decomposition_accepts_genuine_and_rejects_perturbed(case):
    n, d, g, h, j = case
    f = compose(g, h)
    dec = try_decompose(f, d)
    assert dec is not None
    true, got = g.coeffs + h.coeffs, dec.g.coeffs + dec.h.coeffs
    assert max(abs(a - b) for a, b in zip(got, true)) <= 1e-9 * max(1.0, *map(abs, true))
    coeffs = list(f.coeffs)
    coeffs[j] += 1e-6 * max(map(abs, coeffs))
    assert try_decompose(Polynomial(coeffs), d) is None


# -- the CLI: every input ends in exit 0, 2 or 3, never in an escaped exception

DROP = object()
SCALARS = ["0", "1", "-2", "1/3", "1/0", "2.5", "nan", "inf", "1e400", "1e300", "abc", "", "1+2i"]
POLYS = [
    "1,0", "1,1,0", "1,0,0", "1,2,0,0", "2,1,0", "1,1,5", "1,4,5,2,0", "1,0,0,0,0",
    "1,0,-6,0,9,0,0", "1,nan,0", "1,1e300,0", "1,1e200,1e200,0", "1,,2", "abc", "0", "1",
]
FIELDS = ["rational", "real64", "complex64"]
COLLIDE_BASES = [
    {"variant": "trig", "n": 6, "d": 2, "u": "1,0", "v": "1,0", "a": "0", "z": "1"},
    {"variant": "exp", "n": 6, "d": 2, "u": "1,0", "v": "1,0", "a": "1/2", "w": ["0"]},
    {"variant": "trig", "n": 12, "d": 2, "u": "1,1,0", "v": "1,0,0", "a": "2", "z": "-1"},
    {"variant": "exp", "n": 20, "d": 4, "u": "1,0", "v": "1,0", "a": "0", "w": ["3"]},
]
COLLIDE_BAD = {
    "variant": st.sampled_from(["poly", 3, None]),
    "n": st.sampled_from([4, 9, 20, 0, -6, 6.5, 6.0, "6", None, True]),
    "d": st.sampled_from([3, 4, 0, 1, 2.5, "2", None]),
    "u": st.sampled_from(POLYS),
    "v": st.sampled_from(POLYS),
    "a": st.sampled_from([*SCALARS, 1.5, None]),
    "w": st.one_of(st.lists(st.sampled_from([*SCALARS, 0, 1]), max_size=4), st.sampled_from(["0", None])),
    "z": st.sampled_from([*SCALARS, 0, None]),
}
ESTIMATE_BASES = [
    {"--n": "6", "--d": "2", "--eps": "0.1", "--samples": "16"},
    {"--n": "6", "--union": True, "--eps": "0.2", "--samples": "16", "--seed": "3"},
    {"--n": "20", "--d": "4", "--eps": "0.5", "--samples": "8", "--mode": "conditional",
     "--field": "complex64"},
    {"--n": "9", "--d": "3", "--eps": "0.1,0.2", "--B": "2", "--samples": "4", "--format": "csv"},
]
ESTIMATE_BAD = {
    "--n": st.sampled_from(["-1", "0", "7", "12", "x"]),
    "--d": st.sampled_from(["3", "4", "0", "-2", "2,x", ""]),
    "--union": st.just(True),
    "--eps": st.sampled_from(["2", "0", "-0.1", "nan", "inf", "1e199", "x"]),
    "--B": st.sampled_from(["0.05", "1e200", "1e308", "inf", "nan", "-1", "x"]),
    "--samples": st.sampled_from(["1", "0", "-3", "x"]),
    "--seed": st.sampled_from(["-1", str(2**64), "x"]),
    "--mode": st.sampled_from(["conditional", "bogus"]),
    "--field": st.sampled_from(["real64", "rational"]),
}


def spoil(draw, base: dict, bad: dict) -> dict:
    """base with up to two entries dropped or replaced by a value from bad."""
    out = dict(base)
    for key in draw(st.sets(st.sampled_from(sorted(bad)), max_size=2)):
        value = draw(st.one_of(st.just(DROP), bad[key]))
        if value is DROP:
            out.pop(key, None)
        else:
            out[key] = value
    return out


def as_argv(command: str, entries: dict) -> list:
    """Positional entries in order, then flags; a True flag takes no value."""
    argv = [command, *(v for k, v in entries.items() if not k.startswith("--"))]
    for flag, value in entries.items():
        if flag.startswith("--"):
            argv += [flag] if value is True else [flag, value]
    return argv


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(["collide", "decompose", "compose", "estimate"]))
    field = {"--field": st.sampled_from(FIELDS)}
    if command == "collide":
        payload = json.dumps(spoil(draw, draw(st.sampled_from(COLLIDE_BASES)), COLLIDE_BAD))
        params = draw(st.one_of(st.just(payload), st.sampled_from(["[1, 2]", "null", "3", "{not json"])))
        return as_argv(command, spoil(draw, {"params": params}, field))
    if command == "decompose":
        base = draw(st.sampled_from([{"f": "1,4,5,2,0"}, {"f": "1,0,-6,0,9,0,0", "--d": "3"}]))
        bad = {"f": st.sampled_from(POLYS), "--d": st.sampled_from(["-1", "0", "1", "2", "4", "x"]), **field}
        return as_argv(command, spoil(draw, base, bad))
    if command == "compose":
        bad = {"g": st.sampled_from(POLYS), "h": st.sampled_from(POLYS), **field}
        return as_argv(command, spoil(draw, {"g": "1,1,0", "h": "1,2,0"}, bad))
    return as_argv(command, spoil(draw, draw(st.sampled_from(ESTIMATE_BASES)), ESTIMATE_BAD))


@settings(max_examples=300, deadline=None)
@given(argv=cli_argv())
def test_cli_exit_code_is_the_whole_report(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 2, 3)
