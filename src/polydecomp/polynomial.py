"""Dense univariate polynomial and truncated power-series arithmetic.

Coefficients live in one of three scalar realizations: exact rationals
(``int``/``fractions.Fraction``), double-precision reals (``float``), or
complex doubles (``complex``).  Field axioms hold exactly for the rational
realization and only approximately for the floating ones; every routine in
this module is written so that the exact path never leaves the rationals
(divisions promote ``int`` to ``Fraction``).  `compose` is one Horner loop of
`np.convolve` over dtype=object integers, float64 or complex128; exact input
clears denominators, composes in Z and divides once per coefficient at the end.

Coefficients are stored ascending: ``coeffs[i]`` multiplies ``x**i``.  The
zero polynomial is the empty tuple and reports degree -1.  Trailing
coefficients that compare equal to zero are trimmed on construction; no
tolerance-based trimming ever happens, so the structural degree of floating
polynomials is preserved (a leading ``1e-15`` stays).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

EXACT_TYPES = (int, Fraction)


class SeriesNormalizationError(ValueError):
    """d-th root was asked of a series whose constant term is not 1."""


class Polynomial:
    """Immutable dense univariate polynomial.

    >>> p = Polynomial([0, 2, 5, 4, 1])   # x^4 + 4x^3 + 5x^2 + 2x
    >>> p.degree
    4
    >>> p(1)
    12
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- basic structure ---------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, i: int):
        """Coefficient of x**i (0 beyond the stored degree)."""
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def __iter__(self):
        return iter(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def is_exact(self) -> bool:
        """True when every coefficient is an int or Fraction."""
        return all(isinstance(c, EXACT_TYPES) for c in self.coeffs)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial([other])
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial([other])
        return self + (-other)

    def __rsub__(self, other):
        return Polynomial([other]) + (-self)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return Polynomial([other * c for c in self.coeffs])
        return Polynomial(_mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        return Polynomial(_pow(self.coeffs, k))

    def __divmod__(self, other: "Polynomial"):
        """Quotient and remainder; divisor leading coefficient must be a unit."""
        if not isinstance(other, Polynomial):
            other = Polynomial([other])
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        dd = other.degree
        den = other.coeffs
        lc = den[-1]
        num = list(self.coeffs)
        unit = lc == 1
        exact = not unit and self.is_exact() and other.is_exact()  # exact operands, exact quotient
        q = [0] * (len(num) - dd)
        for i in range(len(num) - 1, dd - 1, -1):
            c = num[i]
            if c == 0:
                continue
            if not unit:
                c = Fraction(c, lc) if exact else c / lc
            q[i - dd] = c
            # leading position is consumed exactly; skip j == dd
            for j in range(dd):
                num[i - dd + j] -= c * den[j]
        return Polynomial(q), Polynomial(num[:dd])

    # -- evaluation --------------------------------------------------------

    def __call__(self, x):
        """Horner evaluation at a scalar ``x``; `compose` substitutes a polynomial."""
        result = 0
        for c in reversed(self.coeffs):
            result = result * x + c
        return result

    # -- display -----------------------------------------------------------

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            term = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
            if c == 1 and term:
                coef = ""
            elif c == -1 and term:
                coef = "-"
            else:
                coef = str(c)
                if term:
                    coef += "*"
            parts.append(coef + term)
        return " + ".join(parts).replace("+ -", "- ")


def x_power(k: int) -> Polynomial:
    """The monomial x**k."""
    if k < 0:
        raise ValueError("negative exponent")
    return Polynomial([0] * k + [1])


def _mul(a: Sequence, b: Sequence) -> list:
    """Coefficients of a*b, skipping zero coefficients of a."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b, i):
            out[j] += ai * bj
    return out


def _pow(base: Sequence, m: int) -> list:
    """base**m (m >= 0) by repeated squaring."""
    result = [1]
    while m:
        if m & 1:
            result = _mul(result, base)
        m >>= 1
        if m:
            base = _mul(base, base)
    return result


# -- monic original polynomials ---------------------------------------------


def is_monic_original(p: Polynomial) -> bool:
    """Leading coefficient 1 and constant term 0, degree at least 1."""
    return p.degree >= 1 and p.coeffs[-1] == 1 and p.coeffs[0] == 0


def require_monic_original(p: Polynomial) -> Polynomial:
    if not is_monic_original(p):
        raise ValueError(f"polynomial is not monic original: {p}")
    return p


def compose(g: Polynomial, h: Polynomial) -> Polynomial:
    """g(h); degrees multiply.  h must be nonconstant when g is.

    One Horner loop of `np.convolve` over dtype=object integers, float64 or
    complex128; other scalar types go on dtype=object, and float overflow
    gives inf without a warning.  Exact input is scaled to integers first:
    with G = g*dg and H = h*dh for the lcms dg, dh of the denominators and
    d = deg g, F = sum_i G_i H^i dh^(d-i) is computed in Z and divided once
    per coefficient by dg*dh^d.  All-int input gives ints; otherwise a zero
    coefficient is int 0, a nonzero one below the top is a Fraction, and the
    top one is an int when it is integral.
    """
    if g.degree >= 1 and h.degree < 1:
        raise ValueError("composition with constant right factor")
    if g.is_zero:
        return g
    exact = g.is_exact() and h.is_exact()
    if exact:
        # lists, not generators: CPython builds *args from a generator at a
        # guessed size and resizes it, so each call grows a tuple free list
        dg = math.lcm(*[c.denominator for c in g.coeffs])
        dh = math.lcm(*[c.denominator for c in h.coeffs])
        gs = [c.numerator * (dg // c.denominator) for c in g.coeffs]
        hs = [c.numerator * (dh // c.denominator) for c in h.coeffs]
    else:
        dh, gs, hs = 1, g.coeffs, h.coeffs
    hs = np.array(hs, object if exact else np.array((*gs, *hs)).dtype)
    acc = np.array(gs[-1:], hs.dtype)
    scale = 1
    with np.errstate(all="ignore"):
        for c in reversed(gs[:-1]):
            acc = np.convolve(acc, hs)
            scale *= dh
            if c:
                acc[0] += c * scale if exact else c
    acc = acc.tolist()
    if not exact or all(type(c) is int for c in (*g.coeffs, *h.coeffs)):
        return Polynomial(acc)
    den = dg * scale
    top = Fraction(acc[-1], den)
    out = [Fraction(a, den) if a else 0 for a in acc[:-1]]
    return Polynomial([*out, top.numerator if top.denominator == 1 else top])


# -- truncated power series ---------------------------------------------------


def series_inverse(p: Polynomial, k: int) -> Polynomial:
    """q with p*q = 1 mod x^k, in the field of p.  The package does not call
    it; it stays while perfbench/tracer.py traces it by name (ROADMAP item 7)."""
    if k <= 0 or p[0] == 0:
        raise ValueError("series_inverse needs k > 0 and a nonzero constant term")
    r = Fraction(1) / p[0] if p.is_exact() else 1 / p[0]
    q = [r]
    for t in range(1, k):
        q.append(-r * sum(p[j] * q[t - j] for j in range(1, min(t, p.degree) + 1)))
    return Polynomial(q)


def series_dth_root(p: Polynomial, d: int, k: int) -> Polynomial:
    """q with q**d = p mod x^k, q(0) = 1; unique with these properties.

    The triangular recurrence t*q_t = sum_j ((d+1)j - d*t)/d * p_j * q_(t-j)
    (Knuth, TAOCP vol. 2, section 4.7); requires p(0) = 1.  Exact input
    stays exact; otherwise each ((d+1)j - d*t)/d is an int/int division,
    rounded once.  Its loop, `_dth_root`, is also the float `try_decompose`'s
    root and, over rows, `batched.series_root_batch`.
    """
    if d <= 0:
        raise ValueError("root index must be positive")
    if k <= 0:
        raise ValueError("truncation order must be positive")
    if p[0] != 1:
        raise SeriesNormalizationError("series constant term must be 1")
    return Polynomial(_dth_root(p.coeffs[:k], d, k, p.is_exact()))


def _dth_root(u: Sequence, d: int, k: int, exact: bool) -> list:
    """q_0, ..., q_(k-1) of `series_dth_root` from the coefficients u of p,
    u_0 = 1; each u_j with j >= len(u) counts as 0 and adds no term.  Each
    u_j may be a numpy row of N scalars: the arithmetic is elementwise."""
    q = [1]
    for t in range(1, k):
        s = Fraction(0) if exact else 0
        for j in range(1, min(t + 1, len(u))):
            m = (d + 1) * j - d * t
            if m:
                s += (Fraction(m, d) if exact else m / d) * u[j] * q[t - j]
        q.append(s / t)
    return q


def taylor_coefficients(f: Polynomial, h: Polynomial, d: int) -> tuple:
    """Generalized Taylor expansion f = sum_i G_i h^i with deg G_i < deg h.

    Returns (G_0, ..., G_d), computed by repeated division with remainder.
    """
    if h.degree < 1:
        raise ValueError("expansion base must be nonconstant")
    if f.degree > d * h.degree:
        raise ValueError("degree of f exceeds d * deg h")
    gs, r = [], f
    for _ in range(d + 1):
        r, rem = divmod(r, h)
        gs.append(rem)
    return tuple(gs)


# -- text format ---------------------------------------------------------------

FIELDS = ("rational", "real64", "complex64")


def parse_scalar(text: str, field: str = "rational"):
    """Parse one coefficient: 'p/q' rationals, finite reals, finite 'a+bi' complexes."""
    text = text.strip()
    if not text:
        raise ValueError("empty coefficient")
    if field not in FIELDS:
        raise ValueError(f"unknown field {field!r}")
    try:
        if field == "rational":
            return Fraction(text)
        value = float(text) if field == "real64" else complex(text.replace("i", "j").replace(" ", ""))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    except ValueError:
        raise ValueError(f"cannot parse coefficient {text!r} as {field}") from None
    if not cmath.isfinite(value):
        raise ValueError(f"coefficient {text!r} is not finite")
    return value


def format_scalar(c) -> str:
    if isinstance(c, complex):  # the sign of a zero part is kept
        return f"{c.real}{c.imag:+}i"
    try:
        return str(c)
    except ValueError:  # past Python's int-to-str digit limit
        raise ValueError("a coefficient of the result has more digits than can be printed") from None


def parse_polynomial(text: str, field: str = "rational") -> Polynomial:
    """Parse the comma-separated descending-power coefficient format.

    "1,4,5,2,0" is x^4 + 4x^3 + 5x^2 + 2x.
    """
    parts = text.split(",")
    coeffs = [parse_scalar(s, field) for s in parts]
    return Polynomial(reversed(coeffs))


def format_polynomial(p: Polynomial) -> str:
    """Descending-power comma format, inverse of parse_polynomial."""
    if p.is_zero:
        return "0"
    return ",".join(format_scalar(c) for c in reversed(p.coeffs))
