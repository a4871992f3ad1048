"""Dense univariate polynomial and truncated power-series arithmetic.

Coefficients live in one of three scalar realizations: exact rationals
(``int``/``fractions.Fraction``), double-precision reals (``float``), or
complex doubles (``complex``).  Field axioms hold exactly for the rational
realization and only approximately for the floating ones; every routine in
this module is written so that the exact path never leaves the rationals
(divisions promote ``int`` to ``Fraction``).

Coefficients are stored ascending: ``coeffs[i]`` multiplies ``x**i``.  The
zero polynomial is the empty tuple and reports degree -1.  Trailing
coefficients that compare equal to zero are trimmed on construction; no
tolerance-based trimming ever happens, so the structural degree of floating
polynomials is preserved (a leading ``1e-15`` stays).
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

EXACT_TYPES = (int, Fraction)


class NonInvertibleSeriesError(ValueError):
    """Series inversion was asked of a series with zero constant term."""


class SeriesNormalizationError(ValueError):
    """d-th root was asked of a series whose constant term is not 1."""


def _div(a, b):
    """Field division that keeps exact scalars exact (int/int -> Fraction)."""
    if isinstance(a, EXACT_TYPES) and isinstance(b, EXACT_TYPES):
        return Fraction(a) / Fraction(b)
    return a / b


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
        a, b = self.coeffs, other.coeffs
        return Polynomial(_trunc_mul(a, b, len(a) + len(b) - 1))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        return Polynomial(_trunc_pow(list(self.coeffs), k, max(k * self.degree, 0) + 1))

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
        if len(num) <= dd:
            return Polynomial(), self
        q = [0] * (len(num) - dd)
        for i in range(len(num) - 1, dd - 1, -1):
            c = num[i]
            if c == 0:
                continue
            c = _div(c, lc)
            q[i - dd] = c
            # leading position is consumed exactly; skip j == dd
            for j in range(dd):
                num[i - dd + j] -= c * den[j]
        return Polynomial(q), Polynomial(num[:dd])

    # -- evaluation --------------------------------------------------------

    def __call__(self, x):
        """Horner evaluation; ``x`` may be a scalar or another Polynomial."""
        result = Polynomial() if isinstance(x, Polynomial) else 0
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


def _list_sub(a: Sequence, b: Sequence) -> list:
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return out


def _trunc_mul(a: Sequence, b: Sequence, k: int) -> list:
    """Coefficients of a*b mod x^k."""
    if not a or not b or k <= 0:
        return []
    out = [0] * min(k, len(a) + len(b) - 1)
    for i, ai in enumerate(a[:k]):
        if ai == 0:
            continue
        for j, bj in enumerate(b[: k - i], i):
            out[j] += ai * bj
    return out


def truncate(p: Polynomial, k: int) -> Polynomial:
    """p mod x^k."""
    return Polynomial(p.coeffs[:k])


# -- monic original polynomials ---------------------------------------------


def is_monic_original(p: Polynomial) -> bool:
    """Leading coefficient 1 and constant term 0, degree at least 1."""
    return p.degree >= 1 and p.coeffs[-1] == 1 and p.coeffs[0] == 0


def require_monic_original(p: Polynomial) -> Polynomial:
    if not is_monic_original(p):
        raise ValueError(f"polynomial is not monic original: {p}")
    return p


def compose(g: Polynomial, h: Polynomial) -> Polynomial:
    """g(h); degrees multiply.  h must be nonconstant when g is."""
    if g.degree >= 1 and h.degree < 1:
        raise ValueError("composition with constant right factor")
    return g(h)


def reverse(f: Polynomial) -> Polynomial:
    """Coefficient reversal x^n * f(1/x) of a monic original f of degree n.

    The result has constant term 1 (the old leading coefficient) and degree
    at most n-1 (the old constant term 0 falls off the end).
    """
    require_monic_original(f)
    return Polynomial(reversed(f.coeffs))


# -- truncated power series ---------------------------------------------------


def series_inverse(p: Polynomial, k: int) -> Polynomial:
    """q with p*q = 1 mod x^k, by Newton iteration (quadratic convergence).

    Truncation lengths double 1, 2, 4, ... and finish at exactly k.
    """
    if k <= 0:
        raise ValueError("truncation order must be positive")
    c0 = p[0]
    if c0 == 0:
        raise NonInvertibleSeriesError("series has zero constant term")
    v = [_div(1, c0)]
    pc = p.coeffs
    prec = 1
    while prec < k:
        prec = min(2 * prec, k)
        pv = _trunc_mul(pc, v, prec)
        corr = [-c for c in pv]
        corr[0] += 2
        v = _trunc_mul(v, corr, prec)
    return Polynomial(v)


def _trunc_pow(base: list, m: int, k: int) -> list:
    """base**m mod x^k (m >= 0)."""
    result = [1]
    b = base[:k]
    while m:
        if m & 1:
            result = _trunc_mul(result, b, k)
        m >>= 1
        if m:
            b = _trunc_mul(b, b, k)
    return result


def series_dth_root(p: Polynomial, d: int, k: int) -> Polynomial:
    """q with q**d = p mod x^k, q(0) = 1; unique with these properties.

    Newton iteration with initial value 1; requires p(0) = 1 and a scalar
    domain of characteristic 0 (divisions by d occur).
    """
    if d <= 0:
        raise ValueError("root index must be positive")
    if k <= 0:
        raise ValueError("truncation order must be positive")
    if p[0] != 1:
        raise SeriesNormalizationError("series constant term must be 1")
    q = [1]
    prec = 1
    while prec < k:
        prec = min(2 * prec, k)
        qd1 = _trunc_pow(q, d - 1, prec)
        qd = _trunc_mul(qd1, q, prec)
        num = _list_sub(qd[:prec], p.coeffs[:prec])
        denom_inv = series_inverse(Polynomial([d * c for c in qd1]), prec)
        corr = _trunc_mul(num, denom_inv.coeffs, prec)
        q = _list_sub(q, corr)[:prec]
    return Polynomial(q)


def _taylor_terms(f: Polynomial, h: Polynomial, d: int) -> Iterator[Polynomial]:
    """Yield G_0, ..., G_d of f = sum_i G_i h^i lazily, one division each."""
    e = h.degree
    if e < 1:
        raise ValueError("expansion base must be nonconstant")
    if f.degree > d * e:
        raise ValueError("degree of f exceeds d * deg h")
    r = f
    for _ in range(d + 1):
        r, rem = divmod(r, h)
        yield rem


def taylor_coefficients(f: Polynomial, h: Polynomial, d: int) -> tuple:
    """Generalized Taylor expansion f = sum_i G_i h^i with deg G_i < deg h.

    Returns (G_0, ..., G_d), computed by repeated division with remainder.
    """
    return tuple(_taylor_terms(f, h, d))


# -- tolerant comparison -------------------------------------------------------


def poly_allclose(p: Polynomial, q: Polynomial, tol: float = 1e-9) -> bool:
    """Coefficientwise absolute comparison, the float equality contract."""
    n = max(len(p.coeffs), len(q.coeffs))
    return all(abs(p[i] - q[i]) <= tol for i in range(n))


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
    if isinstance(c, complex):
        sign = "+" if c.imag >= 0 else "-"
        return f"{c.real!r}{sign}{abs(c.imag)!r}i"
    if isinstance(c, float):
        return repr(c)
    return str(c)


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
