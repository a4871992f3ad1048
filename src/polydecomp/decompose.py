"""Decomposition of monic original polynomials f = g(h).

The candidate right component h of degree e = n/d (`right_component`) is
the reverse of the d-th root of the reversed input.  Exact input is decided
over the integers: with c = c0 * d^2, where every c0^(n-i) f_i is an integer
and c0 is the least such scale unless a denominator has a prime factor
above 61 (see `_integer_form`), F(x) = c^n f(x/c) is a monic integer
polynomial, and f = g(h) exactly when F = G(H) with H(x) = c^e h(x/c) and
G(y) = c^n g(y/c^e).  H comes from an integer d-th root whose divisions are
exact, and G from the generalized Taylor expansion of F around the monic H,
which stays in the integers and stops at the first non-constant coefficient.
Float and complex input are decided by a residual instead (Corless,
Giesbrecht, Jeffrey & Watt, "Approximate polynomial decomposition", ISSAC
1999): linearized least-squares steps polish the candidate pair, and f
decomposes when the polished |g(h) - f|_inf is at most
1e-10 * max(1, |f|_inf).  That decision runs on float64 or complex128
arrays, converted once per call and updated in place; only the witness is
built as `Polynomial`s (see `try_decompose`).

Because h is determined by the e-1 highest coefficients of f and g by the
coefficients at powers that are multiples of e, the whole candidate (g, h)
depends only on a distinguished index set of size d + n/d - 2.  The map from
those coordinates back to the unique matching composition, `section`, is a
polynomial right inverse of composition; `batched._section` computes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from .batched import _section
from .polynomial import (
    EXACT_TYPES,
    Polynomial,
    _dth_root,
    _taylor_terms,
    compose,
    require_monic_original,
)

# the largest relative residual rho of an accepted float witness
_TAU = 1e-10


class DivisorError(ValueError):
    """Degree arithmetic violated: not composite, or not a proper divisor."""


def proper_divisors(n: int) -> tuple[int, ...]:
    """Divisors of n other than 1 and n, ascending."""
    # a list, not a generator: see the comment on math.lcm in compose
    return tuple([d for d in range(2, n) if n % d == 0])


def least_prime_factor(n: int) -> int:
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def is_composite(n: int) -> bool:
    return n >= 4 and least_prime_factor(n) < n


def _require_proper_divisor(n: int, d: int) -> None:
    if not 1 < d < n or n % d != 0:  # a proper divisor makes n composite
        if not is_composite(n):
            raise DivisorError(f"degree {n} is not composite")
        raise DivisorError(f"{d} is not a proper divisor of {n}")


@dataclass(frozen=True)
class NtSet:
    """The coefficient indices that determine the candidate decomposition.

    nt = {n-1, ..., n-e+1} union {i in 1..n-1 : e | i}; the complement has
    size codim = n - d - n/d + 1, the codimension of the decomposable
    variety inside the space of monic original degree-n polynomials.
    """

    n: int
    d: int
    e: int
    nt: tuple[int, ...]
    complement: tuple[int, ...]
    codim: int


@dataclass(frozen=True)
class Decomposition:
    """A pair g, h of monic original polynomials with f = g(h)."""

    g: Polynomial
    h: Polynomial


@dataclass(frozen=True)
class DivisorPlan:
    """Divisor bookkeeping for a composite degree.

    delta is 1 when n is the square of its least prime factor (one large
    component of the decomposable variety), else 2.
    """

    n: int
    proper_divisors: tuple[int, ...]
    least_prime: int
    delta: int


def nt_set(n: int, d: int) -> NtSet:
    _require_proper_divisor(n, d)
    e = n // d
    top = set(range(n - e + 1, n))
    multiples = set(range(e, n, e))
    nt = tuple(sorted(top | multiples))
    complement = tuple(i for i in range(1, n) if i not in top and i not in multiples)
    return NtSet(n=n, d=d, e=e, nt=nt, complement=complement, codim=len(complement))


def dimension(n: int, d: int) -> int:
    """d + n/d - 2, the dimension of the image of composition at divisor d."""
    _require_proper_divisor(n, d)
    return d + n // d - 2


def degree_bound(n: int, d: int) -> int:
    """d ** (d + n/d - 2), an upper bound for the degree of that image."""
    return d ** dimension(n, d)


def divisor_plan(n: int) -> DivisorPlan:
    if not is_composite(n):
        raise DivisorError(f"degree {n} is not composite")
    l = least_prime_factor(n)
    return DivisorPlan(
        n=n,
        proper_divisors=proper_divisors(n),
        least_prime=l,
        delta=1 if n == l * l else 2,
    )


# _integer_form divides the primes below 64 out of the lcm of the
# denominators; a cofactor they leave goes into the scale whole
_SMALL_PRIMES = tuple([p for p in range(2, 64) if least_prime_factor(p) == p])


def _integer_form(f: Polynomial, s: int = 1) -> tuple[int, list[int]]:
    """(c, F) for exact monic original f: c = c0 * s and F_i = c^(n-i) f_i,
    an integer, so that F(x) = c^n f(x/c).

    c0 is the product of p^max_i ceil(v_p(den f_i) / (n-i)) over the primes
    p < 64, times the cofactor of the lcm of the denominators that those
    primes leave.  So c0 divides the lcm, and it is the least scale that
    clears every denominator when no denominator has a prime factor >= 64.
    """
    require_monic_original(f)
    n = f.degree
    fs = [(a.numerator, a.denominator) for a in f.coeffs]
    # a list, not a generator: see polynomial.compose
    rest = math.lcm(*[b for _, b in fs])
    c0 = 1
    for p in _SMALL_PRIMES:
        pk = [1]  # p^0, ..., p^v with v = v_p(lcm)
        while not rest % p:
            rest //= p
            pk.append(pk[-1] * p)
        if len(pk) > 1:
            v = {q: k for k, q in enumerate(pk)}  # v_p(b) = v[gcd(b, p^v)]
            need = [-(-v[math.gcd(b, pk[-1])] // (n - i)) for i, (_, b) in enumerate(fs[:n])]
            c0 *= p ** max(need)
    c0 *= rest
    c = c0 * s
    powers = [1]
    for _ in range(n):
        powers.append(powers[-1] * c)
    return c, [a * (powers[n - i] // b) for i, (a, b) in enumerate(fs)]


def _integer_components(f: Polynomial, d: int) -> tuple[int, Polynomial, Polynomial]:
    """(c, F, H) for exact monic original f: (c, F) = `_integer_form(f, d^2)`
    and F's candidate right component H.

    H is the reverse of the d-th root q of U = reverse(F), from the recurrence
    d*t*q_t = sum_k ((d+1)k - d*t) U_k q_(t-k).  The division by d*t is
    exact because c0 alone clears the denominators, so U_k keeps the factor
    d^(2k) of c^k whole, and d^(2m) * binom(1/d, m) is an integer.
    """
    c, F = _integer_form(f, d * d)
    n = f.degree
    _require_proper_divisor(n, d)
    u = F[::-1]
    q = [1]
    for t in range(1, n // d):
        s = sum(((d + 1) * k - d * t) * u[k] * q[t - k] for k in range(1, t + 1))
        qt, r = divmod(s, d * t)
        if r:
            raise ArithmeticError(f"integer d-th root left remainder {r} at t = {t}")
        q.append(qt)
    return c, Polynomial(F), Polynomial([0, *q[:0:-1], 1])


def _unscale(P: Polynomial, c: int) -> Polynomial:
    """The monic original p with P(x) = c^k p(x/c), k = deg P.

    P's coefficients are integers or Fractions.  A zero coefficient stays
    int 0, as it reads off a zero Taylor remainder.
    """
    k = P.degree
    mid = (Fraction(a, c ** (k - i)) if a else 0 for i, a in enumerate(P.coeffs[1:k], 1))
    return Polynomial([0, *mid, 1])


def right_component(f: Polynomial, d: int) -> Polynomial:
    """The unique candidate right component h of degree e = n/d.

    h is the reverse of the d-th root mod x^e of the reverse of f, so it
    depends only on the coefficients f_{n-1}, ..., f_{n-e+1}.  Exact input
    takes the integer root of the scaled F(x) = c^n f(x/c) and returns
    h(x) = c^-e H(cx); float and complex input return the unpolished root
    candidate that `try_decompose` polishes.  That root is exact when the
    nonzero coefficients among f_{n-1}, ..., f_{n-e+1} are all ints or
    Fractions, even if f has floats: f = [0.0, 0.1, 0.2, 0.3, 0.0, 1/3, 1.0]
    at d = 2 gives h_1 = Fraction(-1, 72).
    """
    if f.is_exact():
        c, _, H = _integer_components(f, d)
        return _unscale(H, c)
    return Polynomial(_root_candidate(f, d))


def _root_candidate(f: Polynomial, d: int) -> list:
    """h_0, ..., h_e of the root candidate of float or complex f: the reverse
    of the `series_dth_root` of 1 + f_(n-1) x + ... + f_(n-e+1) x^(e-1).

    Trailing zeros of that series and of its root are dropped, as a
    `Polynomial` drops them: so a top whose nonzero coefficients are all
    exact gives a Fraction root, and a zero tail of the root gives int 0.
    """
    require_monic_original(f)
    n = f.degree
    _require_proper_divisor(n, d)
    e = n // d
    u = [1, *f.coeffs[n - 1 : n - e : -1]]
    while u[-1] == 0:
        u.pop()
    q = _dth_root(u, d, e, all(isinstance(c, EXACT_TYPES) for c in u))
    while q[-1] == 0:
        q.pop()
    return [0, *[0] * (e - len(q)), *q[:0:-1], 1]


def _lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x minimizing |a x - b|_2, from the normal equations of a with unit
    columns; the column norms are computed as `np.linalg.norm` does."""
    s = 1 / np.sqrt(np.add.reduce((a.conj() * a).real, axis=0))
    a = a * s
    ah = a.conj().T
    return s * np.linalg.solve(ah @ a, ah @ b)


def try_decompose(f: Polynomial, d: int) -> Decomposition | None:
    """Decompose f = g(h) at divisor d, or None if no such decomposition.

    Exact input needs every Taylor coefficient of F around H constant (see
    the module docstring); g and h are scaled back only on accept.  Float or
    complex input raises ValueError unless every coefficient is finite.  It
    is decided on numpy arrays: f converted once, one matrix of the powers
    h^0, ..., h^d and one Jacobian, updated in place.  h starts at the root
    candidate of `right_component` and g at the least-squares fit of
    f - h^d by h, ..., h^(d-1).  Linearized least-squares steps on
    g_1..g_(d-1) and h_1..h_(e-1) go on while each cuts
    rho = |g(h) - f|_inf / max(1, |f|_inf) at least tenfold; they stop at
    rho = 0 or at a step that does not, which is kept only if it lowered
    rho.  f decomposes when the polished rho is at most 1e-10, with the
    polished pair (Python floats or complexes) as its witness.  A singular
    step ends the polish as a stalled one does; a singular first fit,
    overflow and a non-finite rho reject.
    """
    if f.is_exact():
        c, f, h = _integer_components(f, d)
        g = []
        for gi in _taylor_terms(f, h, d):
            if gi.degree > 0:
                return None
            g.append(gi[0])
        return Decomposition(g=_unscale(Polynomial(g), c ** h.degree), h=_unscale(h, c))
    h0 = _root_candidate(f, d)
    n, e = f.degree, f.degree // d
    fv = np.array(f.coeffs)
    if fv.dtype not in (np.float64, np.complex128):  # Fractions mixed with floats
        fv = np.array(f.coeffs, complex if any(isinstance(c, complex) for c in f.coeffs) else float)
    if not math.isfinite(norm := np.abs(fv).max()):
        raise ValueError("polynomial coefficients must be finite")
    norm = max(1.0, norm)
    # rows k of gs and hs hold the current pair, rows 1 - k the next one
    gs = np.zeros((2, d + 1), fv.dtype)
    gs[:, d] = 1
    hs = np.array([h0, h0], fv.dtype)
    p = np.zeros((d + 1, n + 1), fv.dtype)  # row i is h^i
    p[0, 0] = 1
    jac = np.zeros((n - 1, d + e - 2), fv.dtype)  # columns h^i, then x^j g'(h)
    # x^j g'(h) for j = 1..e-1 read as one Toeplitz view of g'(h) after e-2 zeros
    dg = np.zeros(n + e - 3, fv.dtype)
    size = dg.itemsize
    shifts = np.ndarray((n - 1, e - 1), dg.dtype, dg, (e - 2) * size, (size, -size))
    weights = np.arange(1, d + 1)
    hcols = p[1:d, 1:n].T  # h^1..h^(d-1) at x^1..x^(n-1): the Jacobian's g columns

    def powers(h):
        p[1, : e + 1] = h
        # np.convolve(a, h) is np.correlate(a, conj(h reversed)), which
        # conjugates its second argument back; conj of a real array is itself
        hc = h[::-1].conj()
        for i in range(2, d + 1):
            p[i, : i * e + 1] = np.correlate(p[i - 1, : (i - 1) * e + 1], hc, "full")

    rho, best, k = math.inf, None, 0
    g, h = gs[0], hs[0]
    with np.errstate(all="ignore"):
        try:
            powers(h)
            g[1:d] = _lstsq(hcols, fv[1:n] - p[d, 1:n])
            while True:
                r = (g @ p - fv)[1:n]
                trial = np.maximum.reduce(np.abs(r)) / norm
                if not trial < rho:
                    break
                cut = 0 < trial <= rho / 10
                rho, best = trial, (g, h)
                if not cut:
                    break
                jac[:, : d - 1] = hcols
                dg[e - 2 :] = (weights * g[1:] @ p[:d])[: n - 1]
                jac[:, d - 1 :] = shifts
                step = _lstsq(jac, -r)
                k = 1 - k
                np.add(g[1:d], step[: d - 1], out=gs[k, 1:d])
                np.add(h[1:e], step[d - 1 :], out=hs[k, 1:e])
                g, h = gs[k], hs[k]
                powers(h)
        except np.linalg.LinAlgError:
            pass  # a singular step ends the polish as a stalled one does
    if not rho <= _TAU:
        return None
    return Decomposition(*(Polynomial([0, *v[1:-1].tolist(), 1]) for v in best))


def is_decomposable(f: Polynomial) -> list[tuple[int, Decomposition]]:
    """All proper divisors d at which f decomposes, ascending, with witnesses.

    Empty for prime or tiny degree (nothing decomposes there).  Exact input
    is brought to the monic integer c0^n f(x/c0) of `_integer_form` once;
    `try_decompose` decides that at each divisor, and a witness (G, H) is
    scaled back to g(y) = c0^-n G(c0^e y), h(x) = c0^-e H(c0 x).  Float
    input follows the rules of `try_decompose`, whose ValueError propagates.
    """
    require_monic_original(f)
    n = f.degree
    if not is_composite(n):
        return []
    c0 = 1
    if f.is_exact():
        c0, F0 = _integer_form(f)
        f = Polynomial(F0)
    found = []
    for d in proper_divisors(n):
        dec = try_decompose(f, d)
        if dec is not None:
            if c0 != 1:
                dec = Decomposition(g=_unscale(dec.g, c0 ** (n // d)), h=_unscale(dec.h, c0))
            found.append((d, dec))
    return found


def nt_coordinates(f: Polynomial, d: int) -> dict:
    """The coefficients of f at the determining index set for divisor d."""
    require_monic_original(f)
    ns = nt_set(f.degree, d)
    return {i: f[i] for i in ns.nt}


def section_components(b: Mapping[int, object], n: int, d: int) -> tuple[Polynomial, Polynomial]:
    """(g, h) of the unique composition whose determined coefficients are b.

    b maps each index of nt_set(n, d).nt to a scalar.  The kernel runs on one
    dtype=object row, so ints and Fractions stay exact and floats stay floats.
    """
    coords = np.array([[b[i]] for i in nt_set(n, d).nt], dtype=object)
    g, powers = _section(coords, d)
    return Polynomial([0, *g[1:, 0], 1]), Polynomial(powers[1][:, 0])


def section(b: Mapping[int, object], n: int, d: int) -> Polynomial:
    """The unique decomposable f (at divisor d) with the given determined
    coefficients; polynomial in the entries of b."""
    g, h = section_components(b, n, d)
    return compose(g, h)
