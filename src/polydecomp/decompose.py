"""Decomposition of monic original polynomials f = g(h).

The algorithm computes the unique candidate right component h of degree
e = n/d (`right_component`) as the reverse of the d-th root of the reversed
input, then reads the left component g off the generalized Taylor expansion
of f around h: f is decomposable at d exactly when all Taylor coefficients
are constants (over floats: when all their non-constant coefficients are
below DEFAULT_TOL * max(1, |f|_inf), which rejects some genuine compositions
at n >= 60, see ROADMAP item 4).  The check stops at the first Taylor
coefficient that fails.

Exact input is decomposed over the integers.  With c = lcm(denominators of
f) * d^2, F(x) = c^n f(x/c) is a monic integer polynomial, and f = g(h)
exactly when F = G(H) with H(x) = c^e h(x/c) and G(y) = c^n g(y/c^e).  H
comes from an integer recurrence for the d-th root whose divisions are exact,
and the Taylor divisions by the monic H stay in the integers; only an
accepted witness is scaled back to Fractions; `compose`, which builds the
inputs, likewise runs over the integers.  Float and complex input take the
Newton power-series root (`series_dth_root`), its only use.

Because h is determined by the e-1 highest coefficients of f and g by the
coefficients at powers that are multiples of e, the whole candidate (g, h)
depends only on a distinguished index set of size d + n/d - 2.  The map from
those coordinates back to the unique matching composition, `section`, is a
polynomial right inverse of composition; `batched._section` computes it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from .batched import _section
from .polynomial import (
    Polynomial,
    _taylor_terms,
    compose,
    require_monic_original,
    series_dth_root,
)

DEFAULT_TOL = 1e-9


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
    if not is_composite(n):
        raise DivisorError(f"degree {n} is not composite")
    if not 1 < d < n or n % d != 0:
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
        raise DivisorError(f"{n} is not a composite integer >= 4")
    l = least_prime_factor(n)
    return DivisorPlan(
        n=n,
        proper_divisors=proper_divisors(n),
        least_prime=l,
        delta=1 if n == l * l else 2,
    )


def _integer_components(f: Polynomial, d: int) -> tuple[int, Polynomial, Polynomial]:
    """(c, F, H): exact f scaled to the monic integer F(x) = c^n f(x/c) with
    c = lcm(denominators) * d^2, and F's candidate right component H.

    H is the reverse of the d-th root q of U = reverse(F), from the recurrence
    d*t*q_t = sum_k ((d+1)k - d*t) U_k q_(t-k).  The division by d*t is exact
    because d^(2m) * binom(1/d, m) is an integer.
    """
    require_monic_original(f)
    n = f.degree
    _require_proper_divisor(n, d)
    # a list, not a generator: see polynomial.compose
    c = math.lcm(*[a.denominator for a in f.coeffs]) * d * d
    powers = [1]
    for _ in range(n):
        powers.append(powers[-1] * c)
    F = [a.numerator * (powers[n - i] // a.denominator) for i, a in enumerate(f.coeffs)]
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

    A zero coefficient stays int 0, as it reads off a zero Taylor remainder.
    """
    k = P.degree
    mid = (Fraction(a, c ** (k - i)) if a else 0 for i, a in enumerate(P.coeffs[1:k], 1))
    return Polynomial([0, *mid, 1])


def right_component(f: Polynomial, d: int) -> Polynomial:
    """The unique candidate right component h of degree e = n/d.

    h is the reverse of the d-th root mod x^e of the reverse of f, so it
    depends only on the coefficients f_{n-1}, ..., f_{n-e+1}.  Exact input
    takes the integer root of the scaled F(x) = c^n f(x/c) and returns
    h(x) = c^-e H(cx); float and complex input take the Newton root.
    """
    if f.is_exact():
        c, _, H = _integer_components(f, d)
        return _unscale(H, c)
    require_monic_original(f)
    n = f.degree
    _require_proper_divisor(n, d)
    e = n // d
    tilde_h = series_dth_root(Polynomial([1, *(f[n - j] for j in range(1, e))]), d, e)
    return Polynomial([0, *(tilde_h[e - j] for j in range(1, e)), 1])


def try_decompose(f: Polynomial, d: int) -> Decomposition | None:
    """Decompose f = g(h) at divisor d, or None if no such decomposition.

    Exact input needs every Taylor coefficient G_i of f around h constant.
    It is decided over the integers: f = g(h) exactly when F = G(H) for
    F(x) = c^n f(x/c), H(x) = c^e h(x/c) and G(y) = c^n g(y/c^e), with
    c = lcm(denominators of f) * d^2, and g, h are scaled back only on accept.
    Float or complex input raises ValueError unless every coefficient is
    finite, and needs every non-constant coefficient of every G_i below the
    fixed tolerance 1e-9 * max(1, |f|_inf) (``DEFAULT_TOL``).  That contract
    rejects some genuine compositions at n >= 60; ROADMAP item 4 replaces it
    with an error model.  The check stops at the first G_i that fails.
    """
    exact = f.is_exact()
    if exact:
        c, f, h = _integer_components(f, d)
    elif all(map(cmath.isfinite, f.coeffs)):
        h = right_component(f, d)
        thr = DEFAULT_TOL * max(1.0, *map(abs, f.coeffs))
    else:
        raise ValueError("polynomial coefficients must be finite")
    g = []
    for gi in _taylor_terms(f, h, d):
        if gi.degree > 0 if exact else any(abs(a) >= thr for a in gi.coeffs[1:]):
            return None
        g.append(gi[0])
    if exact:
        return Decomposition(g=_unscale(Polynomial(g), c ** h.degree), h=_unscale(h, c))
    return Decomposition(g=Polynomial(g), h=h)


def is_decomposable(f: Polynomial) -> list[tuple[int, Decomposition]]:
    """All proper divisors d at which f decomposes, ascending, with witnesses.

    Empty for prime or tiny degree (nothing decomposes there).  Float input
    follows the rules of `try_decompose`, whose ValueError propagates.
    """
    require_monic_original(f)
    n = f.degree
    if not is_composite(n):
        return []
    found = []
    for d in proper_divisors(n):
        dec = try_decompose(f, d)
        if dec is not None:
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
