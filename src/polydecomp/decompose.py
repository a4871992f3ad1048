"""Decomposition of monic original polynomials f = g(h).

The algorithm computes the unique candidate right component h of degree
e = n/d as the reverse of the d-th root of the reversed input (Newton
iteration on truncated power series), then reads the left component g off
the generalized Taylor expansion of f around h: f is decomposable at d
exactly when all Taylor coefficients are constants.

Because h is determined by the e-1 highest coefficients of f and g by the
coefficients at powers that are multiples of e, the whole candidate (g, h)
depends only on a distinguished index set of size d + n/d - 2; the map from
those coordinates back to the unique matching composition (`section`) is a
polynomial right inverse of composition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .polynomial import (
    Polynomial,
    compose,
    require_monic_original,
    series_dth_root,
    taylor_coefficients,
)

DEFAULT_TOL = 1e-9


class DivisorError(ValueError):
    """Degree arithmetic violated: not composite, or not a proper divisor."""


def proper_divisors(n: int) -> tuple[int, ...]:
    """Divisors of n other than 1 and n, ascending."""
    return tuple(d for d in range(2, n) if n % d == 0)


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


def _right_from_top(top: list, d: int) -> Polynomial:
    """h of degree e = len(top) + 1 from the top coefficients f_{n-1}, ...,
    f_{n-e+1}: the reverse of the d-th root mod x^e of 1 + f_{n-1} x + ..."""
    e = len(top) + 1
    tilde_h = series_dth_root(Polynomial([1, *top]), d, e)
    return Polynomial([0, *(tilde_h[e - j] for j in range(1, e)), 1])


def right_component(f: Polynomial, d: int) -> Polynomial:
    """The unique candidate right component h of degree e = n/d.

    h is the reverse of the d-th root mod x^e of the reverse of f, so it
    depends only on the coefficients f_{n-1}, ..., f_{n-e+1}.
    """
    require_monic_original(f)
    n = f.degree
    _require_proper_divisor(n, d)
    return _right_from_top([f[n - j] for j in range(1, n // d)], d)


def try_decompose(f: Polynomial, d: int, tol: float = DEFAULT_TOL) -> Decomposition | None:
    """Decompose f = g(h) at divisor d, or None if no such decomposition.

    Over floats a Taylor coefficient counts as constant when all its
    non-constant coefficients are below tol * max(1, |f|_inf).
    """
    h = right_component(f, d)
    gs = taylor_coefficients(f, h, d)
    if f.is_exact():
        if any(gi.degree > 0 for gi in gs):
            return None
    else:
        thr = tol * max(1.0, *map(abs, f.coeffs))
        for gi in gs:
            if any(abs(c) >= thr for c in gi.coeffs[1:]):
                return None
    g = Polynomial([gi[0] for gi in gs])
    return Decomposition(g=g, h=h)


def is_decomposable(f: Polynomial, tol: float = DEFAULT_TOL) -> list[tuple[int, Decomposition]]:
    """All proper divisors d at which f decomposes, ascending, with witnesses.

    Empty for prime or tiny degree (nothing decomposes there).
    """
    require_monic_original(f)
    n = f.degree
    if not is_composite(n):
        return []
    found = []
    for d in proper_divisors(n):
        dec = try_decompose(f, d, tol)
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

    b maps each index of nt_set(n, d).nt to a scalar.  h comes from the top
    e-1 entries via the Newton root; g_d = 1 and g_i for i = d-1, ..., 1 is
    the coefficient of x^(e*i) in the running residual b_{e*i} - sum of the
    already-known g_j h^j terms.
    """
    e = nt_set(n, d).e
    h = _right_from_top([b[n - j] for j in range(1, e)], d)

    powers = {1: h}
    for j in range(2, d + 1):
        powers[j] = powers[j - 1] * h
    g_coeffs = [0] * (d + 1)
    g_coeffs[d] = 1
    for i in range(d - 1, 0, -1):
        acc = b[e * i]
        for j in range(i + 1, d + 1):
            acc = acc - g_coeffs[j] * powers[j][e * i]
        g_coeffs[i] = acc
    return Polynomial(g_coeffs), h


def section(b: Mapping[int, object], n: int, d: int) -> Polynomial:
    """The unique decomposable f (at divisor d) with the given determined
    coefficients; polynomial in the entries of b."""
    g, h = section_components(b, n, d)
    return compose(g, h)
