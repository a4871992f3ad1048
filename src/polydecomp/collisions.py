"""Constructors for polynomials that decompose at two different divisors.

For n = d*e with e > d >= 2 the doubly decomposable polynomials form two
parametric families: an "exponential" one built from a power-times-substituted
polynomial core and a "trigonometric" one built from Dickson polynomials.
Both cores are re-centered with an original shift (`compose` with x + a,
minus the constant term) so every output is monic original, and both factor
through composition in two ways, which `verify_bidecomposable` checks with
the decomposition oracle.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .decompose import try_decompose
from .polynomial import Polynomial, compose, is_monic_original, require_monic_original, x_power


class CollisionParameterError(ValueError):
    """Collision constructor parameters violate their degree arithmetic."""


@dataclass(frozen=True)
class CollisionParams:
    """Parameters (u, w|z, a, v) for the two collision families at n = d*e.

    u and v are monic original of degree i = gcd(d, e); the exponential
    variant takes a monic degree-s polynomial w (s = floor(e/d), possibly
    non-original), the trigonometric one a scalar Dickson parameter z.
    """

    n: int
    d: int
    u: Polynomial
    v: Polynomial
    a: object
    w: Polynomial | None = None
    z: object = None

    @property
    def e(self) -> int:
        return self.n // self.d

    @property
    def i(self) -> int:
        return math.gcd(self.d, self.e)

    @property
    def s(self) -> int:
        return self.e // self.d


def _validate_common(params: CollisionParams) -> None:
    n, d = params.n, params.d
    if not (isinstance(n, numbers.Integral) and isinstance(d, numbers.Integral)):
        raise CollisionParameterError(f"n and d must be integers, got n={n!r}, d={d!r}")
    if d < 2 or n % d != 0 or params.e <= d:
        raise CollisionParameterError(f"need e > d >= 2 with d*e = n, got n={n}, d={d}")
    i = params.i
    for name, p in (("u", params.u), ("v", params.v)):
        if p.degree != i or not is_monic_original(p):
            raise CollisionParameterError(f"{name} must be monic original of degree {i}")


def dickson(k: int, z) -> Polynomial:
    """Degree-k Dickson polynomial (first kind) in the parameter z.

    T_0 = 2, T_1 = x, T_k = x*T_{k-1} - z*T_{k-2}; T_k(x, 0) = x^k for k >= 1.
    Built from the closed form T_k = sum_{j <= k/2} k/(k-j) * C(k-j, j) *
    (-z)^j * x^(k-2j), in which each k/(k-j) * C(k-j, j) is an integer.
    """
    if k < 0:
        raise ValueError("negative Dickson degree")
    if k == 0:
        return Polynomial([2])
    coeffs = [0] * (k + 1)
    zj = 1  # (-z)^j
    for j in range(k // 2 + 1):
        coeffs[k - 2 * j] = k * math.comb(k - j, j) // (k - j) * zj
        zj = zj * -z
    return Polynomial(coeffs)


def original_shift(p: Polynomial, a) -> Polynomial:
    """p re-centered at a: p composed with x + a, minus its constant term.

    That is (x - p(a)) o p o (x + a) = p(x + a) - p(a); the result has zero
    constant term and is monic whenever p is.
    """
    shifted = compose(p, Polynomial([a, 1]))
    return shifted - Polynomial([shifted[0]])


def alpha_exp(params: CollisionParams) -> Polynomial:
    """Exponential collision u o (x^(d(e-sd)/i^2) * w(x^(d/i))^(d/i))^[a] o v.

    The output is monic original of degree n and lies in the images of
    composition at both d and e.  The degenerate case e = s*d (the inner
    power exponent collapses to x^0) is rejected.
    """
    _validate_common(params)
    d, e, i, s = params.d, params.e, params.i, params.s
    w = params.w
    if w is None:
        raise CollisionParameterError("exponential variant needs w")
    if w.degree != s or w.coeffs[-1] != 1:
        raise CollisionParameterError(f"w must be monic of degree {s}")
    if e == s * d:
        raise CollisionParameterError("degenerate exponent: e = s*d (x^0 factor)")
    # i = gcd(d, e) divides d and e, so i^2 divides d(e - sd)
    k, t = d // i, d * (e - s * d) // (i * i)
    core = x_power(t) * compose(x_power(k), compose(w, x_power(k)))  # w(x^k)^k
    f = compose(params.u, compose(original_shift(core, params.a), params.v))
    return require_monic_original(f)


def alpha_trig(params: CollisionParams) -> Polynomial:
    """Trigonometric collision u o T_{n/i^2}(x, z)^[a] o v."""
    _validate_common(params)
    if params.z is None:
        raise CollisionParameterError("trigonometric variant needs z")
    # i = gcd(d, e) divides d and e, so i^2 divides n = de
    core = dickson(params.n // (params.i * params.i), params.z)
    f = compose(params.u, compose(original_shift(core, params.a), params.v))
    return require_monic_original(f)


def verify_bidecomposable(f: Polynomial, d: int, e: int) -> bool:
    """True iff f decomposes at both d and e (one check when d == e).

    Raises ValueError, as try_decompose does, on a non-finite coefficient.
    """
    if try_decompose(f, d) is None:
        return False
    return d == e or try_decompose(f, e) is not None
