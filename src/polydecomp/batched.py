"""The section kernel: the one implementation of the section of `decompose`.

The Monte Carlo estimators run it over millions of numpy float64/complex128
rows; `decompose.section_components` runs it over one dtype=object row of
Python scalars, so exact input stays exact.  The kernel is coefficient-major:
the input is transposed once, so that each coefficient is one contiguous
length-N vector.  The d-th root of the reversed top coefficients comes from
the triangular power recurrence (Knuth, TAOCP vol. 2, section 4.7).  One
buffer holds the transposed input, h, its powers and g.  Each power h^j is
one (e*j + 1, N) slice of it, built in place row by row from h^(j-1); g is
solved top down from the determining coefficients, and f = sum g_j h^j is
summed in place over the powers.  The buffer is not zeroed: every row is
written, and only the rows below j of h^j, which are zero, are set as such.

One loop builds each power row: the products of rows of h^(j-1) and h,
summed in ascending h index i, the last term that of h_e = 1.  Only that sum
depends on the dtype.  float64 rows take it in one ``np.einsum`` call, with
h_e as its last term, which sums in that order and so gives the bytes of a
multiply-then-add loop; numpy does not document einsum's order, so tests pin
the bytes.  complex128 and dtype=object rows take one multiply and one add
per term i < e, then add the row of h_e with no product: einsum on
complex128 rounds differently in the last bits, and einsum on dtype=object
needs numpy >= 1.25, above the supported floor.

Column convention: a coefficient matrix of shape (N, n-1) holds, per row, the
coefficients of x^1 ... x^(n-1) ascending (column j is the coefficient of
x^(j+1); leading 1 and constant 0 are implicit).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def series_root_batch(u: np.ndarray, d: int) -> np.ndarray:
    """q = u**(1/d) mod x^e for u of shape (e, N), coefficient-major (row t
    holds the x^t coefficients of the batch), with u[0] = 1.

    Triangular recurrence for powers of a power series:
    t*q_t = sum_{k=1..t} ((d+1)*k - d*t)/d * u_k * q_{t-k}.
    """
    e = u.shape[0]
    q = np.zeros_like(u)
    q[0] = 1
    tmp = np.empty_like(u[0])
    for t in range(1, e):
        for k in range(1, t + 1):
            # exact on object rows (Fractions stay Fractions), else rounded once
            c = Fraction((d + 1) * k - d * t, d)
            if c != 0:
                np.multiply(c if u.dtype == object else float(c), u[k], out=tmp)
                tmp *= q[t - k]
                q[t] += tmp
        q[t] /= t
    return q


def _section(coords: np.ndarray, d: int) -> tuple[np.ndarray, list]:
    """g (rows 1..d-1 used) and the powers [None, h, h^2, ..., h^d] of the
    section at the coefficient-major transpose of `section_batch`'s input."""
    k, N = coords.shape
    e = k - d + 2
    # one buffer, written and not zeroed, holds the input, h, its powers and
    # g: malloc can hand it back to the next call, where an array per power
    # faults in new pages
    rest = np.empty((k + sum(e * j + 1 for j in range(1, d + 1)) + d, N), dtype=coords.dtype)
    rest[:k] = coords
    coords, rest = rest[:k], rest[k:]
    one = np.ones((1, N), dtype=coords.dtype)
    tmp = np.empty_like(one[0])

    # the root of the reversed top coefficients [1, f_{n-1}, ..., f_{n-e+1}]
    # gives the right component h, rows 0..e ascending
    q = series_root_batch(np.concatenate([one, coords[d - 1 :][::-1]]), d)

    # row m of h^j is sum_i h_i h^(j-1)[m-i] where h^(j-1) is nonzero (rows
    # j-1 .. e(j-1)), in ascending i; the last term is h_e = 1
    h, rest = rest[: e + 1], rest[e + 1 :]
    h[0], h[1:e], h[e] = 0, q[:0:-1], 1
    powers = [None, h]
    for j in range(2, d + 1):
        prev = powers[-1]
        p, rest = rest[: e * j + 1], rest[e * j + 1 :]
        p[:j] = 0
        for m in range(j, e * j + 1):
            lo = max(1, m - e * (j - 1))
            if coords.dtype == np.float64:  # h_e = 1 as the last einsum term
                hi = min(e, m - j + 1)
                np.einsum("ij,ij->j", prev[m - hi : m - lo + 1][::-1], h[lo : hi + 1], out=p[m])
                continue
            hi = min(e - 1, m - j + 1)
            if lo <= hi:
                np.multiply(prev[m - lo], h[lo], out=p[m])
                for i in range(lo + 1, hi + 1):
                    np.multiply(prev[m - i], h[i], out=tmp)
                    p[m] += tmp
            else:  # the top row m = e*j has no term i < e
                p[m] = 0
            if m - e >= j - 1:
                p[m] += prev[m - e]
        powers.append(p)

    # g_i = f_(e*i) - sum_{j>i} g_j [h^j]_(e*i), top down, with g_d = 1
    g = rest
    for i in range(d - 1, 0, -1):
        g[i] = coords[i - 1]
        for j in range(i + 1, d):
            np.multiply(g[j], powers[j][e * i], out=tmp)
            g[i] -= tmp
        g[i] -= powers[d][e * i]
    return g, powers


def section_batch(nt_coords: np.ndarray, n: int, d: int) -> np.ndarray:
    """Full coefficient matrix (N, n-1) of the section at each row of inputs,
    returned as a transposed view of a coefficient-major array (the view
    holds the buffer of all powers of h).

    ``nt_coords`` has one column per index of nt_set(n, d).nt in ascending
    index order, i.e. [f_e, f_2e, ..., f_{(d-1)e}, f_{n-e+1}, ..., f_{n-1}];
    d must be a proper divisor of n.
    """
    if not (1 < d < n and n % d == 0):
        raise ValueError(f"{d} is not a proper divisor of {n}")
    e = n // d
    nt_coords = np.asarray(nt_coords)
    if nt_coords.ndim != 2 or nt_coords.shape[1] != d + e - 2:
        raise ValueError(f"expected a 2-D array of {d + e - 2} coordinate columns")
    dtype = np.result_type(nt_coords, np.float64)
    g, powers = _section(nt_coords.T.astype(dtype, copy=False), d)

    # f = g_1 h + ... + g_d h^d, summed in ascending j in place: each h^j is
    # scaled by g_j and takes the running sum of the lower terms
    for j in range(1, d + 1):
        if j < d:
            np.multiply(g[j], powers[j][j:], out=powers[j][j:])
        if j > 1:
            powers[j][: e * (j - 1) + 1] += powers[j - 1]
    return powers[d][1:n].T
