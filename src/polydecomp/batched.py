"""The section kernel: the one implementation of the section of `decompose`.

The Monte Carlo estimators run it over millions of numpy float64/complex128
rows; `decompose.section_components` runs it over one dtype=object row of
Python scalars, so exact input stays exact.  The kernel is coefficient-major:
it reads the input in place through its transpose, one length-N row per
coefficient, and computes on contiguous rows.  The d-th root of the reversed
top coefficients is `polynomial._dth_root`, the scalar loop of
`series_dth_root`, run over rows.  One buffer holds h, its powers and g; the
root reads its input rows from h's place before h is written there.  Each
power h^j is one (e*j + 1, N) slice of it, built in place row by row from
h^(j-1); g is solved top down from the determining coefficients, and
f = sum g_j h^j is summed in place over the powers.  The buffer is not
zeroed: every row read is written, and only the rows below j of h^j, which
are zero, are set as such.  `section_block` builds only the top 2e rows of
each power and g_(d-1), which give the complement rows just below the top
determining run, byte for byte as `section_batch` gives them, where a
bound from the root and B proves the whole section finite.

One loop builds each power row: the products of rows of h^(j-1) and h,
summed over one range i = lo..hi in ascending h index for every dtype, so
h_e = 1 is a term like the others, the last.  Only how the sum is taken
depends on the dtype.  float64 rows take it in one ``np.einsum`` call, which
sums in that order and so gives the bytes of a multiply-then-add loop; numpy
does not document einsum's order, so tests pin the bytes.  complex128 and
dtype=object rows take one multiply and one add per term: einsum on
complex128 rounds differently in the last bits, and einsum on dtype=object
needs numpy >= 1.25, above the supported floor.

Column convention: a coefficient matrix of shape (N, n-1) holds, per row, the
coefficients of x^1 ... x^(n-1) ascending (column j is the coefficient of
x^(j+1); leading 1 and constant 0 are implicit).
"""

from __future__ import annotations

import numpy as np

from .polynomial import _dth_root


def series_root_batch(u: np.ndarray, d: int) -> np.ndarray:
    """q = u**(1/d) mod x^e for u of shape (e, N), coefficient-major (row t
    holds the x^t coefficients of the batch), with u[0] = 1.

    `polynomial._dth_root` with a row for each scalar: exact on dtype=object
    rows, rounded as for float scalars on float64 and complex128 rows.
    """
    q = _dth_root(u, d, len(u), u.dtype == object)
    return np.array([np.ones_like(u[0]), *q[1:]])


def _section(coords: np.ndarray, d: int, rows: range | None = None) -> tuple[np.ndarray, list]:
    """g (rows 1..d-1 used) and the powers [None, h, h^2, ..., h^d] of the
    section at the coefficient-major transpose of `section_batch`'s input;
    with ``rows``, only the power rows and g_i that f's rows in it need."""
    k, N = coords.shape
    e = k - d + 2
    rows = range(1, e * d + 1) if rows is None else rows
    # one buffer, written and not zeroed, holds h, its powers and g: malloc
    # can hand it back to the next call, where an array per power faults in
    # new pages.  The input is read in place, not copied into it
    rest = np.empty((sum(e * j + 1 for j in range(1, d + 1)) + d, N), dtype=coords.dtype)
    tmp = np.empty(N, dtype=coords.dtype)

    # the root of the reversed top coefficients [1, f_{n-1}, ..., f_{n-e+1}],
    # read from h's rows e..1, gives the right component h, rows 0..e ascending
    h, rest = rest[: e + 1], rest[e + 1 :]
    h[1:e], h[e] = coords[d - 1 :], 1
    q = series_root_batch(h[:0:-1], d)
    h[0], h[1:e] = 0, q[:0:-1]

    # row m of h^j is sum_i h_i h^(j-1)[m-i] over i = lo..hi, where h^(j-1)
    # is nonzero (rows j-1 .. e(j-1)), in ascending i; h_e = 1 comes last
    powers = [None, h]
    for j in range(2, d + 1):
        prev = powers[-1]
        p, rest = rest[: e * j + 1], rest[e * j + 1 :]
        p[:j] = 0
        for m in range(max(j, rows[0] - e * (d - j)), min(e * j, rows[-1]) + 1):
            lo, hi = max(1, m - e * (j - 1)), min(e, m - j + 1)
            if coords.dtype == np.float64:
                np.einsum("ij,ij->j", prev[m - hi : m - lo + 1][::-1], h[lo : hi + 1], out=p[m])
                continue
            np.multiply(prev[m - lo], h[lo], out=p[m])
            for i in range(lo + 1, hi + 1):
                np.multiply(prev[m - i], h[i], out=tmp)
                p[m] += tmp
        powers.append(p)

    # g_i = f_(e*i) - sum_{j>i} g_j [h^j]_(e*i), top down, with g_d = 1
    g = rest
    for i in range(d - 1, (rows[0] - 1) // e, -1):
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
    d must be a proper divisor of n, else `decompose.DivisorError`.
    """
    if not (1 < d < n and n % d == 0):
        from .decompose import _require_proper_divisor  # decompose imports this module
        _require_proper_divisor(n, d)
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


def section_block(nt_coords: np.ndarray, d: int, B: float) -> np.ndarray | None:
    """The rows f_m, (d-2)e < m < (d-1)e, of `section_batch` at the same
    input, byte for byte, coefficient-major (e-1, N), or None where no bound
    proves the whole section finite for coordinates of modulus <= B.  There
    f_m = [h^d]_m + g_(d-1) [h^(d-1)]_m, from the top 2e rows of each power.
    The caller validates the input."""
    coords = nt_coords.T
    e = len(coords) - d + 2
    rows = range((d - 2) * e + 1, (d - 1) * e + 1)  # with f_((d-1)e), for g_(d-1)
    with np.errstate(over="ignore", invalid="ignore"):
        g, powers = _section(coords, d, rows)
        # as the assembly of section_batch sums them; at d = 2, [h^2]_1 is 0
        f = powers[d][rows[0] : rows[-1]]
        f += g[d - 1] * powers[d - 1][rows[0] : rows[-1]]
        # |[h^j]_m| <= H^j, as H >= every ||h||_1, and |g_i| <= G_i with
        # G_d = 1 and G_i = B + sum_(j>i) G_j H^j, so |f| <= sum_j G_j H^j:
        # far below the float64 maximum, no rounding can overflow
        H = 1.0 + np.abs(powers[1][1:e]).max(axis=1).sum()
        bound = H**d
        for i in range(d - 1, 0, -1):
            bound += (B + bound) * H**i
    return f if bound < 1e300 else None  # False also for a NaN
