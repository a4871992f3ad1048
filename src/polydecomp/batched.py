"""Vectorized section evaluation over batches of coefficient vectors.

The Monte Carlo estimators need the unique decomposable polynomial matching
millions of sampled coordinate vectors; doing that one Polynomial at a time
is hopeless in Python.  This module evaluates the section over numpy
float64/complex128 batches, coefficient-major: the input is transposed once,
so that each coefficient is one contiguous length-N vector.  The d-th root of
the reversed top coefficients comes from the triangular power recurrence
(Knuth, TAOCP vol. 2, section 4.7).  Each power h^j is one (e*j + 1, N)
array, built in place row by row from h^(j-1); g is solved top down from the
determining coefficients, and f = sum g_j h^j is summed in place over the
powers.  Agreement with the exact section is pinned by tests.

Column convention: a coefficient matrix of shape (N, n-1) holds, per row, the
coefficients of x^1 ... x^(n-1) ascending (column j is the coefficient of
x^(j+1); leading 1 and constant 0 are implicit).
"""

from __future__ import annotations

import numpy as np

from .decompose import nt_set


def series_root_batch(u: np.ndarray, d: int) -> np.ndarray:
    """q = u**(1/d) mod x^e for u of shape (e, N), coefficient-major (row t
    holds the x^t coefficients of the batch), with u[0] = 1.

    Triangular recurrence for powers of a power series: with alpha = 1/d,
    t*q_t = sum_{k=1..t} ((alpha+1)*k - t) * u_k * q_{t-k}.
    """
    e = u.shape[0]
    alpha = 1.0 / d
    q = np.zeros_like(u)
    q[0] = 1
    tmp = np.empty_like(u[0])
    for t in range(1, e):
        for k in range(1, t + 1):
            c = (alpha + 1.0) * k - t
            if c != 0.0:
                np.multiply(c, u[k], out=tmp)
                tmp *= q[t - k]
                q[t] += tmp
        q[t] /= t
    return q


def section_batch(nt_coords: np.ndarray, n: int, d: int) -> np.ndarray:
    """Full coefficient matrix (N, n-1) of the section at each row of inputs,
    returned as a transposed view of a coefficient-major array.

    ``nt_coords`` has one column per index of nt_set(n, d).nt in ascending
    index order, i.e. [f_e, f_2e, ..., f_{(d-1)e}, f_{n-e+1}, ..., f_{n-1}].
    """
    ns = nt_set(n, d)
    e = ns.e
    nt_coords = np.asarray(nt_coords)
    if nt_coords.ndim != 2 or nt_coords.shape[1] != len(ns.nt):
        raise ValueError(f"expected a 2-D array of {len(ns.nt)} coordinate columns")
    dtype = np.result_type(nt_coords, np.float64)
    coords = np.ascontiguousarray(nt_coords.T, dtype=dtype)
    one = np.ones((1, coords.shape[1]), dtype=dtype)
    tmp = np.empty_like(one[0])

    # the root of the reversed top coefficients [1, f_{n-1}, ..., f_{n-e+1}]
    # gives the right component h, rows 0..e ascending
    q = series_root_batch(np.concatenate([one, coords[d - 1 :][::-1]]), d)
    h = np.concatenate([np.zeros_like(one), q[:0:-1], one])

    # row m of h^j is sum_i h_i h^(j-1)[m-i] over the i, ascending, where
    # h^(j-1) is nonzero (rows j-1 .. e(j-1)); h_e = 1 needs no product
    powers = [None, h]
    for j in range(2, d + 1):
        prev, top = powers[-1], e * (j - 1)
        p = np.zeros((e * j + 1, tmp.size), dtype=dtype)
        for m in range(j, e * j + 1):
            lo, hi = max(1, m - top), min(e, m - j + 1)
            np.multiply(prev[m - lo], h[lo], out=p[m])
            for i in range(lo + 1, hi + 1):
                if i == e:
                    p[m] += prev[m - e]
                else:
                    np.multiply(prev[m - i], h[i], out=tmp)
                    p[m] += tmp
        powers.append(p)

    # g_i = f_(e*i) - sum_{j>i} g_j [h^j]_(e*i), top down, with g_d = 1
    g = np.empty((d, tmp.size), dtype=dtype)
    for i in range(d - 1, 0, -1):
        g[i] = coords[i - 1]
        for j in range(i + 1, d):
            np.multiply(g[j], powers[j][e * i], out=tmp)
            g[i] -= tmp
        g[i] -= powers[d][e * i]

    # f = g_1 h + ... + g_d h^d, summed in ascending j in place: each h^j is
    # scaled by g_j and takes the running sum of the lower terms
    for j in range(1, d + 1):
        if j < d:
            np.multiply(g[j], powers[j][j:], out=powers[j][j:])
        if j > 1:
            powers[j][: e * (j - 1) + 1] += powers[j - 1]
    return powers[d][1:n].T
