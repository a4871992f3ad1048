"""Tube densities around the variety of decomposable polynomials.

A degree-n monic original polynomial is a point of R^(n-1) (or C^(n-1)).
Around each decomposable point we attach an epsilon-box in the fixed
coordinate directions of the complement of the determining index set, clip
everything to the coefficient box of radius B, and measure the resulting
density.  This module provides

* the closed-form lower/upper density bounds, real and complex, for a single
  divisor and for the union of the two largest components,
* the comparison hypersurface bound (n^2 - 2n) (eps/B)^2,
* an exact membership oracle for the tube (the section pins down the unique
  variety point sharing a sample's determining coordinates),
* reproducible Monte Carlo estimators: a plain indicator average and a
  conditional (Rao-Blackwellized) variant that integrates the complement
  coordinates exactly per sample and only ever samples the determining ones.

Estimators draw from counter-based Philox streams keyed by (seed, block) and
sum the blocks in block order, so results are reproducible and do not depend
on ``threads``, the number of block workers.  A block worker fills one
float64 value x per sample, tile by tile: the union indicator as 0.0 or 1.0
in plain mode, the product of the field's overlap weights in conditional
mode.  Each tile is drawn from its part of the block's stream (every
coordinate in plain mode, the determining ones in conditional mode), solved
and weighed in place, so x is the only block-sized array (the powers of h
for one (64, 8) tile hold about 19 MB).  Each worker draws its next tile on
one helper thread, in stream order, while it solves the current one, so one
extra tile of draws is alive while a tile is solved; the command line runs
one worker plus its helper.  Every draw, per-sample value and summation
order is that of an untiled block, so neither the helper nor the tile size
changes a result.  The section is read coefficient-major, one contiguous row
per complement coefficient, and the per-sample weight is the product of one
weight per such row, multiplied in ascending coefficient order.  Plain mode
rejects a miss from the top complement block (`batched.section_block`, the
section's own bytes) and solves the full section only for the rows that
pass, so results do not change; where a bound cannot prove the whole section
finite, the whole tile is solved as before.  A block returns the sum of x
(for 0/1 values an exact hit count) and the sum of its squares in the
power-of-two frame of its largest x, where a square cannot underflow while x
does not.
"""

from __future__ import annotations

import copy
import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .batched import section_batch, section_block
from .decompose import DivisorError, divisor_plan, is_composite, nt_set, section

_BLOCK_SIZE = 1 << 16
# rows per section call; a power of two >= 64, so that tiles start on numpy's
# SIMD boundaries and complex rounding falls on the same rows as one call
_TILE = 1 << 13


def _check_tube(epsilon: float, B: float, field: str) -> None:
    """The radii and field of a tube experiment: real 0 < epsilon < B, 2B finite."""
    real = isinstance(epsilon, numbers.Real) and isinstance(B, numbers.Real)
    if not (real and 0 < epsilon < B and math.isfinite(2 * B)):
        raise ValueError(
            f"need 0 < epsilon < B and 2B finite, got epsilon={epsilon!r}, B={B!r}"
        )
    if field not in ("real", "complex"):
        raise ValueError(f"unknown field {field!r}")


@dataclass(frozen=True)
class TubeSpec:
    """An epsilon-tube experiment: degree, target divisor(s), radii, field.

    ``d = None`` targets the union of the tubes around the two largest
    components (divisors l and n/l for the least prime factor l).
    Construction validates every field, so functions taking a spec do not.
    """

    n: int
    d: int | None
    epsilon: float
    B: float
    field: str = "real"

    def __post_init__(self):
        _check_tube(self.epsilon, self.B, self.field)
        d_type = (numbers.Integral, type(None))  # None targets the union
        if not (isinstance(self.n, numbers.Integral) and isinstance(self.d, d_type)):
            raise ValueError(f"n and d must be integers, got n={self.n!r}, d={self.d!r}")
        for d in self.divisors:
            nt_set(self.n, d)  # validates the degree and the divisor

    @property
    def is_union(self) -> bool:
        return self.d is None

    @property
    def target(self):
        return "union" if self.d is None else self.d

    @property
    def divisors(self) -> tuple[int, ...]:
        if self.d is not None:
            return (self.d,)
        plan = divisor_plan(self.n)
        return (plan.least_prime, self.n // plan.least_prime)[: plan.delta]


@dataclass(frozen=True)
class DensityBounds:
    """Closed-form density bracket; upper is capped at 1, raw kept alongside."""

    lower: float
    upper: float
    upper_raw: float

    @property
    def capped(self) -> bool:
        return self.upper_raw > 1.0


@dataclass(frozen=True)
class EstimateResult:
    """A Monte Carlo density estimate with its sampling pedigree."""

    mean: float
    std_error: float
    samples: int
    seed: int
    mode: str


def density_bounds(spec: TubeSpec) -> DensityBounds:
    """The closed-form bracket of ``spec``'s tube density.

    For one divisor d over the reals, with r = eps/B: lower
    r^codim (1 - r)^dim, upper r^codim.  The union target takes the bracket
    at d = least prime scaled by delta (1 if n = l^2, else 2), one term per
    component; complex coefficients double both exponents.

    The bracket depends only on eps/B, and its lower bound is false in three
    regions (ROADMAP item 8).  At large B: at B = 3, 4 of 16 conditional
    estimates fall below it, and at B = 10 all 16 do.  At B = 1 once r is
    small and n large: at eps = 0.01 the conditional estimate lies below it
    from real (24,4) on (0.849 against 0.923, both divided by r^codim) and
    from complex (20,5) on.  At d = 2 once n is large, even at r = 0.1:
    real (64,2) gives 1.48e-33 against 3.43e-33.  It is still returned as a
    number there, since the benchmark's bracket check reads it as one.
    """
    ns = nt_set(spec.n, spec.divisors[0])
    dim = len(ns.nt)  # d + n/d - 2
    power = 1 if spec.field == "real" else 2
    r = spec.epsilon / spec.B
    raw = len(spec.divisors) * r ** (power * ns.codim)
    lower = raw * (1 - r) ** (power * dim)
    return DensityBounds(lower=min(lower, 1.0), upper=min(raw, 1.0), upper_raw=raw)


def cheng_bound(n: int, epsilon: float, B: float) -> float:
    """The hypersurface comparison bound (n^2 - 2n) (eps/B)^2."""
    if not is_composite(n):
        raise DivisorError(f"degree {n} is not composite")
    if not (0 <= epsilon < B):
        raise ValueError("need 0 <= epsilon < B")
    return (n * n - 2 * n) * (epsilon / B) ** 2


def disk_overlap_area(dist, r: float, R: float):
    """Area of disk(radius r, center at distance dist) ∩ disk(radius R, 0).

    Vectorized in ``dist``; the classical two-circle lens formula with the
    tangency/containment branches handled by clipping.  The geometry is
    scaled by a power of two 2^k near max(r, R), which is exact, so that the
    product of the four lens factors cannot overflow; the area is scaled back
    by 2^(2k).  Radii must be finite and >= 0; a disk of radius 0 has no
    overlap.  The distance is taken as |dist|.
    """
    if not (0 <= r < math.inf and 0 <= R < math.inf):  # also rejects NaN
        raise ValueError(f"disk radii must be finite and >= 0, got r={r!r}, R={R!r}")
    if r == 0 or R == 0:
        return 0.0 if np.ndim(dist) == 0 else np.zeros(np.shape(dist))
    k = math.frexp(max(r, R))[1]
    dist = np.ldexp(np.abs(np.asarray(dist, dtype=np.float64)), -k)
    r, R = math.ldexp(r, -k), math.ldexp(R, -k)
    small, big = (r, R) if r <= R else (R, r)
    full = math.pi * small * small
    separate = dist >= r + R
    contained = dist <= big - small
    # separate wins where both tests hold, as when small is below half an
    # ulp of big; the lens formula runs only where the disk is clipped
    out = np.where(separate, 0.0, full)
    lens = ~(separate | contained)
    s = dist[lens]
    a1 = np.arccos(np.clip((s**2 + r * r - R * R) / (2 * s * r), -1.0, 1.0))
    a2 = np.arccos(np.clip((s**2 + R * R - r * r) / (2 * s * R), -1.0, 1.0))
    sq = (-s + r + R) * (s + r - R) * (s - r + R) * (s + r + R)
    out[lens] = r * r * a1 + R * R * a2 - 0.5 * np.sqrt(np.clip(sq, 0.0, None))
    np.ldexp(out, 2 * k, out=out)
    if out.ndim == 0:
        return float(out)
    return out


def tube_membership(a, n: int, d: int, epsilon: float) -> bool:
    """Exact membership of the coefficient vector a in the epsilon-tube.

    ``a[j]`` is the coefficient of x^(j+1), so a has n-1 entries.  The
    section of a's determining coordinates is the unique decomposable
    polynomial sharing them, hence comparing the complement coordinates
    against it decides membership exactly.
    """
    if len(a) != n - 1:
        raise ValueError(f"expected {n - 1} coordinates")
    ns = nt_set(n, d)
    b = {i: a[i - 1] for i in ns.nt}
    f = section(b, n, d)
    return all(abs(a[i - 1] - f[i]) < epsilon for i in ns.complement)


# -- Monte Carlo machinery -----------------------------------------------------


class _SectionModel:
    """Tube geometry of one divisor: determining columns + batched section."""

    def __init__(self, n: int, d: int):
        ns = nt_set(n, d)
        self.n = n
        self.d = d
        self.ambient = n - 1
        self.free_cols = np.array([i - 1 for i in ns.nt])
        self.dep_cols = np.array([i - 1 for i in ns.complement])
        # the complement columns just below the top determining run, and the
        # rest, which all lie below them
        e = n // d
        self.block_cols = np.arange((d - 2) * e, (d - 1) * e - 1)
        self.rest_cols = self.dep_cols[self.dep_cols < (d - 2) * e]
        # at d > 2 the rows that pass cost a second section call, about what
        # the block saves where the section has few power rows: per tile,
        # 7 at (6,3) ran 1.19x, 12 at (8,4) 1.05x and 17 at (12,3) 0.94x
        self.screens = d == 2 or sum(e * j - j + 1 for j in range(2, d + 1)) > 12

    def predict(self, free: np.ndarray) -> np.ndarray:
        # (n-1, N): the coefficient-major section, read in place at the
        # rows dep_cols; section_batch returns a transposed view
        return section_batch(free, self.n, self.d).T

    def block(self, free: np.ndarray, B: float):
        """f at block_cols (`section_block`), or None where the tile is to be
        solved whole: for a small section, and where a bound cannot prove the
        section finite, so that an overflow is reported."""
        if not self.screens:
            return None
        with np.errstate(over="ignore", invalid="ignore"):
            f, h = section_block(free, self.d)
            # |[h^j]_m| <= H^j, as H >= every ||h||_1, and |g_i| <= G_i with
            # G_d = 1 and G_i = B + sum_(j>i) G_j H^j, so |f| <= sum_j G_j H^j:
            # far below the float64 maximum, no rounding can overflow
            H = 1.0 + np.abs(h[1:-1]).max(axis=1).sum()
            bound = H**self.d
            for i in range(self.d - 1, 0, -1):
                bound += (B + bound) * H**i
        return f if bound < 1e300 else None  # False also for a NaN


class _SubspaceModel:
    """The linear calibration model R^k x {0}^(n-k) inside R^n."""

    def __init__(self, n: int, k: int):
        if not (isinstance(n, numbers.Integral) and isinstance(k, numbers.Integral) and 1 <= k < n):
            raise ValueError(f"need integers 1 <= k < n, got n={n!r}, k={k!r}")
        self.ambient = n
        self.free_cols = np.arange(k)
        self.dep_cols = np.arange(k, n)

    def predict(self, free: np.ndarray) -> np.ndarray:
        return np.zeros((self.ambient, free.shape[0]), dtype=free.dtype)

    block = staticmethod(lambda free, B: None)  # every tile is solved whole


def _block_rng(seed: int, index: int) -> np.random.Generator:
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# A sampler returns draw(t), the next t rows of block ``block``'s (rows,
# width) draw; the rows of all tiles are the bytes of one whole-block draw.


def _sample_box(seed: int, block: int, rows: int, width: int, B: float):
    rng = _block_rng(seed, block)
    return lambda t: rng.uniform(-B, B, size=(t, width))  # filled row-major


def _sample_disk(seed: int, block: int, rows: int, width: int, B: float):
    # inverse-CDF radial sampling: the block's stream holds all radii, then
    # all angles, so a second generator on the same key reads the angles.
    # Philox yields four doubles per counter step
    radii = _block_rng(seed, block)
    angles = np.random.Generator(copy.deepcopy(radii.bit_generator).advance(rows * width // 4))
    angles.random(rows * width % 4)

    def draw(t):
        radius = B * np.sqrt(radii.random(size=(t, width)))
        angle = 2.0 * math.pi * angles.random(size=(t, width))
        # the bytes of radius * np.exp(1j * angle), without its complex temporaries
        out = np.empty((t, width), dtype=complex)
        np.multiply(radius, np.cos(angle), out=out.real)
        np.multiply(radius, np.sin(angle), out=out.imag)
        return out

    return draw


def _box_weights(sec, cols, epsilon: float, B: float, x: np.ndarray) -> None:
    # x = the product over the complement rows p = sec[c] of
    # |(p-eps, p+eps) ∩ (-B, B)| / 2B, written so the unclipped case is
    # exactly 2*eps; one complement coefficient at a time, multiplied in
    # ascending order.  As 0 < eps < B, only the side of p's sign can
    # overhang, by max(|p| + eps - B, 0); for p < 0, |p| + eps is eps - p
    w = np.empty(x.size)
    x.fill(1.0)
    for c in cols:
        np.abs(sec[c], out=w)
        w += epsilon
        w -= B
        np.maximum(w, 0.0, out=w)  # the overhang
        np.subtract(2.0 * epsilon, w, out=w)
        np.maximum(w, 0.0, out=w)
        w /= 2.0 * B
        x *= w


def _disk_weights(sec, cols, epsilon: float, B: float, x: np.ndarray) -> None:
    k = math.frexp(B)[1]  # B's binary frame: exact, and pi * B * B cannot over/underflow
    epsilon, B = math.ldexp(epsilon, -k), math.ldexp(B, -k)
    dist = np.empty(x.size)
    x.fill(1.0)
    for c in cols:  # in ascending order, as in the box weights
        np.abs(sec[c], out=dist)
        x *= disk_overlap_area(np.ldexp(dist, -k, out=dist), epsilon, B) / (math.pi * B * B)


# the sampler and the conditional weights of each field
_FIELDS = {"real": (_sample_box, _box_weights), "complex": (_sample_disk, _disk_weights)}


def _estimate(models, field, epsilon, B, samples, seed, mode, threads) -> EstimateResult:
    if not (isinstance(samples, numbers.Integral) and samples >= 1):
        raise ValueError(f"samples must be an integer >= 1, got {samples!r}")
    if not (isinstance(seed, numbers.Integral) and 0 <= seed < 1 << 64):
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    if mode not in ("plain", "conditional"):
        raise ValueError(f"unknown mode {mode!r}")
    if not (threads is None or isinstance(threads, numbers.Integral) and threads >= 1):
        raise ValueError(f"threads must be None or an integer >= 1, got {threads!r}")
    sample, weights = _FIELDS[field]

    def predict(model, free):
        # an overflowing section is reported by the check below, not by numpy
        with np.errstate(over="ignore", invalid="ignore"):
            sec = model.predict(free)
        if not all(np.isfinite(sec[c]).all() for c in model.dep_cols):
            raise ValueError(f"the section overflows float64 at B={B!r}")
        return sec

    if mode == "plain":
        width = models[0].ambient

        def inside(model, a):  # frees one component's section before the next
            free, hit = a[:, model.free_cols], np.ones(len(a), dtype=bool)
            rows, cols = slice(None), model.dep_cols
            f = model.block(free, B)
            if f is not None:  # a miss on the top block needs no section
                for c, fc in zip(model.block_cols, f):
                    hit &= np.abs(a[:, c] - fc) < epsilon
                del f  # its buffer, before the section of the rows that pass
                rows, cols = np.flatnonzero(hit), model.rest_cols
                if not (rows.size and cols.size):  # at d = 2 the block is the complement
                    return hit
            sec = predict(model, free[rows])
            for c in cols:
                hit[rows] &= np.abs(a[rows, c] - sec[c]) < epsilon
            return hit

        def values(a, x):  # the union indicator, as 0.0 or 1.0
            x.fill(0.0)
            for model in models:
                x[inside(model, a)] = 1.0

    else:
        width = len(models[0].free_cols)

        def values(free, x):
            weights(predict(models[0], free), models[0].dep_cols, epsilon, B, x)

    def block(start):
        rows = min(_BLOCK_SIZE, samples - start)
        draw = sample(seed, start // _BLOCK_SIZE, rows, width, B)
        x = np.empty(rows)
        # the helper draws tile t + 1, in stream order, while tile t is solved
        with ThreadPoolExecutor(max_workers=1) as helper:
            tile = helper.submit(draw, min(_TILE, rows))
            for lo in range(0, rows, _TILE):
                a = tile.result()
                if lo + _TILE < rows:
                    tile = helper.submit(draw, min(_TILE, rows - lo - _TILE))
                values(a, x[lo : lo + _TILE])
        k = math.frexp(x.max())[1]  # the block's frame 2^k
        s = float(x.sum())
        np.ldexp(x, -k, out=x)
        x *= x
        return s, float(x.sum()), k

    starts = range(0, samples, _BLOCK_SIZE)
    if (threads or 1) > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            partials = list(ex.map(block, starts))
    else:  # one worker runs on the calling thread, where a tracer links its spans
        partials = list(map(block, starts))
    # summed in block order, so the estimate does not depend on the worker
    # count; the squares in the largest block frame 2^K, where the scalings
    # are exact unless a term underflows
    K = max(k for _, _, k in partials)
    total = total_sq = 0.0
    for s, s2, k in partials:
        total += s
        total_sq += math.ldexp(s2, 2 * (k - K))
    mean = total / samples
    m = math.ldexp(mean, -K)
    var = max(total_sq - samples * m * m, 0.0) / (samples - 1) if samples > 1 else 0.0
    se = math.ldexp(math.sqrt(var / samples), K)
    return EstimateResult(mean=mean, std_error=se, samples=samples, seed=seed, mode=mode)


def estimate_density(
    spec: TubeSpec,
    samples: int,
    seed: int = 0,
    mode: str = "plain",
    threads: int | None = None,
) -> EstimateResult:
    """Unbiased Monte Carlo estimate of the tube density for ``spec``.

    Plain mode samples the whole coefficient box (or polydisk) uniformly and
    averages the exact membership indicator; for the union target a sample
    counts when it is in either component's tube.  Conditional mode
    (single-divisor only) samples only the determining coordinates and
    multiplies, per complement coordinate, the exact fraction of the
    coefficient range covered by the epsilon-ball around the section point:
    each sample realizes the inner integral of the density exactly, which
    cuts the variance drastically.

    Plain mode rejects a miss on the complement coefficients just below the
    top determining run and solves the full section only for the samples
    that pass, or for all where a bound cannot prove it finite; the result
    is the same either way.

    ``threads`` counts the block workers; ``None`` means one.  Each worker
    draws its next tile of samples on one helper thread while it solves
    the current one, so one extra tile of draws is alive while a tile is
    solved; the command line runs one worker plus its helper.  The result
    never depends on the worker count.
    """
    if mode == "conditional" and spec.is_union:
        raise ValueError("conditional mode is not supported for the union target")
    models = [_SectionModel(spec.n, d) for d in spec.divisors]
    return _estimate(models, spec.field, spec.epsilon, spec.B, samples, seed, mode, threads)


def estimate_subspace_density(
    n: int,
    k: int,
    epsilon: float,
    B: float,
    samples: int,
    seed: int = 0,
    mode: str = "conditional",
    field: str = "real",
    threads: int | None = None,
) -> EstimateResult:
    """The same estimator run against the linear model R^k x {0}^(n-k).

    Calibration aid: the exact density is (eps/B)^(n-k) over the reals, and
    in conditional mode every sample contributes that value identically.
    ``threads=None`` runs one worker, as in `estimate_density`; the result
    never depends on the worker count.
    """
    _check_tube(epsilon, B, field)
    return _estimate([_SubspaceModel(n, k)], field, epsilon, B, samples, seed, mode, threads)


# -- reporting ------------------------------------------------------------------

def density_report(spec: TubeSpec, result: EstimateResult) -> dict:
    """Result row combining the estimate with its closed-form bracket."""
    br = density_bounds(spec)
    return {
        "n": spec.n,
        "d": spec.target,
        "field": spec.field,
        "epsilon": spec.epsilon,
        "B": spec.B,
        "mode": result.mode,
        "samples": result.samples,
        "seed": result.seed,
        "mean": result.mean,
        "std_error": result.std_error,
        "lower_bound": br.lower,
        "upper_bound": br.upper,
        "cheng_bound": cheng_bound(spec.n, spec.epsilon, spec.B),
    }
