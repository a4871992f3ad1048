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
on ``threads``, the number of worker threads that run the blocks.  Both
modes run one block worker.  It draws its whole block (every coordinate in
plain mode, the determining ones in conditional mode) from the field's
sampler, then fills one float64 value per sample in row tiles: the union
indicator as 0.0 or 1.0 in plain mode, the product of the field's overlap
weights in conditional mode.  It returns the block's sums of x and x*x; the
sums of 0/1 values are exact hit counts.  Tiles bound the memory of a block
(the powers of h for one (64, 8) tile hold about 19 MB), and every
per-sample value and every summation order is that of an untiled block, so
the tile size never changes a result.  The section comes back
coefficient-major, one contiguous row per complement coefficient, and the
per-sample weight is the product of one weight per such row, multiplied in
ascending coefficient order.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .batched import section_batch
from .decompose import dimension, divisor_plan, is_composite, nt_set, section

_BLOCK_SIZE = 1 << 16
# rows per section call; a power of two >= 64, so that tiles start on numpy's
# SIMD boundaries and complex rounding falls on the same rows as one call
_TILE = 1 << 13


def _check_tube(epsilon: float, B: float, field: str) -> None:
    """The radii and field of a tube experiment: 0 < epsilon < B, 2B finite."""
    if not (0 < epsilon < B and math.isfinite(2 * B)):
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

    The bracket depends only on eps/B, and it has been checked against the
    estimators only for B <= 1.5.  Beyond that it can fail: at B = 3, 4 of
    16 conditional estimates fall below the lower bound, and at B = 10 all
    16 do (ROADMAP item 8).
    """
    ns = nt_set(spec.n, spec.divisors[0])
    dim = dimension(spec.n, ns.d)
    power = 1 if spec.field == "real" else 2
    r = spec.epsilon / spec.B
    raw = len(spec.divisors) * r ** (power * ns.codim)
    lower = raw * (1 - r) ** (power * dim)
    return DensityBounds(lower=min(lower, 1.0), upper=min(raw, 1.0), upper_raw=raw)


def cheng_bound(n: int, epsilon: float, B: float) -> float:
    """The hypersurface comparison bound (n^2 - 2n) (eps/B)^2."""
    if not is_composite(n):
        raise ValueError(f"degree {n} is not composite")
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
    lens_mask = ~(separate | contained)
    safe = np.where(lens_mask, dist, 1.0)
    a1 = np.arccos(np.clip((safe**2 + r * r - R * R) / (2 * safe * r), -1.0, 1.0))
    a2 = np.arccos(np.clip((safe**2 + R * R - r * r) / (2 * safe * R), -1.0, 1.0))
    sq = (
        (-safe + r + R) * (safe + r - R) * (safe - r + R) * (safe + r + R)
    )
    lens = r * r * a1 + R * R * a2 - 0.5 * np.sqrt(np.clip(sq, 0.0, None))
    out = np.ldexp(np.where(separate, 0.0, np.where(contained, full, lens)), 2 * k)
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

    def predict(self, free: np.ndarray) -> np.ndarray:
        # (k, N): one contiguous row per complement coefficient, the layout
        # the weights read; section_batch returns a transposed view
        return section_batch(free, self.n, self.d).T[self.dep_cols]


class _SubspaceModel:
    """The linear calibration model R^k x {0}^(n-k) inside R^n."""

    def __init__(self, n: int, k: int):
        if not (isinstance(n, numbers.Integral) and isinstance(k, numbers.Integral) and 1 <= k < n):
            raise ValueError(f"need integers 1 <= k < n, got n={n!r}, k={k!r}")
        self.ambient = n
        self.free_cols = np.arange(k)
        self.dep_cols = np.arange(k, n)

    def predict(self, free: np.ndarray) -> np.ndarray:
        return np.zeros((len(self.dep_cols), free.shape[0]), dtype=free.dtype)


def _block_rng(seed: int, index: int) -> np.random.Generator:
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _sample_box(rng, shape, B: float) -> np.ndarray:
    return rng.uniform(-B, B, size=shape)


def _sample_disk(rng, shape, B: float) -> np.ndarray:
    # inverse-CDF radial sampling: deterministic draw count per sample
    radius = B * np.sqrt(rng.random(size=shape))
    angle = 2.0 * math.pi * rng.random(size=shape)
    # the bytes of radius * np.exp(1j * angle), without its complex temporaries
    out = np.empty(shape, dtype=complex)
    np.multiply(radius, np.cos(angle), out=out.real)
    np.multiply(radius, np.sin(angle), out=out.imag)
    return out


def _box_weights(pred, epsilon: float, B: float, x: np.ndarray) -> None:
    # x = the product over the rows p of pred of |(p-eps, p+eps) ∩ (-B, B)| / 2B,
    # written so the unclipped case is exactly 2*eps; one complement
    # coefficient at a time, multiplied in ascending order
    w, over_lo = np.empty(x.size), np.empty(x.size)
    x.fill(1.0)
    for row in pred:
        np.add(row, epsilon, out=w)
        w -= B
        np.maximum(w, 0.0, out=w)  # over_hi
        np.subtract(row, epsilon, out=over_lo)
        np.negative(over_lo, out=over_lo)
        over_lo -= B
        np.maximum(over_lo, 0.0, out=over_lo)
        np.subtract(2.0 * epsilon, w, out=w)
        w -= over_lo
        np.maximum(w, 0.0, out=w)
        w /= 2.0 * B
        x *= w


def _disk_weights(pred, epsilon: float, B: float, x: np.ndarray) -> None:
    w = disk_overlap_area(np.abs(pred), epsilon, B) / (math.pi * B * B)
    w.prod(axis=0, out=x)


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
            pred = model.predict(free)
        if not np.isfinite(pred).all():
            raise ValueError(f"the section overflows float64 at B={B!r}")
        return pred

    if mode == "plain":
        width = models[0].ambient

        def values(a, x):  # the union indicator, as 0.0 or 1.0
            x.fill(0.0)
            for model in models:
                pred = predict(model, a[:, model.free_cols])
                x[(np.abs(a[:, model.dep_cols].T - pred) < epsilon).all(axis=0)] = 1.0

    else:
        width = len(models[0].free_cols)

        def values(free, x):
            weights(predict(models[0], free), epsilon, B, x)

    def block(start):
        rng = _block_rng(seed, start // _BLOCK_SIZE)
        a = sample(rng, (min(_BLOCK_SIZE, samples - start), width), B)
        x = np.empty(len(a))
        for lo in range(0, len(a), _TILE):
            values(a[lo : lo + _TILE], x[lo : lo + _TILE])
        return float(x.sum()), float((x * x).sum())

    starts = range(0, samples, _BLOCK_SIZE)
    if (threads or 1) > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            partials = list(ex.map(block, starts))
    else:  # one worker runs on the calling thread, where a tracer links its spans
        partials = map(block, starts)
    # summed in block order, so the estimate does not depend on the worker count
    total = total_sq = 0.0
    for s, s2 in partials:
        total += s
        total_sq += s2
    mean = total / samples
    var = max(total_sq - samples * mean * mean, 0.0) / (samples - 1) if samples > 1 else 0.0
    se = math.sqrt(var / samples)
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

    ``threads`` worker threads run the sample blocks; ``None`` means one.
    The result never depends on the worker count.
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
