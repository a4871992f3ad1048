import math
import random
import re
import threading
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from polydecomp import density
from polydecomp.batched import section_batch
from polydecomp.decompose import is_composite, divisor_plan, nt_set
from polydecomp.density import (
    TubeSpec,
    cheng_bound,
    density_bounds,
    density_report,
    disk_overlap_area,
    estimate_density,
    estimate_subspace_density,
    tube_membership,
)
from polydecomp.polynomial import Polynomial, compose

# absolute guard for float roundoff when an estimate hits a bound exactly
FP_GUARD = 1e-12


def P(*descending):
    return Polynomial(reversed(descending))


def coeff_vector(f, n):
    return [float(f[i]) for i in range(1, n)]


def bounds(n, d, epsilon, B, field="real"):
    return density_bounds(TubeSpec(n=n, d=d, epsilon=epsilon, B=B, field=field))


def estimate(target, mode, samples, seed, threads=None):
    """An estimate for a TubeSpec, or for subspace-model arguments given as a dict."""
    if isinstance(target, TubeSpec):
        return estimate_density(target, samples, seed=seed, mode=mode, threads=threads)
    return estimate_subspace_density(samples=samples, seed=seed, mode=mode, threads=threads, **target)


class TestBounds:
    def test_real_4_2(self):
        b = bounds(4, 2, 0.1, 1.0)
        assert math.isclose(b.lower, 0.081)
        assert math.isclose(b.upper, 0.1)

    def test_real_6_2(self):
        b = bounds(6, 2, 0.1, 1.0)
        assert math.isclose(b.lower, 0.01 * 0.9**3)
        assert math.isclose(b.upper, 0.01)

    def test_real_small_epsilon_limit(self):
        # codim is 3 at (8,2): both bounds collapse to (eps/B)^3 -> 0
        b = bounds(8, 2, 1e-9, 1.0)
        assert b.upper == pytest.approx(1e-27)
        assert b.lower == pytest.approx(1e-27, rel=1e-6)

    def test_real_union_6(self):
        b = bounds(6, None, 0.1, 1.0)
        assert math.isclose(b.lower, 2 * 0.00729)
        assert math.isclose(b.upper, 0.02)

    def test_real_union_4_delta_one(self):
        b = bounds(4, None, 0.1, 1.0)
        assert math.isclose(b.lower, 0.081)
        assert math.isclose(b.upper, 0.1)

    def test_lower_vanishes_as_eps_to_B(self):
        b = bounds(6, None, 0.999999, 1.0)
        assert b.lower < 1e-17

    def test_complex_4_2(self):
        b = bounds(4, 2, 0.1, 1.0, "complex")
        assert math.isclose(b.lower, 0.01 * 0.9**4)
        assert math.isclose(b.upper, 0.01)

    def test_complex_upper_is_square_of_real(self):
        for n, d in [(4, 2), (6, 2), (9, 3), (12, 4)]:
            br = bounds(n, d, 0.07, 1.3)
            bc = bounds(n, d, 0.07, 1.3, "complex")
            assert math.isclose(bc.upper, br.upper**2)

    def test_complex_union_6(self):
        b = bounds(6, None, 0.1, 1.0, "complex")
        assert math.isclose(b.lower, 2 * 0.1**4 * 0.9**6)
        assert math.isclose(b.upper, 2 * 0.1**4)

    def test_capping(self):
        b = bounds(6, None, 0.9, 1.0)
        assert b.upper == 1.0
        assert b.upper_raw == pytest.approx(2 * 0.81)
        assert b.capped
        assert 0 <= b.lower <= b.upper

    def test_delta_consistency(self):
        for n in range(4, 31):
            if not is_composite(n):
                continue
            plan = divisor_plan(n)
            u = bounds(n, None, 0.05, 1.0)
            s = bounds(n, plan.least_prime, 0.05, 1.0)
            assert math.isclose(u.upper_raw, plan.delta * s.upper_raw)

    def test_invalid_radii(self):
        with pytest.raises(ValueError):
            bounds(4, 2, 1.0, 1.0)
        with pytest.raises(ValueError):
            bounds(4, 2, -0.1, 1.0)


def least_prime_by_trial_division(n):
    p = 2
    while n % p:
        p += 1
    return p


def closed_form_bracket(n, d, epsilon, B, field):
    """(lower, upper_raw) from codim = n - d - n/d + 1 and dim = d + n/d - 2;
    the union is the bracket at the least prime l times delta (1 if n = l^2,
    else 2)."""
    delta = 1
    if d is None:
        d = least_prime_by_trial_division(n)
        delta = 1 if d * d == n else 2
    power = 1 if field == "real" else 2
    r = epsilon / B
    upper_raw = delta * r ** (power * (n - d - n // d + 1))
    return upper_raw * (1 - r) ** (power * (d + n // d - 2)), upper_raw


class TestBoundsOracle:
    def test_every_composite_degree_to_30(self):
        checked = 0
        for n in range(4, 31):
            if least_prime_by_trial_division(n) == n:
                continue
            targets = [d for d in range(2, n) if n % d == 0] + [None]
            for d in targets:
                for epsilon, B in ((0.1, 1.0), (0.07, 1.3)):
                    for field in ("real", "complex"):
                        b = bounds(n, d, epsilon, B, field)
                        lower, upper_raw = closed_form_bracket(n, d, epsilon, B, field)
                        case = (n, d, epsilon, B, field)
                        assert math.isclose(b.upper_raw, upper_raw, rel_tol=1e-12), case
                        assert math.isclose(b.upper, min(upper_raw, 1.0), rel_tol=1e-12), case
                        assert math.isclose(b.lower, min(lower, 1.0), rel_tol=1e-12), case
                        assert not b.capped, case
                        checked += 1
        # 19 composite degrees: 52 proper divisors plus 19 unions, 4 settings each
        assert checked == 4 * (52 + 19)

    def test_capped_near_B(self):
        b = bounds(6, None, 0.999999, 1.0)
        lower, upper_raw = closed_form_bracket(6, None, 0.999999, 1.0, "real")
        assert math.isclose(b.upper_raw, upper_raw, rel_tol=1e-12)
        assert b.upper_raw > 1.0 and b.capped and b.upper == 1.0
        assert math.isclose(b.lower, lower, rel_tol=1e-12)


class TestChengBound:
    def test_example(self):
        assert math.isclose(cheng_bound(6, 0.1, 1.0), 0.24)

    def test_zero_epsilon(self):
        assert cheng_bound(8, 0.0, 1.0) == 0.0

    def test_invalid_input(self):
        with pytest.raises(ValueError, match="degree 7 is not composite"):
            cheng_bound(7, 0.1, 1.0)
        for eps in (1.0, 2.0):
            with pytest.raises(ValueError, match="need 0 <= epsilon < B"):
                cheng_bound(6, eps, 1.0)
        # non-real radii used to escape as a TypeError from the comparison
        for eps, B in (("0.1", 1.0), (None, 1.0), (1j, 2.0), (0.1, "1")):
            with pytest.raises(ValueError, match="need 0 <= epsilon < B"):
                cheng_bound(6, eps, B)

    def test_sharper_than_hypersurface(self):
        assert bounds(6, None, 0.1, 1.0, "complex").upper == pytest.approx(0.0002)
        assert bounds(6, None, 0.1, 1.0, "complex").upper < cheng_bound(6, 0.1, 1.0)


class TestLensArea:
    def test_contained(self):
        assert disk_overlap_area(0.0, 0.25, 1.0) == pytest.approx(math.pi * 0.25**2)

    def test_separate(self):
        assert disk_overlap_area(2.0, 0.5, 1.0) == 0.0

    def test_negative_distance_is_its_absolute_value(self):
        # distance -5 used to read as a contained disk, area 0.785
        assert disk_overlap_area(-5.0, 0.5, 1.0) == 0.0
        dist = np.array([0.0, 0.3, 0.7, 1.2, 1.6])
        np.testing.assert_array_equal(disk_overlap_area(-dist, 0.5, 1.0), disk_overlap_area(dist, 0.5, 1.0))

    def test_rejection_sampling_oracle(self):
        rng = np.random.default_rng(404)
        samples = 200_000
        for _ in range(10):
            B = rng.uniform(0.5, 2.0)
            eps = rng.uniform(0.05, 0.95) * B
            dist = rng.uniform(0.0, B + eps + 0.2)
            # uniform points in disk(0, B) by rejection from the square
            pts = np.empty((0, 2))
            while len(pts) < samples:
                cand = rng.uniform(-B, B, size=(2 * samples, 2))
                cand = cand[(cand**2).sum(axis=1) < B * B]
                pts = np.vstack([pts, cand])
            pts = pts[:samples]
            inside = ((pts[:, 0] - dist) ** 2 + pts[:, 1] ** 2) < eps * eps
            frac = inside.mean()
            se = math.sqrt(frac * (1 - frac) / samples + 1e-30)
            est_area = frac * math.pi * B * B
            ana = disk_overlap_area(dist, eps, B)
            assert abs(ana - est_area) <= 3 * se * math.pi * B * B + 1e-9

    def test_vectorized(self):
        d = np.array([0.0, 0.5, 3.0])
        out = disk_overlap_area(d, 0.5, 1.0)
        assert out.shape == (3,)
        assert out[0] == pytest.approx(math.pi * 0.25)
        assert out[2] == 0.0

    def test_huge_radii_do_not_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            huge = disk_overlap_area([1e80, 9e79], 3e79, 1e80)
        unit = disk_overlap_area([1.0, 0.9], 0.3, 1.0)
        assert np.all(np.isfinite(huge))
        np.testing.assert_allclose(huge, 1e160 * unit, rtol=1e-12)

    @pytest.mark.parametrize(
        "r,R",
        [(-0.5, 1.0), (1.0, -0.5), (math.nan, 1.0), (0.5, math.nan), ("1", 2.0), (None, 1.0), (1.0, 1j)],
    )
    def test_negative_or_nan_radius_rejected(self, r, R):
        # a radius of -0.5 used to give a positive area, 0.785; a non-real
        # one used to escape as a TypeError from the comparison
        with pytest.raises(ValueError, match="radii"):
            disk_overlap_area(0.0, r, R)

    @pytest.mark.parametrize("r,R", [(1.0, math.inf), (math.inf, 1.0), (math.inf, math.inf)])
    def test_infinite_radius_rejected(self, r, R):
        # R = inf used to warn "invalid value encountered in scalar divide"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="radii must be finite"):
                disk_overlap_area(0.0, r, R)

    @staticmethod
    def lens_area_at_every_element(dist, r, R):
        # the lens formula evaluated at every element, 1.0 standing in for
        # the distance where the disk is not clipped, then selected
        k = math.frexp(max(r, R))[1]
        dist = np.ldexp(np.abs(np.asarray(dist, dtype=np.float64)), -k)
        r, R = math.ldexp(r, -k), math.ldexp(R, -k)
        small, big = (r, R) if r <= R else (R, r)
        separate = dist >= r + R
        contained = dist <= big - small
        safe = np.where(~(separate | contained), dist, 1.0)
        a1 = np.arccos(np.clip((safe**2 + r * r - R * R) / (2 * safe * r), -1.0, 1.0))
        a2 = np.arccos(np.clip((safe**2 + R * R - r * r) / (2 * safe * R), -1.0, 1.0))
        sq = (-safe + r + R) * (safe + r - R) * (safe - r + R) * (safe + r + R)
        lens = r * r * a1 + R * R * a2 - 0.5 * np.sqrt(np.clip(sq, 0.0, None))
        full = math.pi * small * small
        return np.ldexp(np.where(separate, 0.0, np.where(contained, full, lens)), 2 * k)

    # (1e-17, 1): eps is below half an ulp of B, so at B both the separate
    # and the contained test hold, and separate decides
    @pytest.mark.parametrize("epsilon,B", [(0.1, 1.0), (0.39, 1.3), (1e-300, 1.0), (2.0, 1e10), (1e-17, 1.0)])
    def test_lens_subset_at_the_clip_edges(self, epsilon, B):
        edges = [0.0, 5e-324]
        for t in (B - epsilon, B + epsilon):
            edges += [t, math.nextafter(t, math.inf), math.nextafter(t, -math.inf)]
        no_lens = [0.0, 5e-324, 0.5 * (B - epsilon), B + epsilon, 3.0 * B]
        for row in (edges, no_lens, [-t for t in edges]):
            want = self.lens_area_at_every_element(row, epsilon, B)
            got = disk_overlap_area(np.array(row), epsilon, B)
            assert got.tobytes() == want.tobytes(), row
            for t, w in zip(row, want.tolist()):
                got = disk_overlap_area(t, epsilon, B)
                assert type(got) is float and got.hex() == w.hex(), t
        dist = np.ldexp(np.array(no_lens), -math.frexp(B)[1])
        r, R = math.ldexp(epsilon, -math.frexp(B)[1]), math.ldexp(B, -math.frexp(B)[1])
        assert ((dist >= r + R) | (dist <= R - r)).all()

    def test_zero_radius_has_no_overlap(self):
        # this used to divide by the zero radius and warn
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert disk_overlap_area(0.0, 0.0, 1.0) == 0.0
            assert disk_overlap_area(0.5, 1.0, 0.0) == 0.0
            assert disk_overlap_area(0.0, 0.0, 0.0) == 0.0
            out = disk_overlap_area([0.0, 0.5, 2.0], 0.0, 1.0)
        assert out.shape == (3,) and not out.any()

    @pytest.mark.parametrize(
        "n,d,epsilon,mean,std_error",
        [
            # recorded before the lens was rescaled; power-of-two scaling is exact
            (12, 3, 0.1, "0x1.0188546027b24p-40", "0x1.0c17123c61a9cp-49"),
            (6, 2, 0.3, "0x1.089c74e946a8ap-7", "0x1.cfb84ee40c5fcp-20"),
        ],
    )
    def test_complex_conditional_estimate_is_unchanged(self, n, d, epsilon, mean, std_error):
        spec = TubeSpec(n=n, d=d, epsilon=epsilon, B=1.0, field="complex")
        r = estimate_density(spec, 20_000, seed=5, mode="conditional")
        assert (r.mean, r.std_error) == (float.fromhex(mean), float.fromhex(std_error))

    def test_complex_conditional_estimate_off_a_power_of_two_radius_is_unchanged(self):
        # recorded before the disk weights moved into B's binary frame, which
        # is exact for every B, not only for B = 1
        spec = TubeSpec(n=6, d=2, epsilon=0.39, B=1.3, field="complex")
        r = estimate_density(spec, 20_000, seed=5, mode="conditional")
        mean, std_error = "0x1.fdabad78771cep-8", "0x1.2666e369a3e6fp-17"
        assert (r.mean, r.std_error) == (float.fromhex(mean), float.fromhex(std_error))

    @pytest.mark.parametrize(
        "spec,mode,mean,std_error",
        [
            # recorded before the real power rows moved to einsum and the
            # weights to coefficient-major order; both must keep every bit
            (TubeSpec(20, 5, 0.1, 1.0), "conditional", "0x1.08aae69c9b1b4p-40", "0x1.caeba8070e605p-50"),
            (TubeSpec(64, 8, 0.1, 1.0), "conditional", "0x1.5cc6e2a484c5ap-164", "0x1.010d4a63bfbe8p-171"),
            (TubeSpec(6, None, 0.1, 1.0), "plain", "0x1.35a858793dd98p-6", "0x1.f8d6e8aaa0907p-11"),
        ],
        ids=["real(20,5)", "real(64,8)", "union(6)"],
    )
    def test_real_and_union_estimates_are_unchanged(self, spec, mode, mean, std_error):
        r = estimate_density(spec, 20_000, seed=5, mode=mode)
        assert (r.mean, r.std_error) == (float.fromhex(mean), float.fromhex(std_error))

    @pytest.mark.parametrize(
        "target,mean,std_error",
        [
            # recorded before plain and conditional mode shared one block worker
            (TubeSpec(12, 3, 0.6, 1.0, "complex"), "0x1.0cb295e9e1b09p-9", "0x1.4f5f4a4606e23p-12"),
            (dict(n=7, k=3, epsilon=0.5, B=1.0), "0x1.0346dc5d63886p-4", "0x1.c3601aef5891fp-10"),
        ],
        ids=["complex(12,3)", "subspace-real(7,3)"],
    )
    def test_plain_estimates_are_unchanged(self, target, mean, std_error):
        r = estimate(target, "plain", 20_000, seed=5)
        assert (r.mean, r.std_error) == (float.fromhex(mean), float.fromhex(std_error))

    def test_conditional_weight_is_the_row_wise_product(self):
        # a one-sample estimate is that sample's weight; a sum over many
        # samples would absorb a last-bit change in the product order.  At
        # eps/B = 0.6 most samples clip some complement coordinates, so
        # their factors differ and the order of the product shows
        n, d, eps, B = 12, 3, 0.6, 1.0
        ns = nt_set(n, d)
        dep = [i - 1 for i in ns.complement]
        mixed = 0
        for seed in range(200):
            free = density._block_rng(seed, 0).uniform(-B, B, size=(1, len(ns.nt)))
            pred = section_batch(free, n, d)[:, dep]
            over_hi = np.maximum(pred + eps - B, 0.0)
            over_lo = np.maximum(-(pred - eps) - B, 0.0)
            w = np.clip(2.0 * eps - over_hi - over_lo, 0.0, None) / (2.0 * B)
            mixed += len(set(w[0])) >= 3
            r = estimate_density(TubeSpec(n, d, eps, B), 1, seed=seed, mode="conditional")
            assert r.mean == w.prod(axis=1)[0], seed
        assert mixed >= 20


class TestTubeMembership:
    def test_composition_is_member(self):
        f0 = compose(P(1, 1, 0), P(1, 2, 0))
        a = coeff_vector(f0, 4)
        assert tube_membership(a, 4, 2, 1e-9)

    def test_complement_perturbation_exits(self):
        f0 = compose(P(1, 1, 0), P(1, 2, 0))
        eps = 0.05
        ns = nt_set(4, 2)
        a = coeff_vector(f0, 4)
        a[ns.complement[0] - 1] += 2 * eps
        assert not tube_membership(a, 4, 2, eps)
        a[ns.complement[0] - 1] -= 2 * eps  # back inside
        assert tube_membership(a, 4, 2, eps)

    def test_nt_perturbation_recomputes_section(self):
        from polydecomp.decompose import section

        f0 = compose(P(1, 1, 0), P(1, 0, 3, 0))  # degree 6, d = 2
        n, d, eps = 6, 2, 0.05
        ns = nt_set(n, d)
        a = coeff_vector(f0, n)
        a[ns.nt[0] - 1] += 0.5
        b = {i: a[i - 1] for i in ns.nt}
        f = section(b, n, d)
        expected = all(abs(a[i - 1] - f[i]) < eps for i in ns.complement)
        assert tube_membership(a, n, d, eps) == expected

    def test_exact_scalars(self):
        f0 = compose(P(1, Fraction(1, 2), 0), P(1, 2, 0))
        a = [f0[i] for i in range(1, 4)]
        assert tube_membership(a, 4, 2, Fraction(1, 100))

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            tube_membership([0.0, 0.0], 4, 2, 0.1)


class TestTubeSpec:
    def test_valid(self):
        spec = TubeSpec(n=6, d=None, epsilon=0.1, B=1.0)
        assert spec.is_union and spec.target == "union"
        assert spec.divisors == (2, 3)

    def test_union_of_square_degree(self):
        assert TubeSpec(n=4, d=None, epsilon=0.1, B=1.0).divisors == (2,)

    def test_invalid(self):
        with pytest.raises(ValueError):
            TubeSpec(n=6, d=2, epsilon=1.0, B=1.0)
        with pytest.raises(ValueError):
            TubeSpec(n=7, d=None, epsilon=0.1, B=1.0)
        with pytest.raises(ValueError):
            TubeSpec(n=6, d=4, epsilon=0.1, B=1.0)
        with pytest.raises(ValueError):
            TubeSpec(n=6, d=2, epsilon=0.1, B=1.0, field="padic")

    @pytest.mark.parametrize("n,d", [(6, 2.0), (6.0, 2), (6.0, None)])
    def test_non_integer_degree_rejected(self, n, d):
        # these used to escape as a TypeError from range()
        with pytest.raises(ValueError, match="integers"):
            TubeSpec(n=n, d=d, epsilon=0.1, B=1.0)

    @pytest.mark.parametrize("B", [math.inf, 1e308, math.nan])
    def test_unsampleable_box_rejected(self, B):
        # sampling (-B, B) needs the width 2B to be finite
        with pytest.raises(ValueError, match="B"):
            TubeSpec(n=6, d=2, epsilon=0.1, B=B)

    def test_bad_epsilon_is_named(self):
        with pytest.raises(ValueError, match="epsilon=nan"):
            TubeSpec(6, 2, math.nan, 1.0)
        with pytest.raises(ValueError, match="epsilon=nan"):
            estimate_subspace_density(5, 2, math.nan, 1.0, 10)

    @pytest.mark.parametrize("value", ["0.1", None, 1j])
    def test_non_real_radius_rejected(self, value):
        # these used to escape as a TypeError from the comparison
        for epsilon, B in ((value, 1.0), (0.1, value)):
            with pytest.raises(ValueError, match="need 0 < epsilon < B"):
                TubeSpec(12, 3, epsilon, B)
            with pytest.raises(ValueError, match="need 0 < epsilon < B"):
                estimate_subspace_density(5, 2, epsilon, B, 10)


class TestEstimators:
    def test_sandwich_conditional(self):
        # bracket check across divisors and radii
        for n, d in [(4, 2), (6, 2), (6, 3), (9, 3)]:
            for eps in (0.05, 0.1, 0.2):
                spec = TubeSpec(n=n, d=d, epsilon=eps, B=1.0)
                r = estimate_density(spec, 1_000_000, seed=1000 * n + d, mode="conditional")
                b = density_bounds(spec)
                lo = b.lower - 3 * r.std_error - FP_GUARD
                hi = b.upper + 3 * r.std_error + FP_GUARD
                assert lo <= r.mean <= hi, (n, d, eps, r.mean, b)

    def test_union_plain_bracket(self):
        spec = TubeSpec(n=6, d=None, epsilon=0.1, B=1.0)
        r = estimate_density(spec, 400_000, seed=5, mode="plain")
        b = density_bounds(spec)
        assert b.lower - 3 * r.std_error <= r.mean <= b.upper + 3 * r.std_error

    def test_mode_agreement(self):
        spec = TubeSpec(n=4, d=2, epsilon=0.2, B=1.0)
        rp = estimate_density(spec, 1_000_000, seed=21, mode="plain")
        rc = estimate_density(spec, 1_000_000, seed=22, mode="conditional")
        combined = math.hypot(rp.std_error, rc.std_error)
        assert abs(rp.mean - rc.mean) <= 4 * combined + FP_GUARD

    def test_monotone_in_epsilon(self):
        means = []
        ses = []
        for eps in (0.05, 0.1, 0.2):
            spec = TubeSpec(n=6, d=2, epsilon=eps, B=1.0)
            r = estimate_density(spec, 200_000, seed=31, mode="conditional")
            means.append(r.mean)
            ses.append(r.std_error)
        assert means[0] <= means[1] + 2 * (ses[0] + ses[1])
        assert means[1] <= means[2] + 2 * (ses[1] + ses[2])
        assert means[0] < means[2]

    def test_complex_conditional_bracket(self):
        spec = TubeSpec(n=4, d=2, epsilon=0.1, B=1.0, field="complex")
        r = estimate_density(spec, 200_000, seed=41, mode="conditional")
        b = density_bounds(spec)
        lo = b.lower - 3 * r.std_error - FP_GUARD
        hi = b.upper + 3 * r.std_error + FP_GUARD
        assert lo <= r.mean <= hi

    def test_complex_plain_bracket(self):
        spec = TubeSpec(n=4, d=2, epsilon=0.2, B=1.0, field="complex")
        r = estimate_density(spec, 400_000, seed=43, mode="plain")
        b = density_bounds(spec)
        assert b.lower - 3 * r.std_error <= r.mean <= b.upper + 3 * r.std_error

    def test_result_invariants(self):
        spec = TubeSpec(n=6, d=3, epsilon=0.1, B=1.0)
        r = estimate_density(spec, 50_000, seed=51, mode="plain")
        assert 0.0 <= r.mean <= 1.0
        assert r.std_error >= 0.0
        assert r.samples == 50_000
        assert r.mode == "plain"

    def test_reproducible(self):
        spec = TubeSpec(n=6, d=2, epsilon=0.1, B=1.0)
        r1 = estimate_density(spec, 100_000, seed=77, mode="conditional")
        r2 = estimate_density(spec, 100_000, seed=77, mode="conditional")
        assert r1 == r2
        r3 = estimate_density(spec, 100_000, seed=78, mode="conditional")
        assert r3.mean != r1.mean

    def test_thread_count_does_not_change_result(self):
        cases = [
            (TubeSpec(6, None, 0.15, 1.0), "plain", 300_000),
            (TubeSpec(12, 3, 0.6, 1.0, "complex"), "plain", 150_001),
            (TubeSpec(20, 5, 0.1, 1.0), "conditional", 150_001),
            (TubeSpec(12, 3, 0.1, 1.0, "complex"), "conditional", 150_001),
            (dict(n=7, k=3, epsilon=0.5, B=1.0), "plain", 150_001),
            (dict(n=7, k=3, epsilon=0.2, B=1.0, field="complex"), "conditional", 150_001),
        ]
        for target, mode, samples in cases:
            results = [estimate(target, mode, samples, seed=88, threads=t) for t in (None, 1, 2, 4)]
            assert all(r == results[0] for r in results), (target, mode)

    def test_helper_threads_end_with_the_call(self, monkeypatch):
        # each block worker draws on one helper thread; none outlives the
        # call, whether it returns or raises on the worker or the helper
        before = threading.active_count()
        for spec, mode in [
            (TubeSpec(12, 3, 0.1, 1.0, "complex"), "conditional"),
            (TubeSpec(6, None, 0.15, 1.0), "plain"),
        ]:
            results = [estimate_density(spec, 150_001, seed=7, mode=mode, threads=t) for t in (None, 1, 2)]
            assert results[0] == results[1] == results[2]
            assert threading.active_count() == before
        overflowing = TubeSpec(12, 3, 1e39, 1e40, "real")
        for threads in (None, 1, 2):
            with pytest.raises(ValueError, match="overflows"):
                estimate_density(overflowing, 150_001, mode="plain", threads=threads)
            assert threading.active_count() == before

        def sample(*args):  # the second tile of each block fails to draw
            draw = density._sample_box(*args)
            tiles = []

            def failing(t):
                tiles.append(t)
                if len(tiles) == 2:
                    raise RuntimeError("draw failed")
                return draw(t)

            return failing

        monkeypatch.setitem(density._FIELDS, "real", (sample, density._box_weights))
        for threads in (None, 1, 2):
            with pytest.raises(RuntimeError, match="draw failed"):
                estimate_density(TubeSpec(20, 5, 0.1, 1.0), 150_001, mode="conditional", threads=threads)
            assert threading.active_count() == before

    def test_bad_threads(self):
        spec = TubeSpec(n=6, d=2, epsilon=0.1, B=1.0)
        for threads in (0, -3, 2.5):
            with pytest.raises(ValueError, match="threads"):
                estimate_density(spec, 1000, threads=threads)
            with pytest.raises(ValueError, match="threads"):
                estimate_subspace_density(5, 2, 0.1, 1.0, 1000, threads=threads)

    def test_threads_environment_variable_ignored(self, monkeypatch):
        spec = TubeSpec(n=6, d=2, epsilon=0.1, B=1.0)
        want = estimate_density(spec, 100_000, seed=12)
        monkeypatch.setenv("POLYDECOMP_THREADS", "abc")
        assert estimate_density(spec, 100_000, seed=12) == want

    def test_conditional_union_rejected(self):
        spec = TubeSpec(n=6, d=None, epsilon=0.1, B=1.0)
        with pytest.raises(ValueError):
            estimate_density(spec, 100, mode="conditional")

    def test_unknown_mode_rejected(self):
        spec = TubeSpec(n=6, d=2, epsilon=0.1, B=1.0)
        with pytest.raises(ValueError, match="unknown mode 'exact'"):
            estimate_density(spec, 100, mode="exact")

    def test_bad_samples(self):
        spec = TubeSpec(n=6, d=2, epsilon=0.1, B=1.0)
        for samples in (0, -3, 1e4, 2.5):
            with pytest.raises(ValueError, match="samples"):
                estimate_density(spec, samples)
            with pytest.raises(ValueError, match="samples"):
                estimate_subspace_density(5, 2, 0.1, 1.0, samples)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(epsilon=0.1, B=0.1),
            dict(epsilon=0.0, B=1.0),
            dict(field="padic"),
            dict(B=math.inf),
            dict(B=1e308),
            dict(n=2.5, k=1),
            dict(k=2.0),
        ],
    )
    def test_subspace_bad_input_rejected(self, kwargs):
        # an unknown field used to be sampled as the complex polydisk
        args = dict(n=5, k=2, epsilon=0.1, B=1.0, samples=100) | kwargs
        with pytest.raises(ValueError):
            estimate_subspace_density(**args)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5, 1.5])
    def test_seed_outside_64_bits_rejected(self, seed):
        # a masked seed would alias -1 with 2**64 - 1
        spec = TubeSpec(n=6, d=2, epsilon=0.1, B=1.0)
        with pytest.raises(ValueError):
            estimate_density(spec, 100, seed=seed)
        with pytest.raises(ValueError):
            estimate_subspace_density(5, 2, 0.1, 1.0, 100, seed=seed)

    @pytest.mark.parametrize(
        "spec",
        [
            TubeSpec(12, 3, 1e199, 1e200, "complex"),  # used to give mean NaN
            TubeSpec(12, 3, 1e99, 1e100, "real"),  # used to give mean NaN
            TubeSpec(12, 3, 1e39, 1e40, "real"),  # used to give 0.0, bracket [5.9e-7, 1e-6]
            # the low coefficients overflow while the top complement block is finite
            TubeSpec(30, 5, 1e14, 1e15, "real"),
            TubeSpec(30, 5, 1e19, 1e20, "real"),
        ],
        ids=["complex-1e200", "real-1e100", "real-1e40", "real30-1e15", "real30-1e20"],
    )
    @pytest.mark.parametrize("mode", ["conditional", "plain"])
    def test_overflowing_section_rejected(self, spec, mode):
        # the ValueError is the whole report: numpy prints no overflow warning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=re.escape(f"B={spec.B!r}")):
                estimate_density(spec, 2000, mode=mode)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_largest_seed_accepted(self):
        spec = TubeSpec(n=6, d=2, epsilon=0.5, B=1.0)
        r = estimate_density(spec, 1000, seed=2**64 - 1, mode="plain")
        assert r.seed == 2**64 - 1
        assert r.mean != estimate_density(spec, 1000, seed=0, mode="plain").mean


@pytest.mark.parametrize("field", ["real", "complex"])
def test_tiles_draw_the_bytes_of_one_block_draw(field):
    # width 5: 4465 and 7 rows end the radii off a four-double Philox step
    sample, width, block = density._FIELDS[field][0], 5, 2
    seed, B = 2**64 - 1, 0.3
    for rows in (1, 7, 4465, 65_536):
        rng, shape = density._block_rng(seed, block), (rows, width)
        if field == "real":
            whole = rng.uniform(-B, B, size=shape)
        else:
            radius = B * np.sqrt(rng.random(size=shape))
            angle = 2.0 * math.pi * rng.random(size=shape)
            whole = radius * np.exp(1j * angle)
        for tile in (1, 3, 1024, 8192):
            draw = sample(seed, block, rows, width, B)
            got = np.concatenate([draw(min(tile, rows - lo)) for lo in range(0, rows, tile)])
            assert got.dtype == whole.dtype and got.tobytes() == whole.tobytes(), (rows, tile)


@pytest.mark.parametrize("epsilon,B", [(0.1, 1.0), (0.5, 1.0), (0.3, 0.31), (1e-300, 1.0), (2.0, 1e10)])
def test_box_weights_at_the_clip_edges(epsilon, B):
    # |(p - eps, p + eps) ∩ (-B, B)| / 2B over Fractions of the same doubles,
    # at both signs of 0, eps, B, B -+ eps, 2 eps and the least subnormal, and
    # at the float neighbours of each; the rounding of |p| + eps - B is in
    # ulps of |p| + eps, so the allowance is too
    edges = []
    for t in (0.0, epsilon, B, B - epsilon, B + epsilon, 2 * epsilon, 5e-324):
        for y in (t, -t):
            edges += [y, math.nextafter(y, math.inf), math.nextafter(y, -math.inf)]
    p = np.array(edges)
    x = np.empty(p.size)
    density._box_weights(p[np.newaxis], [0], epsilon, B, x)
    e, b = Fraction(epsilon), Fraction(B)
    for pi, xi in zip(edges, x.tolist()):
        q = Fraction(pi)
        want = max(min(q + e, b) - max(q - e, -b), 0) / (2 * b)
        allowance = 3 * math.ulp(abs(pi) + epsilon) / (2 * B) + math.ulp(float(want))
        assert abs(Fraction(xi) - want) <= allowance, (pi, xi, float(want))
        assert 0 <= xi <= epsilon / B


class TestRowTiles:
    """Workers compute each block in row tiles; the tile size is invisible."""

    # (spec or subspace arguments, mode, samples): 100,003 leaves a ragged
    # last block and a ragged last tile, and is not a multiple of 8
    CASES = [
        (TubeSpec(20, 5, 0.1, 1.0), "conditional", 100_003),
        (TubeSpec(64, 8, 0.1, 1.0), "conditional", 20_001),
        (TubeSpec(12, 3, 0.1, 1.0, "complex"), "conditional", 100_003),
        (TubeSpec(6, None, 0.1, 1.0), "plain", 100_003),
        (TubeSpec(30, 5, 0.1, 1.0), "plain", 30_000),
        (TubeSpec(12, 3, 0.6, 1.0, "complex"), "plain", 30_000),
        (dict(n=7, k=3, epsilon=0.2, B=1.0, field="real"), "conditional", 100_003),
        (dict(n=7, k=3, epsilon=0.2, B=1.0, field="complex"), "conditional", 100_003),
        (dict(n=7, k=3, epsilon=0.5, B=1.0, field="real"), "plain", 100_003),
    ]

    @pytest.mark.parametrize("seed", [5, 2**64 - 1])
    def test_tile_size_does_not_change_result(self, seed, monkeypatch):
        default = [estimate(*case, seed) for case in self.CASES]
        # one tile per block, then tiles smaller than the default
        for tile in (1 << 16, 1024):
            monkeypatch.setattr(density, "_TILE", tile)
            assert [estimate(*case, seed) for case in self.CASES] == default, tile

    def test_peak_memory_of_a_block(self):
        # a worker holds one tile's section, the draws of two tiles (its
        # helper draws the next) and the block's x: 23.1 and 11.8 MiB.
        # A whole-block sample array and a gathered copy of the complement
        # rows held 28.5 and 22.3 MiB, a whole-block section about 170 MB
        for spec, mode, mib in [
            (TubeSpec(64, 8, 0.1, 1.0), "conditional", 24),
            (TubeSpec(30, 5, 0.1, 1.0), "plain", 12),
        ]:
            tracemalloc.start()
            try:
                estimate_density(spec, 65_536, seed=3, mode=mode, threads=1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < mib * 2**20, (spec, peak)


class TestTopBlock:
    """Plain mode decides a miss from the section's top complement block."""

    # (n, d, epsilon, field, seed, mean, std_error), plain, B = 1, 100,003
    # samples: recorded before plain mode screened samples on the block
    PINS = [
        (6, 2, 0.3, "real", 0, "0x1.7096860311190p-4", "0x1.da7040ba4d815p-11"),
        (6, 2, 0.3, "real", 1, "0x1.6fba5441df37bp-4", "0x1.d9f073a6a30edp-11"),
        (6, 2, 0.3, "real", 2, "0x1.6bf5ab0be01fbp-4", "0x1.d7be31206a2e9p-11"),
        (6, 3, 0.3, "real", 0, "0x1.780adfe2c1645p-4", "0x1.debb909655581p-11"),
        (6, 3, 0.3, "real", 1, "0x1.6e94bc959cb60p-4", "0x1.d945bd16b2155p-11"),
        (6, 3, 0.3, "real", 2, "0x1.7205839a643b3p-4", "0x1.db44cfad80208p-11"),
        (8, 2, 0.3, "real", 0, "0x1.bec73d237e4b3p-6", "0x1.0e05719ad16c3p-11"),
        (8, 2, 0.3, "real", 1, "0x1.c81deb9e2e229p-6", "0x1.10bfacbd51d41p-11"),
        (8, 2, 0.3, "real", 2, "0x1.af0cd3e912c5ap-6", "0x1.095b4eff62b74p-11"),
        (9, 3, 0.3, "real", 0, "0x1.12ea4f4d220f5p-7", "0x1.2e70dfad68cd6p-12"),
        (9, 3, 0.3, "real", 1, "0x1.07c644c3c090bp-7", "0x1.284cd9b329089p-12"),
        (9, 3, 0.3, "real", 2, "0x1.15dd430816386p-7", "0x1.300b810e87aa1p-12"),
        (12, 3, 0.4, "real", 0, "0x1.133e317e59a21p-8", "0x1.acdfc2cbd541dp-13"),
        (12, 3, 0.4, "real", 1, "0x1.0c08c1439304ep-8", "0x1.a73e74cc20b3ep-13"),
        (12, 3, 0.4, "real", 2, "0x1.0e000e6ae0759p-8", "0x1.a8c97735b2ac4p-13"),
        (6, None, 0.1, "real", 0, "0x1.3e7ed2df01518p-6", "0x1.c9cc6d07e5121p-12"),
        (6, None, 0.1, "real", 1, "0x1.303de3820fe07p-6", "0x1.bfa2c2ad0cee1p-12"),
        (6, None, 0.1, "real", 2, "0x1.38eccd9a50923p-6", "0x1.c5db2d440b958p-12"),
        (12, None, 0.4, "real", 0, "0x1.22a4b8878d94fp-6", "0x1.b5b3e32d266b1p-12"),
        (12, None, 0.4, "real", 1, "0x1.34566ee9468b3p-6", "0x1.c294dbaa1a724p-12"),
        (12, None, 0.4, "real", 2, "0x1.2df2b4298adcfp-6", "0x1.bdfa1e2e65288p-12"),
        (6, 2, 0.3, "complex", 0, "0x1.1439d812005a7p-7", "0x1.2f27a755c306ap-12"),
        (6, 2, 0.3, "complex", 1, "0x1.047f6ed794d4dp-7", "0x1.26780ab000016p-12"),
        (6, 2, 0.3, "complex", 2, "0x1.08c1eb5767490p-7", "0x1.28d8e918847ecp-12"),
        (12, 3, 0.3, "complex", 0, "0x0.0p+0", "0x0.0p+0"),
        (12, 3, 0.3, "complex", 1, "0x0.0p+0", "0x0.0p+0"),
        (12, 3, 0.3, "complex", 2, "0x0.0p+0", "0x0.0p+0"),
        (12, 3, 0.6, "complex", 0, "0x1.b5c470da0606bp-10", "0x1.0ec7532ca6051p-13"),
        (12, 3, 0.6, "complex", 1, "0x1.f9ec38d72d49ap-10", "0x1.230e9f109dcbbp-13"),
        (12, 3, 0.6, "complex", 2, "0x1.c57eda14718c4p-10", "0x1.139779442f953p-13"),
    ]

    @pytest.mark.parametrize("n,d,epsilon,field,seed,mean,std_error", PINS)
    def test_plain_estimates_are_unchanged(self, n, d, epsilon, field, seed, mean, std_error):
        r = estimate_density(TubeSpec(n, d, epsilon, 1.0, field), 100_003, seed=seed)
        assert (r.mean, r.std_error) == (float.fromhex(mean), float.fromhex(std_error))

    def test_misses_need_no_section(self, monkeypatch):
        # plain (30,5) has no hit in 100,000 samples; the full section ran
        # on every row before the block decided the misses
        solved = []

        def counting(free, n, d):
            solved.append(len(free))
            return section_batch(free, n, d)

        monkeypatch.setattr(density, "section_batch", counting)
        r = estimate_density(TubeSpec(30, 5, 0.1, 1.0), 100_000, seed=0)
        assert r.mean == 0.0
        assert sum(solved) < 1000, solved


class TestAgainstQuadrature:
    def test_conditional_matches_midpoint_rule(self):
        # deterministic oracle: midpoint quadrature over the three
        # determining coordinates at (6,2), no sampling involved
        n, d, eps, B = 6, 2, 0.1, 1.0
        grid = 100
        centers = ((np.arange(grid) + 0.5) / grid) * 2 * B - B
        pts = np.stack(
            np.meshgrid(centers, centers, centers, indexing="ij"), axis=-1
        ).reshape(-1, 3)
        pred = section_batch(pts, n, d)[:, [i - 1 for i in nt_set(n, d).complement]]
        assert pred.shape == (grid**3, nt_set(n, d).codim)
        lo = np.maximum(pred - eps, -B)
        hi = np.minimum(pred + eps, B)
        w = (np.clip(hi - lo, 0.0, None) / (2 * B)).prod(axis=1)
        quadrature = w.mean()
        r = estimate_density(TubeSpec(n=n, d=d, epsilon=eps, B=B), 400_000, seed=61, mode="conditional")
        assert abs(quadrature - r.mean) < 1e-4
        b = bounds(n, d, eps, B)
        assert b.lower <= quadrature <= b.upper + FP_GUARD

    def test_plain_membership_matches_scalar_oracle(self):
        rng = np.random.default_rng(99)
        eps = 0.15
        for n, d in [(4, 2), (6, 2), (6, 3), (9, 3)]:
            ns = nt_set(n, d)
            a = rng.uniform(-1, 1, size=(200, n - 1))
            pred = section_batch(a[:, [i - 1 for i in ns.nt]], n, d)[:, [i - 1 for i in ns.complement]]
            fast = (np.abs(a[:, [i - 1 for i in ns.complement]] - pred) < eps).all(axis=1)
            slow = np.array([tube_membership(list(row), n, d, eps) for row in a])
            assert (fast == slow).all()


class TestSubspaceCalibration:
    def test_conditional_is_exact(self):
        r = estimate_subspace_density(5, 2, 0.1, 1.0, 10_000, seed=3, mode="conditional")
        assert abs(r.mean - (0.1) ** 3) < 1e-12
        assert r.std_error < 1e-15

    def test_plain_agrees(self):
        r = estimate_subspace_density(5, 2, 0.3, 1.0, 400_000, seed=9, mode="plain")
        exact = 0.3**3
        assert abs(r.mean - exact) <= 4 * r.std_error + FP_GUARD

    def test_complex_conditional(self):
        # complement balls stay inside the polydisk only when pred = 0, so the
        # exact value is (eps/B)^(2(n-k))
        r = estimate_subspace_density(4, 2, 0.25, 1.0, 10_000, seed=13, mode="conditional", field="complex")
        assert abs(r.mean - 0.25**4) < 1e-12

    @pytest.mark.parametrize("B", [1e-200, 1e-160, 1e160, 1e200])
    def test_complex_conditional_at_extreme_radius(self, B):
        # the lens area and pi * B * B leave the float range at these B;
        # the weights depend on eps/B alone
        r = estimate_subspace_density(5, 2, 0.5 * B, B, 4096, seed=1, mode="conditional", field="complex")
        assert r.mean == 0.5**6


class TestReport:
    def test_fields_and_bracket(self):
        spec = TubeSpec(n=6, d=None, epsilon=0.1, B=1.0)
        r = estimate_density(spec, 10_000, seed=1, mode="plain")
        row = density_report(spec, r)
        assert row["d"] == "union"
        assert row["lower_bound"] == pytest.approx(0.01458)
        assert row["upper_bound"] == pytest.approx(0.02)
        assert row["cheng_bound"] == pytest.approx(0.24)
        assert row["samples"] == 10_000

    def test_single_divisor_complex(self):
        spec = TubeSpec(n=4, d=2, epsilon=0.1, B=1.0, field="complex")
        r = estimate_density(spec, 1_000, seed=1, mode="conditional")
        row = density_report(spec, r)
        assert row["d"] == 2
        assert row["field"] == "complex"
        assert row["upper_bound"] == pytest.approx(0.01)
