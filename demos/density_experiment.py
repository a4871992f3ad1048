"""Tube densities: closed-form brackets versus Monte Carlo estimates.

Around every decomposable polynomial we attach an epsilon-box in the twelve
(or however many) coefficient directions that do not determine the
decomposition, clip to the coefficient box |f_i| < B, and measure the volume
fraction.  The bracket

    (eps/B)^codim (1 - eps/B)^dim  <=  density  <=  (eps/B)^codim

is checked here by two estimators: a plain membership average and a
conditional one that samples only the determining coordinates and integrates
the rest exactly (far smaller variance).

Run:  python3 demos/density_experiment.py
"""

from polydecomp import (
    TubeSpec,
    cheng_bound,
    density_bounds,
    estimate_density,
    estimate_subspace_density,
    tube_membership,
    compose,
    parse_polynomial,
)

SAMPLES = 200_000

print(f"{'n':>3} {'d':>3} {'eps':>5} | {'lower':>10} {'estimate':>10} {'+-3se':>9} {'upper':>10}")
for n, d in [(4, 2), (6, 2), (6, 3), (9, 3)]:
    for eps in (0.1, 0.2):
        spec = TubeSpec(n=n, d=d, epsilon=eps, B=1.0)
        r = estimate_density(spec, SAMPLES, seed=1, mode="conditional")
        b = density_bounds(spec)
        print(f"{n:>3} {d:>3} {eps:>5} | {b.lower:>10.6f} {r.mean:>10.6f} "
              f"{3 * r.std_error:>9.1e} {b.upper:>10.6f}")

# The union of the tubes around the two largest components (d = 2 and 3 for
# n = 6) is measured with the plain estimator; the bracket gains delta = 2.
spec = TubeSpec(n=6, d=None, epsilon=0.1, B=1.0)
r = estimate_density(spec, 2 * SAMPLES, seed=2, mode="plain")
b = density_bounds(spec)
print(f"\nunion n=6: estimate {r.mean:.6f} (se {r.std_error:.1e}) "
      f"bracket [{b.lower:.6f}, {b.upper:.6f}]")

# Complex coefficients double every exponent; the polydisk sampling and the
# two-circle lens areas replace intervals and overlaps.
spec = TubeSpec(n=4, d=2, epsilon=0.1, B=1.0, field="complex")
r = estimate_density(spec, SAMPLES, seed=3, mode="conditional")
b = density_bounds(spec)
print(f"complex (4,2): estimate {r.mean:.6f} bracket [{b.lower:.6f}, {b.upper:.6f}]")
print(f"hypersurface comparison bound at n=6: {cheng_bound(6, 0.1, 1.0):.4f} "
      f"(ours: {density_bounds(TubeSpec(n=6, d=None, epsilon=0.1, B=1.0)).upper:.4f})")

# Calibration: on a linear subspace model the conditional estimator is exact.
r = estimate_subspace_density(5, 2, 0.1, 1.0, 10_000, seed=4, mode="conditional")
print(f"\nsubspace model (n=5, k=2): estimate {r.mean!r} vs exact {0.1 ** 3!r}")

# Membership is a sharp yes/no per point: the section pins down the unique
# decomposable polynomial sharing the determining coordinates.
f0 = compose(parse_polynomial("1,1,0", "real64"), parse_polynomial("1,2,0", "real64"))
a = [f0[i] for i in range(1, 4)]
print("\nf0 itself in the tube:", tube_membership(a, 4, 2, 1e-9))
a[0] += 0.3
print("after bumping a complement coefficient by 0.3 (eps=0.1):",
      tube_membership(a, 4, 2, 0.1))
