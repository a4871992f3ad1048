"""Building polynomials that decompose at two divisors at once.

Run:  python3 demos/collision_constructors.py
"""

from fractions import Fraction

from polydecomp import (
    CollisionParams,
    alpha_exp,
    alpha_trig,
    compose,
    dickson,
    format_polynomial,
    original_shift,
    try_decompose,
    verify_bidecomposable,
    x_power,
)

X = x_power(1)

# Dickson polynomials: x*T_{k-1} - z*T_{k-2} starting from 2, x.  At z = 0
# they are plain powers; composition multiplies the degree index.
z = Fraction(1, 2)
for k in range(7):
    print(f"T_{k}(x, 1/2) = {dickson(k, z)}")
print("semigroup check: T_2(T_3, z^3) == T_6:",
      compose(dickson(2, z**3), dickson(3, z)) == dickson(6, z))

# The original shift recenters so the result passes through the origin.
p = dickson(6, z)
print("\noriginalized T_6:", original_shift(p, Fraction(0)))

# Trigonometric collisions: u o T_{n/i^2}(x,z)^[a] o v lies in the images of
# composition at both d and e.  Here n=6, d=2, e=3.
params = CollisionParams(n=6, d=2, u=X, v=X, a=Fraction(1, 3), z=z)
f = alpha_trig(params)
print("\ntrig collision (n=6):", format_polynomial(f))
print("  decomposes at 2:", try_decompose(f, 2) is not None,
      " at 3:", try_decompose(f, 3) is not None)
dec2, dec3 = try_decompose(f, 2), try_decompose(f, 3)
print("  at d=2: g =", dec2.g, ", h =", dec2.h)
print("  at d=3: g =", dec3.g, ", h =", dec3.h)

# Exponential collisions: the core x^t * w(x^k)^k factors through x^k on one
# side and through x^k o (...) on the other.  n=12, d=3, e=4 here.
params = CollisionParams(
    n=12, d=3,
    u=X, v=X,
    a=Fraction(2),
    w=x_power(1) + Fraction(3, 2),   # w = x + 3/2, monic of degree s = 1
)
f = alpha_exp(params)
print("\nexp collision (n=12):", format_polynomial(f))
print("  bidecomposable at (3, 4):", verify_bidecomposable(f, 3, 4))
