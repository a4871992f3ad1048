from fractions import Fraction

import pytest


class GaussQ:
    """Exact Gaussian rational re + im*i with Fraction parts: the exact value
    of a float or complex, a field in which the scalar section runs without
    rounding, and a scalar type `compose` treats as neither exact nor floating."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @staticmethod
    def of(x):
        if isinstance(x, GaussQ):
            return x
        return GaussQ(x.real, x.imag) if isinstance(x, complex) else GaussQ(x)

    def __add__(self, other):
        o = GaussQ.of(other)
        return GaussQ(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussQ(-self.re, -self.im)

    def __sub__(self, other):
        return self + -GaussQ.of(other)

    def __rsub__(self, other):
        return GaussQ.of(other) - self

    def __mul__(self, other):
        o = GaussQ.of(other)
        return GaussQ(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = GaussQ.of(other)
        return self * GaussQ(o.re / o.norm(), -o.im / o.norm())

    def __rtruediv__(self, other):
        return GaussQ.of(other) / self

    def __eq__(self, other):
        o = GaussQ.of(other)
        return self.re == o.re and self.im == o.im

    __hash__ = None

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def norm(self):
        return self.re * self.re + self.im * self.im


@pytest.fixture
def gaussq():
    """The `GaussQ` type, shared by the test modules through this fixture."""
    return GaussQ
