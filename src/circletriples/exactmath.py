"""Exact Gaussian-integer arithmetic.

Gaussian integers (elements m + n*i of Z[i]) get their own small class; the
stdlib has nothing exact for them. The package divides only exactly, with
try_divexact. Division with remainder (divmod) rounds the quotient
coordinates to nearest, so the remainder's norm is at most half the
divisor's.
"""

from __future__ import annotations


class GaussianInt:
    """An element re + im*i of Z[i], exact at any magnitude."""

    __slots__ = ("re", "im")

    def __init__(self, re: int = 0, im: int = 0):
        self.re = int(re)
        self.im = int(im)

    def __repr__(self):
        return f"GaussianInt({self.re}, {self.im})"

    def __eq__(self, other):
        if isinstance(other, int):
            other = GaussianInt(other)
        if not isinstance(other, GaussianInt):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re or self.im)

    def __mul__(self, other):
        if isinstance(other, int):
            return GaussianInt(self.re * other, self.im * other)
        if not isinstance(other, GaussianInt):
            return NotImplemented
        return GaussianInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers leave Z[i]")
        result = GaussianInt(1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def conjugate(self) -> "GaussianInt":
        return GaussianInt(self.re, -self.im)

    def norm(self) -> int:
        """re**2 + im**2, the squared absolute value. Multiplicative."""
        return self.re * self.re + self.im * self.im

    def __divmod__(self, other):
        """Quotient with coordinates rounded to nearest, plus remainder.

        Guarantees norm(remainder) <= norm(other) / 2.
        """
        if isinstance(other, int):
            other = GaussianInt(other)
        if not other:
            raise ZeroDivisionError("division by zero in Z[i]")
        n = other.norm()
        num = self * other.conjugate()
        # nearest integer to x/n for n > 0
        q = GaussianInt((2 * num.re + n) // (2 * n), (2 * num.im + n) // (2 * n))
        qd = q * other
        return q, GaussianInt(self.re - qd.re, self.im - qd.im)


def try_divexact(z: GaussianInt, d: GaussianInt):
    """The exact quotient z / d in Z[i], or None when d does not divide z."""
    n = d.norm()
    num = z * d.conjugate()
    if num.re % n or num.im % n:
        return None
    return GaussianInt(num.re // n, num.im // n)
