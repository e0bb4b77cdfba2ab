
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from circletriples.exactmath import (
    GaussianInt,
    try_divexact,
)


class TestRationals:
    """The canonical form of Fraction that every module relies on."""

    def test_sign_normalized_reciprocal(self):
        r = 1 / Fraction(-7, 25)
        assert (r.numerator, r.denominator) == (-25, 7)

    def test_invert_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            1 / Fraction(0)

    @given(st.fractions(), st.fractions())
    def test_results_are_canonical(self, x, y):
        z = x * y + x
        assert z.denominator > 0
        from math import gcd

        assert gcd(abs(z.numerator), z.denominator) == 1


gaussians = st.builds(
    GaussianInt,
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=-10**6, max_value=10**6),
)


class TestGaussianInt:
    def test_mul_conjugate_gives_norm(self):
        assert GaussianInt(1, 2) * GaussianInt(1, -2) == GaussianInt(5)

    def test_conjugate(self):
        assert GaussianInt(1, 4).conjugate() == GaussianInt(1, -4)

    def test_norm_zero(self):
        assert GaussianInt(0, 0).norm() == 0

    def test_divexact_from_mul(self):
        assert try_divexact(GaussianInt(5), GaussianInt(1, 2)) == GaussianInt(1, -2)

    def test_divexact_square(self):
        # (3+4i)^2 = -7+24i by direct multiplication
        assert GaussianInt(3, 4) * GaussianInt(3, 4) == GaussianInt(-7, 24)
        assert try_divexact(GaussianInt(-7, 24), GaussianInt(3, 4)) == GaussianInt(3, 4)

    def test_divexact_two(self):
        assert try_divexact(GaussianInt(2), GaussianInt(1, 1)) == GaussianInt(1, -1)

    def test_divexact_rejects_nondivisor(self):
        assert try_divexact(GaussianInt(3), GaussianInt(1, 2)) is None

    def test_pow(self):
        assert GaussianInt(1, 2) ** 4 == GaussianInt(-7, -24)
        assert GaussianInt(1, 2) ** 0 == GaussianInt(1)

    @given(gaussians, gaussians)
    def test_norm_is_multiplicative(self, x, y):
        assert (x * y).norm() == x.norm() * y.norm()

    @given(gaussians, gaussians)
    def test_conjugation_is_a_ring_homomorphism(self, x, y):
        assert x.conjugate().conjugate() == x
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()

    @given(gaussians, gaussians)
    def test_divmod_remainder_is_small(self, z, d):
        if not d:
            return
        q, r = divmod(z, d)
        qd = q * d
        assert (qd.re + r.re, qd.im + r.im) == (z.re, z.im)
        assert 2 * r.norm() <= d.norm()
