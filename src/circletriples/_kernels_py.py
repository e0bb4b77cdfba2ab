"""The oracle's scan loops: exact integer search, nothing about primes."""

from math import gcd, isqrt

# Wheel modulus 16 * 9 * 5. A square stays a square mod _M, so a gap d with
# d * (2c - d) not a square mod _M cannot give a triple and is skipped.
_M = 720
_SQUARES_MOD_M = frozenset(x * x % _M for x in range(_M))


def triples_scan(c: int) -> list[tuple[int, int]]:
    """All (a, b) with 0 < a < b, a^2 + b^2 = c^2, gcd(a, b) = 1, sorted by a.

    Walks the gap d = c - b upward, so a^2 = d * (2c - d) grows with d and
    the pairs come out sorted by a. a < b holds exactly while 2b^2 > c^2.
    gcd(a, b) = 1 already implies gcd(a, b, c) = 1: any common factor of
    the legs divides c^2 and hence c.
    """
    c2 = 2 * c
    d_max = c - isqrt(c * c // 2) - 1  # b = c - d is the least b with 2b^2 > c^2
    # residues 1.._M rather than 0.._M-1, so that d = 0 never comes up
    wheel = [r for r in range(1, _M + 1) if r * (c2 - r) % _M in _SQUARES_MOD_M]
    out = []
    for base in range(0, d_max, _M):
        for r in wheel:
            d = base + r
            if d > d_max:
                break
            asq = d * (c2 - d)
            a = isqrt(asq)
            if a * a == asq and gcd(a, c - d) == 1:
                out.append((a, c - d))
    return out


def two_squares_scan(p: int):
    """The (m, n) with 0 < m < n and m^2 + n^2 = p, by exhaustive search."""
    m = 1
    while 2 * m * m < p:
        r = p - m * m
        n = isqrt(r)
        if n * n == r:
            return (m, n)
        m += 1
    return None
