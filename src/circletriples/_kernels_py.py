"""The oracle's scan loops: exact integer search, nothing about primes."""

from math import gcd, isqrt


def triples_scan(c: int) -> list[tuple[int, int]]:
    """All (a, b) with 0 < a < b, a^2 + b^2 = c^2, gcd(a, b) = 1, sorted by a.

    Scans the gap d = c - b, for which a^2 = (c - b)(c + b) = d * (2c - d),
    and visits only the gaps a primitive triple can have: d = k^2 or 2k^2.
    A common factor of b and c would divide a, so gcd(b, c) = 1. If b is
    even, c - b and c + b are odd, and an odd common factor of them divides
    2b and 2c, hence b and c: they are coprime, their product a^2 is a
    square, so each is a square and d = k^2. If b is odd, c - b and c + b
    are even, their halves are coprime for the same reason and multiply to
    (a/2)^2, so d = 2k^2. Only parity and coprimality are used, no primes.
    That is about 0.92 * sqrt(c) gaps in all; the hits are sorted at the end.

    a < b holds exactly while 2b^2 > c^2. gcd(a, b) = 1 already implies
    gcd(a, b, c) = 1: any common factor of the legs divides c^2 and hence c.
    """
    c2 = 2 * c
    d_max = c - isqrt(c * c // 2) - 1  # b = c - d is the least b with 2b^2 > c^2
    out = []
    for m in (1, 2):  # d = m * k^2
        for k in range(1, isqrt(d_max // m) + 1):
            d = m * k * k
            asq = d * (c2 - d)
            a = isqrt(asq)
            if a * a == asq and gcd(a, c - d) == 1:
                out.append((a, c - d))
    out.sort()
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
