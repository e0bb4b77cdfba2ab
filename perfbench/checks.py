"""Independent answers for the benchmark's workloads.

Nothing here imports circletriples. Expected triples and basis
factorizations are rebuilt from the primes each input was made of, with a
scan for the two-squares decomposition and plain Gaussian-integer products
on (re, im) pairs; expected counts come from sympy's factorint. Each
checker takes the JSON document one CLI invocation printed and raises
WrongAnswer when it disagrees.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, prod


class WrongAnswer(Exception):
    """The program's output disagrees with the independent computation."""


def primes_below(limit: int) -> list[int]:
    """All primes < limit (limit >= 2), by sieve of Eratosthenes."""
    sieve = bytearray([1]) * limit
    sieve[0:2] = b"\0\0"
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, limit, p)))
    return [n for n in range(limit) if sieve[n]]


def two_squares(p: int) -> tuple[int, int]:
    """The (m, n) with 0 < m < n and m*m + n*n == p, by scanning m."""
    m = 1
    while 2 * m * m < p:
        r = p - m * m
        n = isqrt(r)
        if n * n == r:
            return m, n
        m += 1
    raise ValueError(f"{p} is not a sum of two distinct squares")


def gmul(z: tuple[int, int], w: tuple[int, int]) -> tuple[int, int]:
    return z[0] * w[0] - z[1] * w[1], z[0] * w[1] + z[1] * w[0]


def gpow(z: tuple[int, int], e: int) -> tuple[int, int]:
    out = (1, 0)
    for _ in range(e):
        out = gmul(out, z)
    return out


def expected_legs(factors) -> set[tuple[int, int]]:
    """Legs (a, b), a < b, of every triple with hypotenuse prod p**n.

    They are (|Re w**2|, |Im w**2|) over w = prod q_j**(+-n_j), where
    q_j = m + n*i with p_j = m*m + n*n and q**(-n) stands for conj(q)**n.
    w and conj(w) give the same triple, so the set has 2**(k-1) members.
    """
    ws = [(1, 0)]
    for p, n in factors:
        m, k = two_squares(p)
        pair = (gpow((m, k), n), gpow((m, -k), n))
        ws = [gmul(w, q) for w in ws for q in pair]
    legs = set()
    for w in ws:
        re, im = gmul(w, w)
        legs.add(tuple(sorted((abs(re), abs(im)))))
    return legs


def point_of(unit_exp: int, terms) -> tuple[Fraction, Fraction]:
    """Coordinates of i**unit_exp * prod zeta_p**e, zeta_p = q/conj(q) = q**2/p."""
    w = gpow((0, 1), unit_exp)
    for p, e in terms:
        m, n = two_squares(p)
        w = gmul(w, gpow((m, n if e > 0 else -n), 2 * abs(e)))
    den = prod(p ** abs(e) for p, e in terms)
    s, t = Fraction(w[0], den), Fraction(w[1], den)
    if s * s + t * t != 1:
        raise ValueError(f"({s}, {t}) is off the unit circle")
    return s, t


def count_from_factorint(c: int, factorint) -> int:
    """2**(k-1) when c > 1 is odd with every prime factor 1 (mod 4), else 0."""
    fac = factorint(c)
    if c == 1 or any(p % 4 != 1 for p in fac):
        return 0
    return 2 ** (len(fac) - 1)


def _result(doc: dict, command: str):
    if doc.get("command") != command:
        raise WrongAnswer(f"command {doc.get('command')!r}, expected {command!r}")
    return doc["result"]


def check_count(doc: dict, expected: int) -> None:
    got = int(_result(doc, "count"))
    if got != expected:
        raise WrongAnswer(f"count {got}, expected {expected}")


def check_triples(doc: dict, factors, verify: bool) -> None:
    """Every triple valid and ordered, and the set equal to expected_legs."""
    result = _result(doc, "triples")
    c = prod(p**n for p, n in factors)
    rows = [(int(t["a"]), int(t["b"]), int(t["c"])) for t in result["triples"]]
    for a, b, cc in rows:
        if cc != c:
            raise WrongAnswer(f"hypotenuse {cc} in the triples of {c}")
        if not 0 < a < b:
            raise WrongAnswer(f"legs ({a}, {b}) not 0 < a < b")
        if a * a + b * b != c * c:
            raise WrongAnswer(f"({a}, {b}, {c}) is not Pythagorean")
        if gcd(a, b) != 1:
            raise WrongAnswer(f"({a}, {b}, {c}) is not primitive")
    short = [a for a, _, _ in rows]
    if short != sorted(short):
        raise WrongAnswer("triples are not ordered by the short leg")
    want = expected_legs(factors)
    got = [(a, b) for a, b, _ in rows]
    if len(got) != len(want) or set(got) != want:
        missing = sorted(want - set(got))[:3]
        extra = sorted(set(got) - want)[:3]
        raise WrongAnswer(
            f"{len(got)} triples for c={c}, expected {len(want)}; "
            f"missing {missing}, unexpected {extra}"
        )
    if verify and result.get("verified") is not True:
        raise WrongAnswer(f"verified is {result.get('verified')!r} for c={c}")


def check_point(doc: dict, unit_exp: int, terms) -> None:
    """The factorization printed is the one the point was built from."""
    result = _result(doc, "factor-point")
    got = (int(result["unit_exp"]), [(int(t["p"]), int(t["e"])) for t in result["terms"]])
    want = (unit_exp, [tuple(t) for t in terms])
    if got != want:
        raise WrongAnswer(f"factorization {got}, expected {want}")
