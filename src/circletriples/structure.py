"""Structure of the rational circle group, and triple enumeration.

The group splits as (torsion) x (free part): the four units times a free
abelian group whose basis points are indexed by the primes p = 1 (mod 4).
For such a prime with p = m**2 + n**2, 0 < m < n, the basis point is
q / conj(q) where q = m + n*i. Writing an arbitrary point in these
coordinates, and reading the hypotenuse off the exponents, turns counting
and enumerating triples with a given hypotenuse into bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional

from .circle import (
    CirclePoint,
    NormalizedTriple,
    UNIT_POINTS,
    pt,
    point_from_triple,
)
from .exactmath import GaussianInt, try_divexact
from .primes import PrimeClass, _euclid_two_squares, classify, factorize


@dataclass(frozen=True)
class BasisFactorization:
    """A point written as i**unit_exp times a product of basis-point powers.

    terms holds (p, e) pairs with p = 1 (mod 4), e nonzero, primes strictly
    increasing. Negative e means a power of the conjugate basis point.
    """

    unit_exp: int
    terms: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.unit_exp not in (0, 1, 2, 3):
            raise ValueError("unit_exp must be in {0, 1, 2, 3}")
        ps = [p for p, _ in self.terms]
        if ps != sorted(set(ps)):
            raise ValueError("term primes must be strictly increasing")
        if any(e == 0 for _, e in self.terms):
            raise ValueError("term exponents must be nonzero")


@dataclass(frozen=True)
class GaussianFactorization:
    """unit times a product of canonical irreducible powers in Z[i]."""

    unit: GaussianInt
    factors: tuple[tuple[GaussianInt, int], ...]


# enumerate_triples refuses a c with more triples than this, that is with 22
# or more distinct primes: at about 300 bytes and 0.5 ms per triple (k = 14
# and 16, 2-CPU Xeon), 2**20 triples hold about 0.3 GB, and each doubling
# past it doubles that
MAX_TRIPLES = 2**20

# the exponent u of each unit i**u, keyed by its coordinates
_UNIT_EXP = {(1, 0): 0, (0, 1): 1, (-1, 0): 2, (0, -1): 3}


def canonical_irreducible(p: int) -> GaussianInt:
    """The canonical irreducible of Z[i] above the prime p.

    For p = 1 (mod 4) this is m + n*i with 0 < m < n; for 2 it is 1 + i;
    for p = 3 (mod 4) the prime itself stays irreducible.
    """
    classify(p)  # proves p prime, or raises ValueError
    return _irreducible_above(p)


def _irreducible_above(p: int) -> GaussianInt:
    """canonical_irreducible for a p already proven prime."""
    if p % 4 == 1:
        return GaussianInt(*_euclid_two_squares(p))
    return GaussianInt(1, 1) if p == 2 else GaussianInt(p)


def gaussian_factorize(z: GaussianInt) -> GaussianFactorization:
    """Unique factorization of z over the canonical irreducibles.

    Factors the integer norm, then peels off the irreducibles above each
    prime p (for p = 1 (mod 4) the canonical one, then its conjugate) while
    they divide; their norms must make up the power of p in the norm, and
    what remains must be a unit. Factors are sorted by norm, with the
    second-octant irreducible preceding its conjugate.
    """
    if not z:
        raise ValueError("zero has no factorization")
    factors: list[tuple[GaussianInt, int]] = []
    rest = z
    nrm = z.norm()
    for p, e in factorize(nrm) if nrm > 1 else ():
        q = _irreducible_above(p)  # factorize has proven p prime
        step = 2 if q.im == 0 else 1  # an inert q has norm p**2
        peeled = 0  # the power of p in the norms of the peeled factors
        for d in (q, q.conjugate()) if p % 4 == 1 else (q,):
            k = 0
            while peeled < e and (nxt := try_divexact(rest, d)) is not None:
                rest = nxt
                k += 1
                peeled += step
            if k:
                factors.append((d, k))
        if peeled != e:
            raise ArithmeticError(
                f"gaussian_factorize({z}): the prime {p} divides the norm {e} times,"
                f" its irreducibles {peeled} times"
            )
    if rest.norm() != 1:
        raise ArithmeticError(f"gaussian_factorize({z}): the cofactor {rest} is not a unit")
    factors.sort(key=lambda qe: (qe[0].norm(), qe[0].im < 0))
    return GaussianFactorization(rest, tuple(factors))


def zeta_p(p: int) -> CirclePoint:
    """The basis point q / conj(q) for a prime p = 1 (mod 4).

    With p = m**2 + n**2 this is ((m**2 - n**2)/p, 2mn/p).
    """
    return zeta_power(p, 1)


def zeta_power(p: int, e: int) -> CirclePoint:
    """zeta_p(p) ** e, computed in Z[i] as q**(2e) / p**e.

    Refuses a p that is not a prime = 1 (mod 4) for every e, 0 included.
    Keeps all intermediates integral; equality with the rational-arithmetic
    power is enforced in the test suite.
    """
    cls = classify(p)
    if cls is not PrimeClass.P1:
        raise ValueError(f"{p} is in class {cls.name}; basis points need p = 1 (mod 4)")
    if e == 0:
        return UNIT_POINTS[0]
    q = _irreducible_above(p)  # classify has proven p prime
    return _basis_power(q if e > 0 else q.conjugate(), p, abs(e))


def _basis_power(q: GaussianInt, p: int, n: int) -> CirclePoint:
    """(q / conj(q)) ** n = q**(2n) / p**n for q of norm p and n >= 1."""
    w = q ** (2 * n)
    den = p**n
    return CirclePoint(Fraction(w.re, den), Fraction(w.im, den))


def recombine(f: BasisFactorization) -> CirclePoint:
    x = UNIT_POINTS[f.unit_exp]
    for p, e in f.terms:
        x = x * zeta_power(p, e)
    return x


def factor_point(x: CirclePoint) -> BasisFactorization:
    """Coordinates of x in the torsion x free-part decomposition.

    The coordinates share their denominator c, so z = c*x is in Z[i], and
    z = i**u * prod (q_p or conj(q_p))**(2|e_p|) is its unique factorization:
    the unit gives u, and each q_p**2e (conj(q_p)**2e) gives the term
    (p, e) ((p, -e)). The checks certify the shape of that factorization
    and that the hypotenuse prod p**|e_p| is c.
    """
    c = x.s.denominator
    gf = gaussian_factorize(GaussianInt(x.s.numerator, x.t.numerator))
    terms: list[tuple[int, int]] = []
    for q, e in gf.factors:
        p = q.norm()
        if p == 2 or q.im == 0:
            raise ArithmeticError(f"factor_point({x}): {q} lies above 2 or an inert prime")
        if terms and terms[-1][0] == p:
            raise ArithmeticError(f"factor_point({x}): both {q} and its conjugate divide c*x")
        signed = e if q.im > 0 else -e
        if signed % 2:
            raise ArithmeticError(f"factor_point({x}): the exponents above {p} differ by {signed}")
        terms.append((p, signed // 2))
    h = math.prod(p ** abs(e) for p, e in terms)
    if h != c:
        raise ArithmeticError(f"factor_point({x}): the terms {terms} have hypotenuse {h}, not {c}")
    return BasisFactorization(_UNIT_EXP[gf.unit.re, gf.unit.im], tuple(terms))


def hypotenuse_of(f: BasisFactorization) -> int:
    """Product of p**|e| over the terms: the hypotenuse of the encoded triple."""
    if not f.terms:
        raise ValueError("unit points encode no triple, so no hypotenuse")
    return math.prod(p ** abs(e) for p, e in f.terms)


def _splittable(c: int) -> Optional[list[tuple[int, int]]]:
    """Factorization of c if every prime factor is 1 (mod 4), else None."""
    if c == 1:
        return None
    return factorize(c, only_1_mod_4=True)


def count_triples(c: int) -> int:
    """Number of normalized triples with hypotenuse c: 2**(k-1) or 0.

    k is the number of distinct prime factors; no enumeration happens. A 0
    stops at the first factor of c that is not 1 (mod 4), such as a small
    prime 3 (mod 4) or a cofactor that is 3 (mod 4), without factoring the
    rest; c = p*q with p, q both 3 (mod 4) still needs the split of p*q.
    """
    if c <= 0:
        raise ValueError("hypotenuse must be positive")
    fac = _splittable(c)
    if fac is None:
        return 0
    return 2 ** (len(fac) - 1)


def enumerate_triples(c: int) -> list[NormalizedTriple]:
    """All normalized triples with hypotenuse c, sorted by the short leg.

    One triple per sign pattern on the basis-point exponents, with the sign
    fixed positive on the smallest prime to pick one representative per
    conjugation orbit. Each prime p**n of c is split once, into the table
    entry (zeta_p**n, zeta_p**-n); every pattern multiplies table entries.
    Refuses with ValueError, before building any point, when there would be
    more than MAX_TRIPLES triples.
    """
    if c <= 0:
        raise ValueError("hypotenuse must be positive")
    fac = _splittable(c)
    if fac is None:
        return []
    n_triples = 2 ** (len(fac) - 1)
    if n_triples > MAX_TRIPLES:
        raise ValueError(
            f"enumerate_triples({c}): {n_triples} triples exceed the cap"
            f" MAX_TRIPLES = {MAX_TRIPLES}"
        )
    # factorize has proven every p prime
    base, *rest = (_basis_power(_irreducible_above(p), p, n) for p, n in fac)
    triples = []
    for choice in product(*((x, x.conjugate()) for x in rest)):
        x = base
        for y in choice:
            x = x * y
        triples.append(pt(x))
    triples.sort(key=lambda t: t.a)
    wrong = [t for t in triples if t.c != c]
    if wrong:
        raise ArithmeticError(f"enumerate_triples({c}): {wrong[0]} has another hypotenuse")
    return triples


def powers_table(
    seed: NormalizedTriple, n_max: int
) -> list[tuple[int, CirclePoint, NormalizedTriple]]:
    """Rows (n, x**n, pt(x**n)) for the point x encoding the seed triple.

    No row is a unit, as the units are the whole torsion and x is not one.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    base = point_from_triple(seed)
    rows = []
    x = UNIT_POINTS[0]
    for n in range(1, n_max + 1):
        x = x * base
        rows.append((n, x, pt(x)))
    return rows
