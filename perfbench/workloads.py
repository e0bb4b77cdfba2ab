"""Seeded inputs for the four workloads, and the check for each answer.

Every workload is a fixed make-up (how many inputs of which shape) filled
in from the seed (which primes, signs and units). The make-up is the same
for every seed, so a seed changes the inputs but hardly their cost, and
run-to-run spread stays a property of the program, not of the draw. One
pass is the whole list; a run repeats passes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import prod

import checks

NAMES = ("enumerate", "count", "points", "verify")

_PRIMES_BELOW_1000 = checks.primes_below(1000)
_P1_BELOW_1000 = [p for p in _PRIMES_BELOW_1000 if p % 4 == 1]
_P3_BELOW_1000 = [p for p in _PRIMES_BELOW_1000 if p % 4 == 3]

# enumerate: distinct-prime counts of the hypotenuses in one pass (76 of the
# 80 primes = 1 (mod 4) below 1000, none shared). The pooled median lands
# in the middle of the k = 7 calls and the 90th percentile in the middle of
# the k = 10 calls, so neither sits on a jump between two sizes.
ENUMERATE_SIZES = (6, 6, 6, 7, 7, 7, 8, 9, 10, 10)
# exponents of the first two primes drawn for each hypotenuse
ENUMERATE_POWERS = (3, 2)

# count: inputs per kind in one pass. The answer-0 and smooth inputs cost
# a few milliseconds, the others a full trial division, so the median
# falls inside the near-1e12 primes and the 90th percentile inside the
# rho composites.
COUNT_KINDS = {"prime": 10, "rho": 8, "smooth": 6, "zero": 5}

# points: one pass; primes = 1 (mod 4) below 1e4 split into value bins,
# two pool primes per bin, each point taking one prime from 1 to 4 bins.
POINTS_PER_PASS = 301
POINTS_BINS = 8
POINTS_TEMPLATE_SEED = "points-template"

# verify: one hypotenuse per stratum of [2e5, 1e6), drawn from a window of
# +-1000 at the stratum's centre, so a pass's scan lengths barely move
# with the seed.
VERIFY_STRATA = 21
VERIFY_RANGE = (200_000, 1_000_000)


@dataclass(frozen=True)
class Case:
    """One CLI invocation and what its independent check needs."""

    argv: tuple[str, ...]
    spec: object
    primes: frozenset = frozenset()


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first seven prime bases: exact below 3.4e14."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17)
    for p in small:
        if n % p == 0:
            return n == p
    if n >= 341_550_071_728_321:
        raise ValueError("outside the proven range of the bases")
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _random_prime(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        n = rng.randrange(lo, hi) | 1
        if _is_prime(n):
            return n


def enumerate_cases(seed: int) -> list[Case]:
    rng = random.Random(f"enumerate:{seed}")
    pool = list(_P1_BELOW_1000)
    rng.shuffle(pool)
    cases = []
    for k in ENUMERATE_SIZES:
        drawn, pool = pool[:k], pool[k:]
        exps = ENUMERATE_POWERS + (1,) * (k - len(ENUMERATE_POWERS))
        factors = tuple(sorted(zip(drawn, exps)))
        c = prod(p**n for p, n in factors)
        cases.append(Case(("triples", str(c), "--json"), factors, frozenset(drawn)))
    return cases


def count_cases(seed: int) -> list[Case]:
    """Inputs for `count`; the spec is c, checked against sympy at the end."""
    rng = random.Random(f"count:{seed}")
    cs = []
    for _ in range(COUNT_KINDS["prime"]):
        cs.append(_random_prime(rng, 10**12 - 10**8, 10**12))
    for i in range(COUNT_KINDS["rho"]):
        cs.append(prod(_random_prime(rng, 10**6, 4 * 10**6) for _ in range(2 + i % 2)))
    for _ in range(COUNT_KINDS["smooth"]):
        ps = rng.sample(_P1_BELOW_1000, rng.randint(3, 5))
        cs.append(prod(p ** rng.randint(1, 3) for p in ps))
    for i in range(COUNT_KINDS["zero"]):
        ps = rng.sample(_P1_BELOW_1000, rng.randint(2, 4))
        spoiler = 2 if i % 2 == 0 else rng.choice(_P3_BELOW_1000)
        cs.append(prod(ps) * spoiler ** rng.randint(1, 3))
    return [Case(("count", str(c), "--json"), c) for c in cs]


def _points_template() -> list[tuple[tuple[int, int], ...]]:
    """Per point, its (bin, |exponent|) terms; the same for every seed."""
    rng = random.Random(POINTS_TEMPLATE_SEED)
    shapes = []
    for _ in range(POINTS_PER_PASS):
        bins = sorted(rng.sample(range(POINTS_BINS), rng.randint(1, 4)))
        shapes.append(tuple((b, rng.randint(1, 5)) for b in bins))
    return shapes


def points_cases(seed: int) -> list[Case]:
    """`factor-point -- s t` on i**u * prod zeta_p**e; the spec is (u, terms).

    The coordinates go after `--` because argparse reads a leading minus
    sign as an option.
    """
    rng = random.Random(f"points:{seed}")
    p1 = [p for p in checks.primes_below(10**4) if p % 4 == 1]
    width = 10**4 // POINTS_BINS
    bins = [[p for p in p1 if b * width <= p < (b + 1) * width] for b in range(POINTS_BINS)]
    pool = [rng.sample(primes, 2) for primes in bins]
    cases = []
    for shape in _points_template():
        terms = tuple((rng.choice(pool[b]), rng.choice((1, -1)) * e) for b, e in shape)
        u = rng.randrange(4)
        s, t = checks.point_of(u, terms)
        argv = ("factor-point", "--json", "--", str(s), str(t))
        cases.append(Case(argv, (u, terms), frozenset(p for p, _ in terms)))
    return cases


def _factor_below_1e6(n: int) -> list[tuple[int, int]]:
    out = []
    for p in _PRIMES_BELOW_1000:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
    if n > 1:
        out.append((n, 1))
    return out


def verify_cases(seed: int) -> list[Case]:
    """`triples c --verify` on odd c with a triple; the spec is c's factors."""
    rng = random.Random(f"verify:{seed}")
    lo, hi = VERIFY_RANGE
    step = (hi - lo) // VERIFY_STRATA
    cases = []
    for i in range(VERIFY_STRATA):
        centre = lo + step * i + step // 2
        while True:
            c = rng.randrange(centre - 1000, centre + 1000) | 1
            factors = _factor_below_1e6(c)
            if all(p % 4 == 1 for p, _ in factors):
                break
        argv = ("triples", str(c), "--verify", "--json")
        cases.append(Case(argv, tuple(factors), frozenset(p for p, _ in factors)))
    return cases


def cases_for(name: str, seed: int) -> list[Case]:
    return {
        "enumerate": enumerate_cases,
        "count": count_cases,
        "points": points_cases,
        "verify": verify_cases,
    }[name](seed)


def checker(name: str):
    """check(case, doc) for the workload; raises checks.WrongAnswer."""
    if name == "count":
        from sympy import factorint

        return lambda case, doc: checks.check_count(
            doc, checks.count_from_factorint(case.spec, factorint)
        )
    if name == "points":
        return lambda case, doc: checks.check_point(doc, *case.spec)
    verify = name == "verify"
    return lambda case, doc: checks.check_triples(doc, case.spec, verify)


def reuse_share(cases: list[Case]) -> float:
    """Share of a pass's invocations whose primes all appeared earlier in it."""
    seen: set[int] = set()
    repeats = 0
    for case in cases:
        repeats += bool(case.primes) and case.primes <= seen
        seen |= case.primes
    return repeats / len(cases)
