"""Primality, integer factorization, residue classes, and two-squares.

The primes split by residue mod 4 into three classes; only the class with
p = 1 (mod 4) admits a decomposition p = m**2 + n**2, which is what seeds
every circle basis point downstream.
"""

from __future__ import annotations

import bisect
import math
import random
from enum import Enum
from typing import Optional

# psi_k is the smallest strong pseudoprime to the first k of _MR_BASES (OEIS
# A014233; Jaeschke, Math. Comp. 61, 1993; Sorenson and Webster, Math. Comp.
# 86, 2017), so the first k bases prove every odd n < psi_k. psi_7 = psi_8 and
# psi_9 = psi_10 = psi_11: an n at or above one of these needs the next
# distinct entry's bases.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PSI = (
    2_047,
    1_373_653,
    25_326_001,
    3_215_031_751,
    2_152_302_898_747,
    3_474_749_660_383,
    341_550_071_728_321,
    341_550_071_728_321,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    318_665_857_834_031_151_167_461,
    3_317_044_064_679_887_385_961_981,
)

# factorize finds the primes below this that divide c with one gcd against
# their product; what is left of c is proven prime or split by rho
_TRIAL_LIMIT = 10**4

# Pollard rho gives up on a cofactor once Brent's cycle lengths, summed over
# restarts, pass this (about 6 s); q * p**2 with p, q near 1e12 needs 2**21 - 1
_RHO_MAX_STEPS = 2**22


class PrimeClass(Enum):
    P1 = 1  # p = 1 (mod 4)
    P2 = 2  # p = 2
    P3 = 3  # p = 3 (mod 4)


# entries (prime, exponent), primes strictly increasing, exponents >= 1
Factorization = list[tuple[int, int]]


def _miller_rabin(n: int, bases) -> bool:
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int) -> bool:
    """Whether n is prime: proven for n below psi_13 = 3.3e24.

    Below the trial limit the answer is a lookup in the trial primes. Below
    psi_13, Miller-Rabin with the first k prime bases for the least k with
    n < psi_k decides it. Above, a fixed batch of pseudorandom witnesses
    seeded by n joins the 13 bases.
    """
    if n < 0:
        raise ValueError("is_prime expects a nonnegative integer")
    if n < _TRIAL_LIMIT:
        return n in _TRIAL_PRIME_SET
    for p in _MR_BASES:
        if n % p == 0:
            return False
    k = bisect.bisect_right(_MR_PSI, n)  # n < psi_(k+1), the first psi above n
    if k < len(_MR_PSI):
        return _miller_rabin(n, _MR_BASES[: k + 1])
    rng = random.Random(n)
    extra = tuple(rng.randrange(2, n - 1) for _ in range(24))
    return _miller_rabin(n, _MR_BASES + extra)


def primes_below(limit: int) -> list[int]:
    """All primes < limit, by sieve of Eratosthenes."""
    if limit <= 2:
        return []
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, limit, p)))
    return [i for i, flag in enumerate(sieve) if flag]


_TRIAL_PRIMES = tuple(primes_below(_TRIAL_LIMIT))
_TRIAL_PRIME_SET = frozenset(_TRIAL_PRIMES)
_TRIAL_PRODUCT = math.prod(_TRIAL_PRIMES)
# (product, primes) of runs of 32 consecutive trial primes: factorize tests
# single primes only in the runs whose product shares a factor with c
_TRIAL_BLOCKS = tuple(
    (math.prod(block), block)
    for block in (_TRIAL_PRIMES[i : i + 32] for i in range(0, len(_TRIAL_PRIMES), 32))
)


def _pollard_rho(n: int, rng: random.Random) -> int:
    """A nontrivial factor of composite odd n (Brent's cycle variant).

    Raises ValueError past _RHO_MAX_STEPS.
    """
    steps = 0
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            steps += r
            if steps > _RHO_MAX_STEPS:
                raise ValueError(
                    f"factorize: Pollard rho found no factor of {n} within its bound"
                    f" of {_RHO_MAX_STEPS} steps"
                )
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _iroot(m: int, k: int) -> int:
    """The integer k-th root of m >= 1: the largest r with r**k <= m."""
    if k == 2:
        return math.isqrt(m)
    x = 1 << -(-m.bit_length() // k)  # 2**ceil(bits/k) > the root
    while (y := ((k - 1) * x + m // x ** (k - 1)) // k) < x:
        x = y  # integer Newton steps decrease strictly down to the root
    return x


def _perfect_power(m: int) -> Optional[tuple[int, int]]:
    """(r, k) with m = r**k for a prime k, if m is a perfect power.

    m has no prime factor below the trial limit, so neither has r, and only
    the k with _TRIAL_LIMIT**k <= m need a probe.
    """
    for k in _TRIAL_PRIMES:
        if _TRIAL_LIMIT**k > m:
            return None
        r = _iroot(m, k)
        if r**k == m:
            return r, k
    return None


def _refuted(c: int, w: int) -> None:
    """factorize's None for a c with a prime factor that is not 1 (mod 4).

    The witness w certifies it: every divisor of a c whose primes are all
    1 (mod 4) is 1 (mod 4) itself, so w must divide c and must not be.
    """
    if c % w or w % 4 == 1:
        raise ArithmeticError(
            f"factorize({c}): {w} is no witness to a prime factor other than 1 (mod 4)"
        )
    return None


def factorize(c: int, *, only_1_mod_4: bool = False) -> Optional[Factorization]:
    """Prime factorization of c as sorted (prime, exponent) pairs.

    With only_1_mod_4, returns None as soon as c shows a prime factor that
    is not 1 (mod 4): when c itself is not 1 (mod 4), which covers even c,
    when a trial prime of that kind divides it, or when a cofactor piece (a
    Pollard rho half or a perfect-power root) is 3 (mod 4), checked before
    the piece is proven prime or split. So an answer of 0 stops at the
    first such factor, but p*q with p, q both 3 (mod 4) is 1 (mod 4) and
    still needs its split.
    """
    if c < 2:
        raise ValueError("factorize requires an integer >= 2")
    if only_1_mod_4 and c % 4 != 1:
        return _refuted(c, c)
    factors: dict[int, int] = {}
    n = c
    g = math.gcd(n, _TRIAL_PRODUCT)  # squarefree: the trial primes that divide c
    for block_product, block in _TRIAL_BLOCKS:
        if g == 1:
            break
        h = math.gcd(g, block_product)  # the primes of this block that divide c
        if h == 1:
            continue
        g //= h
        for p in block:
            if h % p == 0:
                if only_1_mod_4 and p % 4 != 1:
                    return _refuted(c, p)
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                factors[p] = e
    # the cofactor has no prime factor up to the trial limit: prove each
    # piece prime, replace a perfect power r**k by r with k times the
    # multiplicity, or split it with Pollard rho
    rng = None  # seeded by the cofactor, when one reaches rho
    stack = [(n, 1)] if n > 1 else []
    while stack:
        m, e = stack.pop()
        if only_1_mod_4 and m % 4 != 1:
            return _refuted(c, m)
        if is_prime(m):
            factors[m] = factors.get(m, 0) + e
            continue
        power = _perfect_power(m)
        if power is not None:
            r, k = power
            stack.append((r, k * e))
            continue
        if rng is None:
            rng = random.Random(n)
        f = _pollard_rho(m, rng)
        stack += [(f, e), (m // f, e)]
    entries = sorted(factors.items())
    if math.prod(p**e for p, e in entries) != c:
        raise ArithmeticError(f"factorize({c}): the factors {entries} do not multiply to {c}")
    return entries


def classify(p: int) -> PrimeClass:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2:
        return PrimeClass.P2
    return PrimeClass.P1 if p % 4 == 1 else PrimeClass.P3


def _sqrt_minus_one(p: int) -> int:
    """An x with x**2 = -1 (mod p), for p = 1 (mod 4).

    x = a**((p-1)/4) for the least quadratic nonresidue a mod p (Brillhart,
    Math. Comp. 26, 1972), found by trying a = 2, 3, ...: a residue gives
    x**2 = 1 instead.
    """
    e = (p - 1) // 4
    a = 2
    while True:
        x = pow(a, e, p)
        if x * x % p == p - 1:
            return x
        a += 1


def two_squares(p: int, rng: Optional[random.Random] = None) -> tuple[int, int]:
    """The unique decomposition p = m**2 + n**2 with 0 < m < n, as (m, n).

    Runs the Euclidean algorithm on p and a square root x of -1 mod p: the
    first two remainders below sqrt(p) are m and n (Brillhart, Math. Comp.
    26, 1972). The search is deterministic, so `rng` is accepted but unused.
    """
    cls = classify(p)
    if cls is not PrimeClass.P1:
        raise ValueError(
            f"{p} is in class {cls.name}; only primes = 1 (mod 4) are sums of two squares"
        )
    return _euclid_two_squares(p)


def _euclid_two_squares(p: int) -> tuple[int, int]:
    """two_squares for a p already proven prime and 1 (mod 4)."""
    a, b, r = p, _sqrt_minus_one(p), math.isqrt(p)
    while b > r:
        a, b = b, a % b
    m, n = sorted((b, a % b))
    if not (0 < m < n and m * m + n * n == p):
        raise ArithmeticError(f"two_squares({p}): {m}**2 + {n}**2 is not a decomposition")
    return m, n
