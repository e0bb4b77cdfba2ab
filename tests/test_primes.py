import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from circletriples import primes
from circletriples.primes import (
    PrimeClass,
    classify,
    factorize,
    is_prime,
    primes_below,
    two_squares,
)
from circletriples.oracle import exhaustive_two_squares


def test_is_prime_examples():
    assert is_prime(2)
    assert not is_prime(289)  # 17^2
    assert not is_prime(3125)  # 5^5
    assert not is_prime(0) and not is_prime(1)
    assert is_prime(10**9 + 7)


# psi_12 and psi_13: the smallest strong pseudoprimes to the first 12 and
# the first 13 prime bases (OEIS A014233)
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981
# primes = 1 (mod 4) near 1e12
P, Q = 999999999989, 1000000000061


def test_is_prime_rejects_psi_12_and_psi_13():
    assert not is_prime(PSI_12)
    assert not is_prime(PSI_13)


# psi_k for k = 1..13 (OEIS A014233): composite, and a strong pseudoprime to
# exactly the first k prime bases; psi_7 = psi_8 and psi_9 = psi_10 = psi_11
PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    PSI_12,
    PSI_13,
)
BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


@pytest.mark.parametrize("k", range(1, 14))
def test_is_prime_rejects_every_psi_k(k):
    psi = PSI[k - 1]
    last = max(j for j in range(1, 14) if PSI[j - 1] == psi)
    assert primes._miller_rabin(psi, BASES[:last])
    assert last == 13 or not primes._miller_rabin(psi, BASES[: last + 1])
    assert not is_prime(psi)


def test_is_prime_matches_sympy_around_every_psi_k():
    sympy = pytest.importorskip("sympy")
    for psi in sorted(set(PSI)):
        assert is_prime(sympy.prevprime(psi)), psi
        for n in range(psi - 300, psi + 300):
            assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_matches_sieve():
    sieve = set(primes_below(10000))
    for n in range(10000):
        assert is_prime(n) == (n in sieve), n


def test_factorize_examples():
    assert factorize(289) == [(17, 2)]
    assert factorize(65) == [(5, 1), (13, 1)]
    assert factorize(3125) == [(5, 5)]


def test_factorize_rejects_small():
    with pytest.raises(ValueError):
        factorize(1)


def test_factorize_large_cofactor_uses_rho():
    p, q = 10**9 + 7, 10**9 + 9
    assert factorize(p * q) == [(p, 1), (q, 1)]


def test_factorize_splits_psi_12():
    assert factorize(PSI_12) == [(399165290221, 1), (798330580441, 1)]


def test_factorize_around_the_trial_bound_matches_sympy():
    sympy = pytest.importorskip("sympy")
    below, above = (9949, 9967, 9973), (10007, 10009, 10037)  # primes either side of 1e4
    cases = [10007**2, 10007**3, 1000003**2, 1000003**3]
    cases += [9967 * 9973, 10007 * 10009, 9973 * 10007]
    cases += [math.prod(below), math.prod(above), 9967 * 9973 * 10037, 9973 * 10009 * 10037]
    cases += [2**3 * 3**2 * 5 * 13**3 * 9973**2]
    cases += [2**k * 999999999989 for k in (1, 20, 61)]
    # the gcd against the product of the trial primes: all of them, one to a
    # high power, and a smooth part with a prime cofactor pair on top
    cases += [math.prod(primes_below(10**4)), 9973**7 * 10007]
    cases += [2**64 * 3**40, 2**64 * 3**40 * 1000003 * 1000033]
    # perfect powers of a prime or a composite, and a repeated prime beside another
    cases += [P**2, P**3, Q * P**2, (10007 * 10009) ** 5, 10007**2 * 10009**3]
    for c in cases:
        assert factorize(c) == sorted(sympy.factorint(c).items()), c


def test_factorize_across_the_trial_blocks_matches_sympy():
    sympy = pytest.importorskip("sympy")
    blocks = [block for _, block in primes._TRIAL_BLOCKS]
    assert [p for block in blocks for p in block] == primes_below(10**4)
    assert all(product == math.prod(block) for product, block in primes._TRIAL_BLOCKS)
    ends = [(block[0], block[-1]) for block in blocks]
    cases = [first * last for first, last in ends[:3] + ends[-3:]]
    cases += [first**3 * last**2 for first, last in ends[10:14]]
    cases += [math.prod(first * last for first, last in ends)]
    cases += [ends[4][1] * ends[5][0] * 999999999989, ends[-1][0] * ends[-2][1] ** 5]
    # the largest trial prime, squared and beside the first prime above 1e4
    cases += [9973**2, 9973 * 10007, 9973**2 * 10007**2]
    for c in cases:
        assert factorize(c) == sorted(sympy.factorint(c).items()), c


def test_rho_refuses_beyond_its_bound(monkeypatch):
    p, q = 1000003, 1000033  # rho needs about a thousand steps to split p*q
    assert factorize(p * q) == [(p, 1), (q, 1)]
    monkeypatch.setattr(primes, "_RHO_MAX_STEPS", 64)
    with pytest.raises(ValueError, match=r"factorize: Pollard rho .* bound of 64 steps"):
        factorize(p * q)
    assert factorize(P**2 * 9973) == [(9973, 1), (P, 2)]  # no rho run needed


def test_prime_powers_never_reach_rho(monkeypatch):
    def no_rho(m, rng):
        raise AssertionError(f"Pollard rho called on {m}")

    monkeypatch.setattr(primes, "_pollard_rho", no_rho)
    assert factorize(P**2) == [(P, 2)]
    assert factorize(P**3) == [(P, 3)]
    assert factorize(2**5 * P**6) == [(2, 5), (P, 6)]


@given(st.integers(min_value=1, max_value=10**80), st.integers(min_value=2, max_value=17))
def test_iroot_is_the_floor_of_the_root(m, k):
    r = primes._iroot(m, k)
    assert r**k <= m < (r + 1) ** k


def test_factorize_certificate_survives_optimization(monkeypatch):
    # a rho "factor" that does not divide: both pieces are prime, so only
    # the product certificate can notice; it must raise even under -O
    monkeypatch.setattr(primes, "_pollard_rho", lambda m, rng: 10067)
    with pytest.raises(ArithmeticError, match="do not multiply"):
        factorize(10007 * 10009)


def test_only_1_mod_4_stops_at_the_first_other_factor(monkeypatch):
    tested = []

    def counted(n, _real=primes.is_prime):
        tested.append(n)
        return _real(n)

    monkeypatch.setattr(primes, "is_prime", counted)
    assert factorize(10009 * 10037, only_1_mod_4=True) == [(10009, 1), (10037, 1)]
    # a trial prime 3 (mod 4) in a c = 1 (mod 4)
    for c in (3**2 * 10009, 7 * 11 * 10009):
        tested.clear()
        assert factorize(c, only_1_mod_4=True) is None and tested == [], c
    # a rho half and a perfect-power root that are 3 (mod 4): neither is proven prime
    for c in (10007 * 10039, 10007**2, (10007 * 10009) ** 2):
        tested.clear()
        assert factorize(c, only_1_mod_4=True) is None, c
        assert tested == [c], c
    assert factorize(10007 * 10039) == [(10007, 1), (10039, 1)]
    # an even c, or one that is 3 (mod 4), needs no trial division or is_prime
    monkeypatch.setattr(primes, "_TRIAL_PRODUCT", None)  # math.gcd would raise
    tested.clear()
    assert factorize(2 * 10009, only_1_mod_4=True) is None
    assert factorize(10007 * 10009, only_1_mod_4=True) is None
    assert tested == []


def test_only_1_mod_4_certificate_survives_optimization(monkeypatch):
    # a rho "factor" 10007 = 3 (mod 4) that does not divide: the piece
    # 10039 it leaves beside it is 3 (mod 4) too, and no witness to c
    monkeypatch.setattr(primes, "_pollard_rho", lambda m, rng: 10007)
    with pytest.raises(ArithmeticError, match="no witness"):
        factorize(10009 * 10037, only_1_mod_4=True)


@given(st.integers(min_value=2, max_value=10**6))
def test_factorize_remultiplies(c):
    fac = factorize(c)
    assert math.prod(p**e for p, e in fac) == c
    assert all(is_prime(p) for p, _ in fac)
    assert [p for p, _ in fac] == sorted({p for p, _ in fac})
    assert all(e >= 1 for _, e in fac)


def test_classify_examples():
    assert classify(5) is PrimeClass.P1
    assert classify(2) is PrimeClass.P2
    assert classify(7) is PrimeClass.P3


def test_classify_rejects_composites():
    with pytest.raises(ValueError):
        classify(15)


def test_classify_partitions():
    for p in primes_below(1000):
        assert classify(p) is not None  # exactly one class by construction
        expected = PrimeClass.P2 if p == 2 else (PrimeClass(p % 4))
        assert classify(p) is expected


def test_two_squares_examples():
    assert tuple(two_squares(5)) == (1, 2)
    assert tuple(two_squares(17)) == (1, 4)
    # exhaustive search over 0 < m < n <= sqrt(13)
    assert tuple(two_squares(13)) == (2, 3)


def test_two_squares_rejects_other_classes():
    with pytest.raises(ValueError, match="P3"):
        two_squares(7)
    with pytest.raises(ValueError, match="P2"):
        two_squares(2)


def test_two_squares_agrees_with_search_below_10000():
    # every prime below 10**4, and a few near 10**6, 10**8 and 10**9
    near = [p for base in (10**6, 10**8, 10**9) for p in range(base, base + 100) if is_prime(p)]
    for p in primes_below(10000) + near:
        if p % 4 == 1:
            m, n = two_squares(p)
            assert 0 < m < n and m * m + n * n == p
            assert (m, n) == exhaustive_two_squares(p)


def test_two_squares_matches_sympy_beyond_the_search():
    sympy = pytest.importorskip("sympy")
    from sympy.solvers.diophantine.diophantine import sum_of_squares

    # near 10**12, between psi_12 and psi_13, and above psi_13
    for p in (10**12 - 11, 10**12 + 61, 4 * 10**23 + 69, 2 * 10**24 + 17, 10**25 + 13, 10**30 + 57):
        assert sympy.isprime(p) and p % 4 == 1
        assert [two_squares(p)] == list(sum_of_squares(p, 2))


def test_two_squares_output_ignores_seed():
    for p in (5, 13, 97, 10009, 99989):
        results = {tuple(two_squares(p, random.Random(seed))) for seed in range(10)}
        assert len(results) == 1


def test_two_squares_certificate_survives_optimization(monkeypatch):
    # 1 is not a root of -1 mod 13, so the Euclidean steps end on 1 and 0
    monkeypatch.setattr(primes, "_sqrt_minus_one", lambda p: 1)
    with pytest.raises(ArithmeticError, match="not a decomposition"):
        two_squares(13)
