import math
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circletriples import primes, structure
from circletriples.circle import CirclePoint, I, NormalizedTriple, ONE, is_unit, pt
from circletriples.exactmath import GaussianInt
from circletriples.oracle import brute_triples
from circletriples.primes import primes_below
from circletriples.structure import (
    BasisFactorization,
    GaussianFactorization,
    count_triples,
    enumerate_triples,
    factor_point,
    gaussian_factorize,
    hypotenuse_of,
    powers_table,
    recombine,
    zeta_p,
    zeta_power,
)

P1_SMALL = [p for p in primes_below(200) if p % 4 == 1]
# the first 22 primes = 1 (mod 4), 5 to 293
P1_FIRST = [p for p in primes_below(300) if p % 4 == 1][:22]
# 2, and primes 1 and 3 (mod 4) on both sides of the trial limit 10**4, so
# that a cofactor may be proven, split by rho or rooted
MIXED_PRIMES = [2, 3, 5, 7, 13, 19, 9949, 9973, 10007, 10009, 10037, 10039]
# primes = 1 (mod 4) near 1e12
P, Q = 999999999989, 1000000000061


def random_factorization(rng, max_terms=4, max_exp=5, unit=True):
    ps = sorted(rng.sample(P1_SMALL, rng.randint(0 if unit else 1, max_terms)))
    terms = tuple(
        (p, rng.choice([e for e in range(-max_exp, max_exp + 1) if e])) for p in ps
    )
    return BasisFactorization(rng.randrange(4) if unit else 0, terms)


@st.composite
def factorizations(draw, min_terms=0):
    ps = draw(
        st.lists(st.sampled_from(P1_SMALL), unique=True, min_size=min_terms, max_size=4)
    )
    terms = tuple(
        (p, draw(st.integers(-5, 5).filter(bool))) for p in sorted(ps)
    )
    return BasisFactorization(draw(st.integers(0, 3)), terms)


class TestCanonicalIrreducible:
    def test_examples(self):
        # 2 = -i (1 + i)**2 ramifies; 7 = 3 (mod 4) stays irreducible
        f = gaussian_factorize(GaussianInt(2))
        assert f.unit == GaussianInt(0, -1)
        assert f.factors == ((GaussianInt(1, 1), 2),)
        assert gaussian_factorize(GaussianInt(7)).factors == ((GaussianInt(7), 1),)


class TestGaussianFactorize:
    def test_split_prime(self):
        f = gaussian_factorize(GaussianInt(5))
        assert f.unit == GaussianInt(1)
        assert f.factors == ((GaussianInt(1, 2), 1), (GaussianInt(1, -2), 1))

    def test_one(self):
        f = gaussian_factorize(GaussianInt(1))
        assert f.unit == GaussianInt(1) and f.factors == ()

    def test_conjugate_fourth_power(self):
        # (1-2i)^4 = -7+24i, checked by direct multiplication
        assert GaussianInt(1, -2) ** 4 == GaussianInt(-7, 24)
        f = gaussian_factorize(GaussianInt(-7, 24))
        assert f.unit == GaussianInt(1)
        assert f.factors == ((GaussianInt(1, -2), 4),)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            gaussian_factorize(GaussianInt(0))

    def test_certificates_survive_optimization(self, monkeypatch):
        # a wrong norm factorization must raise, not pass, under -O
        monkeypatch.setattr("circletriples.structure.factorize", lambda n: [(3, 1)])
        with pytest.raises(ArithmeticError, match="divides the norm 1 times"):
            gaussian_factorize(GaussianInt(3))
        monkeypatch.setattr("circletriples.structure.factorize", lambda n: [])
        with pytest.raises(ArithmeticError, match="is not a unit"):
            gaussian_factorize(GaussianInt(5))

    @given(
        st.integers(min_value=-500, max_value=500),
        st.integers(min_value=-500, max_value=500),
    )
    def test_product_reconstructs(self, re, im):
        z = GaussianInt(re, im)
        if not z:
            return
        f = gaussian_factorize(z)
        w = f.unit
        for q, e in f.factors:
            w = w * q**e
        assert w == z
        assert f.unit.norm() == 1


class TestZetaP:
    def test_examples(self):
        assert zeta_p(5) == CirclePoint(Fraction(-3, 5), Fraction(4, 5))
        assert zeta_p(17) == CirclePoint(Fraction(-15, 17), Fraction(8, 17))
        # (2+3i)/(2-3i) = (2+3i)^2/13 by exact Gaussian arithmetic
        assert zeta_p(13) == CirclePoint(Fraction(-5, 13), Fraction(12, 13))

    def test_rejects_wrong_class(self):
        with pytest.raises(ValueError):
            zeta_p(7)
        with pytest.raises(ValueError):
            zeta_p(2)

    @pytest.mark.parametrize("p", [4, 3, 2])
    def test_zeroth_power_still_needs_a_prime_1_mod_4(self, p):
        with pytest.raises(ValueError):
            zeta_power(p, 0)

    def test_one_primality_proof(self, monkeypatch):
        calls = Counter()

        def counting(n, _real=primes.is_prime):
            calls[n] += 1
            return _real(n)

        monkeypatch.setattr(primes, "is_prime", counting)
        assert pt(zeta_p(999999999989)).c == 999999999989
        assert calls == {999999999989: 1}

    def test_basis_points_encode_their_prime(self):
        for p in [q for q in primes_below(10000) if q % 4 == 1]:
            x = zeta_p(p)
            assert not is_unit(x)
            assert pt(x).c == p

    @given(st.sampled_from(P1_SMALL), st.integers(min_value=-8, max_value=8))
    def test_gaussian_power_matches_rational_power(self, p, e):
        expected = ONE
        step = zeta_p(p) if e >= 0 else zeta_p(p).inverse()
        for _ in range(abs(e)):
            expected = expected * step
        assert zeta_power(p, e) == expected


class TestFactorRecombine:
    def test_triple_point(self):
        f = factor_point(CirclePoint(Fraction(3, 5), Fraction(4, 5)))
        assert f == BasisFactorization(2, ((5, -1),))  # -1 times 1/zeta_5

    def test_identity(self):
        assert factor_point(ONE) == BasisFactorization(0, ())

    def test_units_have_empty_terms(self):
        assert factor_point(I) == BasisFactorization(1, ())

    def test_certificates_survive_optimization(self, monkeypatch):
        x = CirclePoint(Fraction(3, 5), Fraction(4, 5))
        both = GaussianFactorization(
            GaussianInt(1), ((GaussianInt(1, 2), 2), (GaussianInt(1, -2), 2))
        )
        monkeypatch.setattr("circletriples.structure.gaussian_factorize", lambda z: both)
        with pytest.raises(ArithmeticError, match="both"):
            factor_point(x)
        # (1+2i)**4 has hypotenuse 25, not the denominator 5
        fourth = GaussianFactorization(GaussianInt(1), ((GaussianInt(1, 2), 4),))
        monkeypatch.setattr("circletriples.structure.gaussian_factorize", lambda z: fourth)
        with pytest.raises(ArithmeticError, match="hypotenuse 25, not 5"):
            factor_point(x)
        monkeypatch.undo()
        odd = GaussianFactorization(GaussianInt(1), ((GaussianInt(1, 2), 1),))
        monkeypatch.setattr("circletriples.structure.gaussian_factorize", lambda z: odd)
        with pytest.raises(ArithmeticError, match="differ by 1"):
            factor_point(x)

    def test_factors_of_the_wrong_class_are_rejected(self, monkeypatch):
        x = CirclePoint(Fraction(3, 5), Fraction(4, 5))
        for q in (GaussianInt(1, 1), GaussianInt(3)):
            gf = GaussianFactorization(GaussianInt(1), ((q, 2),))
            monkeypatch.setattr(structure, "gaussian_factorize", lambda z: gf)
            with pytest.raises(ArithmeticError, match="above 2 or an inert prime"):
                factor_point(x)

    def test_one_gaussian_factorization_and_no_basis_powers(self, monkeypatch):
        x = I * zeta_p(5) ** 3 * zeta_p(13) ** -2
        calls = Counter()
        for name in ("gaussian_factorize", "zeta_power", "recombine"):

            def counted(*args, _name=name, _real=getattr(structure, name)):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(structure, name, counted)
        assert factor_point(x) == BasisFactorization(1, ((5, 3), (13, -2)))
        assert calls == {"gaussian_factorize": 1}

    def test_one_primality_proof_per_prime(self, monkeypatch):
        # trial division proves the primes below 10**4 without is_prime;
        # factorize proves each prime above once, and splitting it into
        # two squares does not prove it again
        x = zeta_p(5) ** 2 * zeta_p(13) ** -1 * zeta_p(9973) * zeta_p(10009) * zeta_p(P) * I
        proofs = Counter()

        def counted(n, _real=primes.is_prime):
            result = _real(n)
            if result:
                proofs[n] += 1
            return result

        monkeypatch.setattr(primes, "is_prime", counted)
        terms = ((5, 2), (13, -1), (9973, 1), (10009, 1), (P, 1))
        assert factor_point(x) == BasisFactorization(1, terms)
        assert proofs == {10009: 1, P: 1}

    def test_basis_point_near_1e12(self):
        sympy = pytest.importorskip("sympy")
        x = zeta_p(P)
        assert sympy.factorint(x.s.denominator) == {P: 1}
        assert factor_point(x) == BasisFactorization(0, ((P, 1),))

    def test_squared_point(self):
        f = factor_point(CirclePoint(Fraction(-7, 25), Fraction(24, 25)))
        assert f.terms == ((5, -2),)
        assert recombine(f) == CirclePoint(Fraction(-7, 25), Fraction(24, 25))

    def test_recombine_examples(self):
        assert recombine(BasisFactorization(0, ((5, 2),))) == CirclePoint(
            Fraction(-7, 25), Fraction(-24, 25)
        )
        assert recombine(BasisFactorization(1, ())) == I
        assert recombine(BasisFactorization(0, ((5, 1), (13, 1)))) == zeta_p(5) * zeta_p(13)

    @settings(max_examples=60, deadline=None)
    @given(factorizations())
    def test_roundtrip_both_ways(self, f):
        x = recombine(f)
        assert factor_point(x) == f
        assert recombine(factor_point(x)) == x

    @settings(max_examples=40, deadline=None)
    @given(factorizations(), factorizations())
    def test_factor_point_is_a_homomorphism(self, f, g):
        fg = factor_point(recombine(f) * recombine(g))
        assert fg.unit_exp == (f.unit_exp + g.unit_exp) % 4
        summed = {}
        for p, e in f.terms + g.terms:
            summed[p] = summed.get(p, 0) + e
        assert fg.terms == tuple((p, e) for p, e in sorted(summed.items()) if e)

    def test_terms_empty_iff_unit(self):
        rng = random.Random(3)
        for _ in range(25):
            f = random_factorization(rng)
            assert (not f.terms) == is_unit(recombine(f))

    def test_validation(self):
        with pytest.raises(ValueError):
            BasisFactorization(4, ())
        with pytest.raises(ValueError):
            BasisFactorization(0, ((13, 1), (5, 1)))
        with pytest.raises(ValueError):
            BasisFactorization(0, ((5, 0),))


class TestHypotenuse:
    def test_examples(self):
        assert hypotenuse_of(BasisFactorization(0, ((5, 2),))) == 25
        assert hypotenuse_of(BasisFactorization(0, ((5, -3),))) == 125
        assert hypotenuse_of(BasisFactorization(0, ((5, 1), (13, 1)))) == 65

    def test_rejects_unit_factorization(self):
        with pytest.raises(ValueError):
            hypotenuse_of(BasisFactorization(0, ()))

    @settings(max_examples=50, deadline=None)
    @given(factorizations(min_terms=1))
    def test_matches_pt_and_ignores_signs(self, f):
        f0 = BasisFactorization(0, f.terms)
        c = hypotenuse_of(f0)
        assert pt(recombine(f0)).c == c
        flipped = BasisFactorization(0, tuple((p, -e) for p, e in f.terms))
        assert pt(recombine(flipped)).c == c


class TestEnumeration:
    def test_examples(self):
        assert enumerate_triples(289) == [NormalizedTriple(161, 240, 289)]
        assert enumerate_triples(25) == [NormalizedTriple(7, 24, 25)]
        assert enumerate_triples(65) == brute_triples(65)
        assert len(enumerate_triples(65)) == 2

    def test_empty_cases(self):
        assert enumerate_triples(1) == []
        assert enumerate_triples(12) == []
        assert enumerate_triples(7) == []

    def test_count_examples(self):
        assert count_triples(3125) == 1
        assert count_triples(65) == 2
        assert count_triples(12) == 0
        assert count_triples(1) == 0

    def test_rejects_nonpositive(self):
        for bad in (0, -5):
            with pytest.raises(ValueError):
                enumerate_triples(bad)
            with pytest.raises(ValueError):
                count_triples(bad)

    def test_agrees_with_oracle_on_a_window(self):
        for c in range(1, 400):
            expected = brute_triples(c)
            assert enumerate_triples(c) == expected
            assert count_triples(c) == len(expected)

    @pytest.mark.parametrize(
        "c, n",
        [
            (5**13 * 13**2, 2),
            (101 * 109 * 113 * 137 * 149, 2**4),
            (5 * 13 * 17 * 29 * 37 * 10009, 2**5),
            (P, 1),  # prime, 1 (mod 4)
            (3 * 5 * 13 * 17 * 29 * 37 * 2857, 0),  # 3 divides c: no triple
        ],
    )
    def test_agrees_with_oracle_between_1e10_and_1e12(self, c, n):
        expected = brute_triples(c)
        assert len(expected) == n
        assert enumerate_triples(c) == expected

    def test_count_without_enumeration_is_fast_for_many_factors(self):
        # 8 distinct split primes: enumeration would build 128 huge points
        c = 5 * 13 * 17 * 29 * 37 * 41 * 53 * 61
        assert count_triples(c) == 2**7

    def test_hypotenuse_certificate_survives_optimization(self, monkeypatch):
        monkeypatch.setattr("circletriples.structure.pt", lambda x: NormalizedTriple(3, 4, 5))
        with pytest.raises(ArithmeticError, match="another hypotenuse"):
            enumerate_triples(65)

    def test_distinctness_certificate_survives_optimization(self, monkeypatch):
        # both sign patterns of 65 = 5 * 13 give one of its two triples
        monkeypatch.setattr("circletriples.structure.pt", lambda x: NormalizedTriple(16, 63, 65))
        with pytest.raises(ArithmeticError, match="more than once"):
            enumerate_triples(65)

    def test_count_of_prime_powers_near_1e12(self):
        sympy = pytest.importorskip("sympy")
        for c in (P**2, P**3, Q * P**2):
            fac = sympy.factorint(c)
            assert all(p % 4 == 1 for p in fac)
            assert count_triples(c) == 2 ** (len(fac) - 1), c

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(MIXED_PRIMES), st.integers(min_value=1, max_value=3)
            ),
            min_size=1,
            max_size=4,
            unique_by=lambda pe: pe[0],
        )
    )
    def test_count_matches_sympy_on_all_three_classes(self, pes):
        sympy = pytest.importorskip("sympy")
        c = math.prod(p**e for p, e in pes)
        fac = sympy.factorint(c)
        expected = 2 ** (len(fac) - 1) if all(p % 4 == 1 for p in fac) else 0
        assert count_triples(c) == expected
        assert primes.factorize(c) == sorted(fac.items())

    def test_count_of_psi_12(self):
        # 399165290221 * 798330580441, both = 1 (mod 4), and a strong
        # pseudoprime to the first 12 prime bases
        assert count_triples(318665857834031151167461) == 2


def reference_triples(c):
    """pt of the recombined basis powers of every sign pattern on the
    exponents of c whose first sign is positive, sorted by the short leg."""
    fac = primes.factorize(c) if c > 1 else []
    if not fac or any(p % 4 != 1 for p, _ in fac):
        return []
    first, rest = fac[0], fac[1:]
    triples = []
    for signs in product((1, -1), repeat=len(rest)):
        terms = (first,) + tuple((p, sign * n) for (p, n), sign in zip(rest, signs))
        triples.append(pt(recombine(BasisFactorization(0, terms))))
    return sorted(triples, key=lambda t: t.a)


class TestEnumerationSplitsEachPrimeOnce:
    def test_matches_the_sign_pattern_reference(self):
        for c in range(1, 3001):
            assert enumerate_triples(c) == reference_triples(c), c
        c = math.prod(P1_FIRST[:10])
        triples = enumerate_triples(c)
        assert len(triples) == 2**9
        assert triples == reference_triples(c)

    @pytest.mark.parametrize(
        "c",
        [
            5**3 * 13**2 * 101 * 409 * 733 * 997,  # k = 6, all trial primes
            5 * 10009 * P,  # two primes above the trial limit, separated by rho
        ],
    )
    def test_one_split_and_one_primality_proof_per_prime(self, monkeypatch, c):
        ps = [p for p, _ in primes.factorize(c)]
        splits, proofs = Counter(), Counter()

        def split(p, _real=primes._euclid_two_squares):
            splits[p] += 1
            return _real(p)

        def prove(n, _real=primes.is_prime):
            result = _real(n)
            if result:
                proofs[n] += 1
            return result

        # structure imports the split by name; two_squares looks it up in primes
        monkeypatch.setattr(primes, "_euclid_two_squares", split)
        monkeypatch.setattr(structure, "_euclid_two_squares", split)
        monkeypatch.setattr(primes, "is_prime", prove)
        assert len(enumerate_triples(c)) == 2 ** (len(ps) - 1)
        assert splits == {p: 1 for p in ps}
        assert proofs == {p: 1 for p in ps if p > 10**4}

    def test_refuses_more_than_max_triples_before_building_a_point(self, monkeypatch):
        def no_points(*args):
            raise AssertionError("a basis point was built")

        monkeypatch.setattr(structure, "_zeta", no_points)
        c = math.prod(P1_FIRST)
        assert count_triples(c) == 2**21 > structure.MAX_TRIPLES == 2**20
        with pytest.raises(ValueError, match="2097152 triples exceed the cap MAX_TRIPLES = 1048576"):
            enumerate_triples(c)

    def test_the_cap_itself_is_allowed(self, monkeypatch):
        monkeypatch.setattr(structure, "MAX_TRIPLES", 4)
        assert len(enumerate_triples(5 * 13 * 17)) == 4
        with pytest.raises(ValueError, match="8 triples exceed the cap MAX_TRIPLES = 4"):
            enumerate_triples(5 * 13 * 17 * 29)


# primes = 1 (mod 4) on both sides of the trial limit 10**4, and above 10**6;
# a hypotenuse takes at most one of the large ones, so that rho only ever
# separates primes below 10**6
SMALL_P1 = P1_SMALL + [p for p in primes_below(10**6) if p % 4 == 1][::700]
LARGE_P1 = [P, Q, 10**19 + 97]


@st.composite
def hypotenuses(draw):
    """(c, its factorization) for c <= 10**30 with 1 to 6 primes = 1 (mod 4)."""
    large = draw(st.lists(st.sampled_from(LARGE_P1), max_size=1))
    small = draw(
        st.lists(st.sampled_from(SMALL_P1), unique=True, min_size=1 - len(large), max_size=6 - len(large))
    )
    fac, c = {}, 1
    for p in large + small:
        e = draw(st.integers(1, 3))
        while e and c * p**e > 10**30:
            e -= 1
        if e:
            fac[p] = e
            c *= p**e
    return c, sorted(fac.items())


class TestLargeHypotenuses:
    @settings(max_examples=60, deadline=None)
    @given(hypotenuses(), st.data())
    def test_count_enumeration_and_coordinates_agree(self, c_fac, data):
        c, fac = c_fac
        assert primes.factorize(c) == fac
        triples = enumerate_triples(c)
        assert count_triples(c) == len(triples) == 2 ** (len(fac) - 1)
        for t in triples:
            assert t.c == c and t.a**2 + t.b**2 == c**2 and math.gcd(t.a, t.b) == 1
        signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=len(fac), max_size=len(fac)))
        terms = tuple((p, sign * e) for (p, e), sign in zip(fac, signs))
        f = BasisFactorization(data.draw(st.integers(0, 3)), terms)
        x = recombine(f)
        assert x.s.denominator == c
        assert factor_point(x) == f


class TestPowersTable:
    def test_rows_match_reference_table(self):
        rows = powers_table(NormalizedTriple(3, 4, 5), 4)
        assert [(n, str(x), (t.a, t.b, t.c)) for n, x, t in rows] == [
            (1, "3/5 4/5", (3, 4, 5)),
            (2, "-7/25 24/25", (7, 24, 25)),
            (3, "-117/125 44/125", (44, 117, 125)),
            (4, "-527/625 -336/625", (336, 527, 625)),
        ]

    def test_no_row_is_a_unit(self):
        # the units are the whole torsion, so every power of the point has a triple
        rows = powers_table(NormalizedTriple(3, 4, 5), 12)
        assert not any(is_unit(x) for _, x, _ in rows)
        assert [t.c for _, _, t in rows] == [5**n for n in range(1, 13)]

    def test_rejects_empty_table(self):
        with pytest.raises(ValueError):
            powers_table(NormalizedTriple(3, 4, 5), 0)
