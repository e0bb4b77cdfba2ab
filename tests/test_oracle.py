import ast
import math
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import pytest

from circletriples import _kernels_py, oracle, structure
from circletriples.circle import CirclePoint, NormalizedTriple, gamma_orbit, is_unit


def test_brute_examples():
    assert oracle.brute_triples(5) == [NormalizedTriple(3, 4, 5)]
    assert oracle.brute_triples(4) == []
    assert oracle.brute_triples(625) == [NormalizedTriple(336, 527, 625)]


def test_brute_rejects_nonpositive():
    with pytest.raises(ValueError):
        oracle.brute_triples(0)


def test_brute_output_is_validated_and_sorted():
    for c in (5, 25, 65, 325, 1105):
        triples = oracle.brute_triples(c)
        assert [t.a for t in triples] == sorted(t.a for t in triples)
        for t in triples:
            # constructor-checked, but restate the defining equations
            assert t.a**2 + t.b**2 == t.c**2 == c * c
            assert math.gcd(t.a, t.b, t.c) == 1


def test_isqrt_is_exact():
    for x in list(range(200)) + [10**12, 10**12 + 1, (10**6 + 3) ** 2]:
        r = math.isqrt(x)
        assert r * r <= x < (r + 1) * (r + 1)


def test_point_corpus_counts():
    assert len(oracle.brute_rational_points(4)) == 4  # units only
    assert len(oracle.brute_rational_points(5)) == 12  # units + one orbit
    # hypotenuses 5, 13, 17, 25 each contribute a disjoint 8-point orbit
    assert len(oracle.brute_rational_points(25)) == 4 + 8 * 4


def test_point_corpus_is_duplicate_free():
    pts = oracle.brute_rational_points(100)
    assert len(pts) == len(set(pts))


def test_gamma_orbit_is_the_eight_signed_and_swapped_points():
    for x in oracle.brute_rational_points(300):
        if is_unit(x):
            continue
        a, b, c = abs(x.s.numerator), abs(x.t.numerator), x.s.denominator
        expected = {
            CirclePoint(Fraction(i * u, c), Fraction(j * v, c))
            for u, v in ((a, b), (b, a))
            for i in (1, -1)
            for j in (1, -1)
        }
        assert gamma_orbit(x) == expected, x


def barning_hall(n):
    """Every primitive triple with c <= n, as sorted leg pairs keyed by c.

    Walks the ternary tree of Barning (1963) and Hall (1970) from (3, 4, 5).
    Each of its three integer matrices maps a primitive triple to one with a
    larger hypotenuse, and every primitive triple is reached exactly once,
    so pruning at c > n misses none. No primes, no circle points.
    """
    legs = defaultdict(list)
    todo = [(3, 4, 5)]
    while todo:
        a, b, c = todo.pop()
        if c > n:
            continue
        legs[c].append((min(a, b), max(a, b)))
        todo += [
            (a - 2 * b + 2 * c, 2 * a - b + 2 * c, 2 * a - 2 * b + 3 * c),
            (a + 2 * b + 2 * c, 2 * a + b + 2 * c, 2 * a + 2 * b + 3 * c),
            (-a + 2 * b + 2 * c, -2 * a + b + 2 * c, -2 * a + 2 * b + 3 * c),
        ]
    return {c: sorted(pairs) for c, pairs in legs.items()}


def test_barning_hall_walk_matches_the_brute_scan_below_1e4():
    tree = barning_hall(10**4)
    for c in range(1, 10**4 + 1):
        assert [(t.a, t.b) for t in oracle.brute_triples(c)] == tree.get(c, []), c


def test_enumeration_and_count_match_the_barning_hall_walk_below_2e4():
    n = 2 * 10**4
    tree = barning_hall(n)
    for c in range(1, n + 1):
        expected = [NormalizedTriple(a, b, c) for a, b in tree.get(c, [])]
        assert structure.enumerate_triples(c) == expected, c
        assert structure.count_triples(c) == len(expected), c


def spec_triples_scan(c):
    """The specification of triples_scan: every short leg a, plainly."""
    cc = c * c
    out = []
    a = 1
    while 2 * a * a < cc:
        bsq = cc - a * a
        b = math.isqrt(bsq)
        if b * b == bsq and math.gcd(a, b) == 1:
            out.append((a, b))
        a += 1
    return out


def test_triples_scan_matches_spec_below_3000():
    # c = 1 and 2 (d_max = 0), odd and even c, and hits at gaps k^2 (b even)
    # and 2k^2 (b odd), at d_max itself too (c = 5, 29, 169, 985)
    for c in range(1, 3000):
        assert _kernels_py.triples_scan(c) == spec_triples_scan(c), c
    assert _kernels_py.triples_scan(1) == _kernels_py.triples_scan(2) == []


@pytest.mark.parametrize(
    "c",
    [
        5**8,
        5**9,
        1105**2,
        2 * 5**4 * 13**2,  # even
        3 * 5 * 13 * 17 * 29,  # a prime 3 (mod 4) with split ones
        999979,  # prime, 3 (mod 4)
        200009,  # prime, 1 (mod 4)
        900001,  # prime, 1 (mod 4)
        449 * 1009,
        61 * 73 * 101,
        17485,  # the last square gap below d_max = 5121, 71^2 = 5041, gives a triple
        2**6 * 5**2 * 13 * 17,  # even, 4 | c
        5741,  # prime; its only triple has gap 41^2 = d_max, b = 4060 even
        33461,  # prime; its only triple has gap 2 * 70^2 = d_max, b = 23661 odd
    ],
)
def test_triples_scan_matches_spec_at_scale(c):
    assert _kernels_py.triples_scan(c) == spec_triples_scan(c)


def _package_imports(module):
    """circletriples modules imported by module, directly or through others."""
    package = Path(oracle.__file__).parent
    seen, todo = set(), [module]
    while todo:
        for node in ast.walk(ast.parse((package / f"{todo.pop()}.py").read_text())):
            if isinstance(node, ast.Import):
                dotted = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = ".".join(filter(None, ["circletriples" if node.level else "", node.module]))
                dotted = [base] + [f"{base}.{a.name}" for a in node.names]
            else:
                continue
            names = {d.split(".")[1] for d in dotted if d.startswith("circletriples.")}
            todo += names - seen
            seen |= names
    return seen


def test_oracle_knows_no_primes_or_structure():
    for module in ("oracle", "_kernels_py"):
        assert not _package_imports(module) & {"primes", "structure"}, module


def test_primes_imports_no_package_module():
    assert _package_imports("primes") == set()


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements; every check must be an explicit raise
    package = Path(oracle.__file__).parent
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text())
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, (path.name, lines)


def test_exhaustive_two_squares():
    assert oracle.exhaustive_two_squares(5) == (1, 2)
    assert oracle.exhaustive_two_squares(7) is None
    assert oracle.exhaustive_two_squares(25) == (3, 4)
