import json
import math
import sys
import time

import pytest

from circletriples import circle, structure
from circletriples.circle import NormalizedTriple, point_from_triple, pt
from circletriples.cli import main
from circletriples.oracle import MAX_BRUTE_HYPOTENUSE
from circletriples.primes import primes_below
from circletriples.structure import BasisFactorization, recombine


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count(capsys):
    assert run(capsys, "count", "65") == (0, "2\n", "")
    assert run(capsys, "count", "12") == (0, "0\n", "")
    assert run(capsys, "count", "3125") == (0, "1\n", "")
    # psi_12 = 399165290221 * 798330580441, a strong pseudoprime to 12 bases
    assert run(capsys, "count", "318665857834031151167461") == (0, "2\n", "")


def test_count_rejects_bad_input(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "-7"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["count", "abc"])
    assert exc.value.code == 2


def test_triples(capsys):
    code, out, _ = run(capsys, "triples", "289")
    assert code == 0 and out == "161 240 289\n"
    code, out, _ = run(capsys, "triples", "7")
    assert code == 0 and out == ""


def test_triples_verify(capsys):
    code, out, err = run(capsys, "triples", "65", "--verify")
    assert code == 0 and err == ""
    assert out.splitlines() == ["16 63 65", "33 56 65"]


def test_triples_limit(capsys):
    code, out, _ = run(capsys, "triples", "65", "--limit", "1")
    assert code == 0 and out == "16 63 65\n"


def test_triples_json_roundtrip(capsys):
    code, out, _ = run(capsys, "triples", "65", "--json", "--verify")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "triples"
    assert doc["input"]["c"] == "65"
    assert doc["result"]["verified"] is True
    triples = doc["result"]["triples"]
    # decimal strings, never numbers, so exactness survives any parser
    assert triples[0] == {"a": "16", "b": "63", "c": "65"}
    assert all(isinstance(v, str) for t in triples for v in t.values())


@pytest.mark.parametrize("flags", [[], ["--verify"]])
def test_json_input_echo_carries_flags_as_booleans(capsys, flags):
    code, out, _ = run(capsys, "triples", "65", *flags, "--json")
    assert code == 0
    assert json.loads(out)["input"] == {"c": "65", "verify": bool(flags)}


def test_zeta(capsys):
    assert run(capsys, "zeta", "17") == (0, "-15/17 8/17\n", "")


def test_zeta_diagnoses_class(capsys):
    code, _, err = run(capsys, "zeta", "7")
    assert code == 2 and "P3" in err


def test_pow(capsys):
    code, out, _ = run(capsys, "pow", "5", "2")
    assert code == 0
    assert out.splitlines() == ["-7/25 -24/25", "7 24 25"]


def test_pow_zero_is_a_unit(capsys):
    code, out, _ = run(capsys, "pow", "5", "0")
    assert code == 0
    assert out.splitlines() == ["1 0", "unit"]


@pytest.mark.parametrize("p", ["4", "3", "2"])
def test_pow_zero_still_needs_a_prime_1_mod_4(capsys, p):
    code, out, err = run(capsys, "pow", p, "0")
    assert (code, out) == (2, "") and err.startswith(f"error: {p} is ")


def test_table(capsys):
    code, out, _ = run(capsys, "table", "4")
    assert code == 0
    assert out.splitlines() == [
        "1 3/5 4/5 3 4 5",
        "2 -7/25 24/25 7 24 25",
        "3 -117/125 44/125 44 117 125",
        "4 -527/625 -336/625 336 527 625",
    ]


def test_factor_point(capsys):
    code, out, _ = run(capsys, "factor-point", "1", "0")
    assert code == 0 and out == "unit i^0\n"
    code, out, _ = run(capsys, "factor-point", "3/5", "4/5")
    assert out.splitlines() == ["unit i^2", "5 -1"]


def test_factor_point_near_1e12_matches_sympy(capsys):
    sympy = pytest.importorskip("sympy")
    p, q = 999999999989, 1000000000061  # primes = 1 (mod 4)
    cases = [(0, ((p, 1),)), (3, ((p, -2),)), (1, ((p, 3),)), (2, ((p, 2), (q, -1)))]
    for unit, terms in cases:
        x = recombine(BasisFactorization(unit, terms))
        code, out, _ = run(capsys, "factor-point", str(x.s), str(x.t))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == f"unit i^{unit}"
        got = [tuple(map(int, line.split())) for line in lines[1:]]
        assert got == list(terms)
        assert dict((p, abs(e)) for p, e in got) == sympy.factorint(x.s.denominator)


def test_negative_rationals_are_positionals(capsys):
    assert run(capsys, "factor-point", "3/5", "-4/5") == (0, "unit i^2\n5 1\n", "")
    assert run(capsys, "factor-point", "--", "3/5", "-4/5") == (0, "unit i^2\n5 1\n", "")
    assert run(capsys, "project", "-3/5", "4/5") == (0, "-3\n", "")
    assert run(capsys, "project", "-3/5", "-4/5", "--json")[1] == (
        '{"command": "project", "input": {"s": "-3/5", "t": "-4/5"}, "result": "-1/3"}\n'
    )
    assert run(capsys, "unproject", "-3/2") == (0, "-12/13 5/13\n", "")


def test_factor_point_rejects_off_circle(capsys):
    code, _, err = run(capsys, "factor-point", "1/2", "1/2")
    assert code == 2 and "unit circle" in err


def test_project(capsys):
    assert run(capsys, "project", "3/5", "4/5") == (0, "3\n", "")
    code, _, err = run(capsys, "project", "0", "1")
    assert code == 2 and err


def test_unproject(capsys):
    assert run(capsys, "unproject", "3") == (0, "3/5 4/5\n", "")
    assert run(capsys, "unproject", "0") == (0, "0 -1\n", "")


def test_oracle(capsys):
    assert run(capsys, "oracle", "625") == (0, "336 527 625\n", "")


@pytest.mark.parametrize("argv", [["oracle"], ["triples", "--verify"], ["triples", "--verify", "--json"]])
def test_oracle_refuses_beyond_its_bound(capsys, argv):
    # 0.92 * sqrt(c) gaps: hours of scanning at 10^20, so a refusal must come at once
    for c in (MAX_BRUTE_HYPOTENUSE + 1, 10**20 + 1):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, str(c))
        elapsed = time.perf_counter() - start
        assert (code, out) == (2, "")
        assert elapsed < 0.1, c
        assert "brute oracle" in err and str(MAX_BRUTE_HYPOTENUSE) in err


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_factoring_refuses_beyond_the_rho_bound(capsys, monkeypatch, json_flag):
    p, q = 1000033, 1000037  # primes = 1 (mod 4); rho needs about a thousand steps
    x = recombine(BasisFactorization(0, ((p, 1), (q, 1))))
    calls = [
        ["count", str(p * q)],
        ["triples", str(p * q)],
        ["factor-point", str(x.s), str(x.t)],
    ]
    assert run(capsys, "count", str(p * q)) == (0, "2\n", "")
    monkeypatch.setattr("circletriples.primes._RHO_MAX_STEPS", 64)
    for argv in calls:
        code, out, err = run(capsys, *argv, *json_flag)
        assert (code, out) == (2, ""), argv
        assert "factorize: Pollard rho" in err and "bound of 64 steps" in err, argv


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_triples_refuses_more_than_max_triples_at_once(capsys, json_flag):
    c = math.prod([p for p in primes_below(300) if p % 4 == 1][:22])  # 2**21 triples
    start = time.perf_counter()
    code, out, err = run(capsys, "triples", str(c), *json_flag)
    elapsed = time.perf_counter() - start
    assert (code, out) == (2, "")
    assert "2097152 triples exceed the cap MAX_TRIPLES = 1048576" in err
    assert elapsed < 0.1
    assert run(capsys, "count", str(c)) == (0, "2097152\n", "")


# 20-digit primes: P3A and P3B are 3 (mod 4), P1 is 1 (mod 4)
P3A, P3B, P1 = 10**19 + 51, 10**19 + 87, 10**19 + 97


@pytest.mark.parametrize(
    "c",
    [
        3 * P3A * P3B,  # 3 (mod 4)
        9 * P3A * P3B,  # 1 (mod 4), so the trial prime 3 must stop it
        P1 * P3A,  # 3 (mod 4)
        (P1 * P3A) ** 2,  # its root is 3 (mod 4)
    ],
)
def test_a_zero_needs_no_split(capsys, monkeypatch, c):
    # a factor not 1 (mod 4) shows before any cofactor would need a split
    def no_rho(m, rng):
        raise AssertionError(f"Pollard rho called on {m}")

    monkeypatch.setattr("circletriples.primes._pollard_rho", no_rho)
    assert run(capsys, "count", str(c)) == (0, "0\n", "")
    assert run(capsys, "triples", str(c)) == (0, "", "")
    code, out, err = run(capsys, "triples", str(c), "--json")
    assert (code, err) == (0, "") and json.loads(out)["result"] == {"triples": []}


def test_a_zero_that_needs_the_split_is_refused(capsys, monkeypatch):
    # P3A * P3B is 1 (mod 4): only its split shows the primes 3 (mod 4)
    monkeypatch.setattr("circletriples.primes._RHO_MAX_STEPS", 64)
    for argv in (["count"], ["triples"], ["triples", "--json"]):
        code, out, err = run(capsys, *argv, str(P3A * P3B))
        assert (code, out) == (2, ""), argv
        assert "factorize: Pollard rho" in err and "bound of 64 steps" in err, argv


@pytest.fixture
def default_digit_limit():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # Python's default limit for int-to-str
    yield
    sys.set_int_max_str_digits(old)


def test_pow_and_table_print_up_to_the_digit_limit(capsys, monkeypatch, default_digit_limit):
    assert 10**4299 <= 5**6151 < 10**4300 <= 5**6152  # 4300 digits, then 4301
    for n in ("6151", "-6151"):
        code, out, _ = run(capsys, "pow", "5", n)
        assert code == 0 and out.split()[-1] == str(5**6151), n
    # the real table would take a minute to compute its 6151 rows: its last row stands in
    seed = NormalizedTriple(3, 4, 5)
    last = point_from_triple(seed) ** 6151
    monkeypatch.setattr(structure, "powers_table", lambda s, n: [(n, last, pt(last))])
    code, out, _ = run(capsys, "table", "6151")
    assert code == 0 and out.split()[-1] == str(5**6151)


def test_pow_and_table_refuse_beyond_the_digit_limit(capsys, monkeypatch, default_digit_limit):
    def never(*args):
        raise AssertionError("computed a power that cannot be printed")

    monkeypatch.setattr(structure, "zeta_power", never)
    monkeypatch.setattr(structure, "powers_table", never)
    calls = [
        ["pow", "5", "6152"],
        ["pow", "5", "-6152"],
        ["pow", "5", "100000"],
        ["pow", "999999999989", "1000"],
        ["table", "6152"],
        ["table", "7000"],
    ]
    for argv in calls:
        for json_flag in ([], ["--json"]):
            start = time.perf_counter()
            code, out, err = run(capsys, *argv, *json_flag)
            elapsed = time.perf_counter() - start
            assert (code, out) == (2, ""), argv
            assert elapsed < 0.1, argv
            assert err.startswith(f"error: {argv[0]}: ") and "4300 decimal digits" in err, argv
    monkeypatch.undo()
    sys.set_int_max_str_digits(0)  # no limit, so no refusal
    code, out, _ = run(capsys, "pow", "5", "6152")
    assert code == 0 and out.split()[-1] == str(5**6152)


def test_pow_and_table_refuse_a_huge_exponent(capsys, default_digit_limit):
    # k*log10(p) would overflow a float for k = 10**400
    for argv in (["pow", "5", str(10**400)], ["pow", "5", str(-(10**400))], ["table", str(10**400)]):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        elapsed = time.perf_counter() - start
        assert (code, out) == (2, ""), argv[:2]
        assert elapsed < 0.1, argv[:2]
        assert err.startswith(f"error: {argv[0]}: ") and err.count("\n") == 1, argv[:2]
        assert "more than 4300 decimal digits" in err, argv[:2]


def test_pow_and_table_run_without_a_digit_limit_function(capsys, monkeypatch):
    # Python 3.10.0-3.10.6 has no sys.get_int_max_str_digits; that means no limit
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    assert run(capsys, "pow", "5", "3") == (0, "117/125 44/125\n44 117 125\n", "")
    assert run(capsys, "table", "2") == (0, "1 3/5 4/5 3 4 5\n2 -7/25 24/25 7 24 25\n", "")


def test_seed_flag_changes_nothing(capsys):
    _, base, _ = run(capsys, "zeta", "13")
    for seed in ("0", "1", "18446744073709551615"):
        assert run(capsys, "zeta", "13", "--seed", seed) == (0, base, "")


def test_verify_agreement_on_random_sample(capsys):
    import random

    rng = random.Random(2024)
    for c in rng.sample(range(1, 2001), 500):
        code, _, err = run(capsys, "triples", str(c), "--verify")
        assert code == 0, (c, err)


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert all(line.startswith("ok ") for line in out.splitlines())


def test_selftest_failure_on_a_broken_enumerator_survives_optimization(capsys, monkeypatch):
    # the checks raise explicitly, so this holds under python -O as well
    monkeypatch.setattr("circletriples.structure.enumerate_triples", lambda c: [])
    code, out, _ = run(capsys, "selftest")
    assert code == 1
    assert out.startswith("FAIL enumeration_matches_oracle: 5\n")
    code, out, _ = run(capsys, "selftest", "--json")
    assert code == 1
    assert {r["check"]: r["ok"] for r in json.loads(out)["result"]} == {
        "enumeration_matches_oracle": False,
        "two_squares_matches_search": True,
        "factorization_roundtrip": True,
        "projection_roundtrip": True,
        "orbits_have_size_8": True,
    }


def test_project_certificate_error_survives_optimization(capsys, monkeypatch):
    # a failed certificate ends the call with one error line, not a traceback
    real = circle.stereo_unproject
    monkeypatch.setattr(circle, "stereo_unproject", lambda r: real(r + 1))
    for json_flag in ([], ["--json"]):
        code, out, err = run(capsys, "project", "3/5", "4/5", *json_flag)
        assert (code, out) == (1, "")
        assert err.startswith("error: stereo_project(") and err.count("\n") == 1, err


def test_selftest_certificate_error_survives_optimization(capsys, monkeypatch):
    # an ArithmeticError fails its own check and the other four still run
    def broken(c):
        raise ArithmeticError(f"enumerate_triples({c}): certificate failed")

    monkeypatch.setattr(structure, "enumerate_triples", broken)
    code, out, _ = run(capsys, "selftest")
    assert code == 1
    assert out.splitlines()[0] == "FAIL enumeration_matches_oracle: enumerate_triples(1): certificate failed"
    code, out, _ = run(capsys, "selftest", "--json")
    assert code == 1
    assert {r["check"]: r["ok"] for r in json.loads(out)["result"]} == {
        "enumeration_matches_oracle": False,
        "two_squares_matches_search": True,
        "factorization_roundtrip": True,
        "projection_roundtrip": True,
        "orbits_have_size_8": True,
    }


def json_leaves(doc):
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        return [leaf for item in doc for leaf in json_leaves(item)]
    return [doc]


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "65"],
        ["triples", "65", "--verify"],
        ["zeta", "13"],
        ["pow", "5", "0"],
        ["pow", "5", "-2"],
        ["table", "4"],
        ["factor-point", "--", "-3/5", "4/5"],
        ["project", "3/5", "4/5"],
        ["unproject", "-1/2"],
        ["oracle", "65"],
        ["selftest"],
    ],
    ids=" ".join,
)
def test_every_json_leaf_is_a_string_a_bool_or_null(capsys, argv):
    # decimal strings, never numbers, so exactness survives any parser
    code, out, err = run(capsys, argv[0], "--json", *argv[1:])
    assert (code, err) == (0, "")
    leaves = json_leaves(json.loads(out)["result"])
    assert leaves and all(v is None or isinstance(v, (str, bool)) for v in leaves)
