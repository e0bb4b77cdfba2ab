"""Tests for the benchmark's own checkers, tracer and entry point.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from math import gcd, isqrt
from pathlib import Path

import pytest

import checks
import run
import workloads

HERE = Path(__file__).resolve().parent


def triples_doc(c, legs, verified=None):
    result = {"triples": [{"a": str(a), "b": str(b), "c": str(c)} for a, b in legs]}
    if verified is not None:
        result["verified"] = verified
    return {"command": "triples", "input": {"c": str(c)}, "result": result}


def brute_legs(c):
    out = set()
    for a in range(1, c):
        b = isqrt(c * c - a * a)
        if a < b and a * a + b * b == c * c and gcd(a, b) == 1:
            out.add((a, b))
    return out


@pytest.mark.parametrize(
    "factors",
    [((5, 1),), ((5, 2),), ((5, 1), (13, 1)), ((5, 3), (13, 1)), ((5, 1), (13, 1), (17, 1))],
)
def test_expected_legs_match_brute_scan(factors):
    c = 1
    for p, n in factors:
        c *= p**n
    assert checks.expected_legs(factors) == brute_legs(c)


def test_check_triples_accepts_the_right_answer():
    checks.check_triples(triples_doc(65, [(16, 63), (33, 56)]), ((5, 1), (13, 1)), False)
    checks.check_triples(triples_doc(65, [(16, 63), (33, 56)], True), ((5, 1), (13, 1)), True)


@pytest.mark.parametrize(
    "legs, verified",
    [
        ([(16, 63)], True),  # a triple dropped
        ([(16, 63), (33, 57)], True),  # a leg altered
        ([(16, 63), (25, 60)], True),  # swapped for a non-primitive triple
        ([(33, 56), (16, 63)], True),  # not ordered by a
        ([(16, 63), (33, 56), (33, 56)], True),  # a triple repeated
        ([(63, 16), (33, 56)], True),  # legs the wrong way round
        ([(16, 63), (33, 56)], False),  # the oracle disagreed
        ([(16, 63), (33, 56)], None),  # no verified field
    ],
)
def test_check_triples_rejects(legs, verified):
    with pytest.raises(checks.WrongAnswer):
        checks.check_triples(triples_doc(65, legs, verified), ((5, 1), (13, 1)), True)


def test_check_triples_rejects_a_dropped_triple_among_many():
    factors = ((5, 3), (13, 2), (17, 1), (29, 1), (37, 1), (41, 1))
    c = 5**3 * 13**2 * 17 * 29 * 37 * 41
    legs = sorted(checks.expected_legs(factors))
    checks.check_triples(triples_doc(c, legs), factors, False)
    with pytest.raises(checks.WrongAnswer):
        checks.check_triples(triples_doc(c, legs[:-1]), factors, False)


def test_check_count():
    sympy = pytest.importorskip("sympy")
    for c, want in [(65, 2), (5**3 * 13 * 17, 4), (2 * 65, 0), (3 * 65, 0), (9 * 65, 0), (1, 0)]:
        assert checks.count_from_factorint(c, sympy.factorint) == want
        checks.check_count({"command": "count", "result": str(want)}, want)
        for off in (want - 1, want + 1):
            with pytest.raises(checks.WrongAnswer):
                checks.check_count({"command": "count", "result": str(off)}, want)


def test_point_of_known_points():
    assert checks.point_of(0, ((5, 1),)) == (Fraction(-3, 5), Fraction(4, 5))
    assert checks.point_of(2, ((5, -1),)) == (Fraction(3, 5), Fraction(4, 5))


def test_check_point():
    terms = [{"p": "5", "e": "-1"}, {"p": "13", "e": "3"}]
    doc = {"command": "factor-point", "result": {"unit_exp": "2", "terms": terms}}
    checks.check_point(doc, 2, ((5, -1), (13, 3)))
    with pytest.raises(checks.WrongAnswer):
        checks.check_point(doc, 2, ((5, 1), (13, 3)))  # an exponent's sign flipped
    with pytest.raises(checks.WrongAnswer):
        checks.check_point(doc, 0, ((5, -1), (13, 3)))  # another unit
    with pytest.raises(checks.WrongAnswer):
        checks.check_point(doc, 2, ((5, -1),))  # a term missing


@pytest.mark.parametrize("name", workloads.NAMES)
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(name):
    assert workloads.cases_for(name, 3) == workloads.cases_for(name, 3)
    assert workloads.cases_for(name, 3) != workloads.cases_for(name, 4)


def test_enumerate_shares_no_prime_and_points_share_many():
    cases = workloads.cases_for("enumerate", 0)
    primes = [p for case in cases for p in case.primes]
    assert len(primes) == len(set(primes)) == sum(workloads.ENUMERATE_SIZES)
    assert workloads.reuse_share(cases) == 0
    assert workloads.reuse_share(workloads.cases_for("points", 0)) > 0.5


@pytest.mark.parametrize("name", workloads.NAMES)
def test_checkers_accept_the_program_on_two_cases(name):
    """Two cases of each workload, one pass in a worker, checked."""
    cases = workloads.cases_for(name, 0)[-2:]
    report = run.run_pass([list(c.argv) for c in cases], trace=False, trace_file=None)
    failed, wrong = run.check_outputs(name, cases, [report])
    assert (failed, wrong) == (0, [])


def test_traced_call_counts_repeat_exactly():
    cases = workloads.cases_for("points", 0)[:20]
    argvs = [list(c.argv) for c in cases]
    first, second = (run.run_pass(argvs, trace=True, trace_file=None) for _ in range(2))
    assert first["totals"]["calls"] == second["totals"]["calls"]
    assert first["totals"]["calls"]["cli.main"] == 20
    figures = run.per_layer([first], len(cases))
    assert figures["structure.gaussian_factorize.calls"] == 1.0
    assert set(figures) == set(run.LAYER_UNITS)


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS


def test_refuses_to_run_without_the_program(tmp_path):
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "count", "--seed", "1"]
        + ["--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
