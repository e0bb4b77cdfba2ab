"""The CLI's help, usage errors and outputs, byte for byte, and the cost of parsing.

The help and usage texts were captured from the CLI as it stood before
`main` built only the subparser a call names, and the calls of CALLS
before it parsed a named command with that command's parser alone; they
must not change with either. argparse words its help differently between
Python versions, so the texts are those of Python 3.11 and the comparison
runs only there.
"""

import argparse
import sys

import pytest

from circletriples.cli import main

# argv -> (exit code, stdout, stderr), at a terminal width of 80 columns
SURFACE = {
    ("-h",): (
        0,
        (
            "usage: circletriples [-h]\n"
            "                     {count,triples,zeta,pow,table,factor-point,project,unproject,oracle,selftest}\n"
            "                     ...\n"
            "\n"
            "Count and enumerate normalized Pythagorean triples via the rational unit\n"
            "circle.\n"
            "\n"
            "positional arguments:\n"
            "  {count,triples,zeta,pow,table,factor-point,project,unproject,oracle,selftest}\n"
            "    count               number of triples with hypotenuse c\n"
            "    triples             enumerate triples with hypotenuse c\n"
            "    zeta                basis circle point for a prime p = 1 (mod 4)\n"
            "    pow                 n-th power of the basis point for p\n"
            "    table               powers of the (3,4,5) point and their triples\n"
            "    factor-point        basis factorization of a circle point\n"
            "    project             stereographic projection of a circle point\n"
            "    unproject           circle point of a rational projection value\n"
            "    oracle              brute-force triples with hypotenuse c\n"
            "    selftest            run the bounded invariant suite\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
        ),
        "",
    ),
    (): (
        2,
        "",
        (
            "usage: circletriples [-h]\n"
            "                     {count,triples,zeta,pow,table,factor-point,project,unproject,oracle,selftest}\n"
            "                     ...\n"
            "circletriples: error: the following arguments are required: command\n"
        ),
    ),
    ("bogus",): (
        2,
        "",
        (
            "usage: circletriples [-h]\n"
            "                     {count,triples,zeta,pow,table,factor-point,project,unproject,oracle,selftest}\n"
            "                     ...\n"
            "circletriples: error: argument command: invalid choice: 'bogus' (choose from 'count', 'triples', 'zeta', 'pow', 'table', 'factor-point', 'project', 'unproject', 'oracle', 'selftest')\n"
        ),
    ),
    ("count", "-h"): (
        0,
        (
            "usage: circletriples count [-h] [--json] [--seed U64] c\n"
            "\n"
            "positional arguments:\n"
            "  c\n"
            "\n"
            "options:\n"
            "  -h, --help  show this help message and exit\n"
            "  --json      emit a JSON document\n"
            "  --seed U64  accepted; has no effect\n"
        ),
        "",
    ),
    ("triples", "-h"): (
        0,
        (
            "usage: circletriples triples [-h] [--json] [--seed U64] [--verify] [--limit N]\n"
            "                             c\n"
            "\n"
            "positional arguments:\n"
            "  c\n"
            "\n"
            "options:\n"
            "  -h, --help  show this help message and exit\n"
            "  --json      emit a JSON document\n"
            "  --seed U64  accepted; has no effect\n"
            "  --verify    cross-check against the brute-force oracle\n"
            "  --limit N   print at most N rows\n"
        ),
        "",
    ),
    ("zeta", "-h"): (
        0,
        (
            "usage: circletriples zeta [-h] [--json] [--seed U64] p\n"
            "\n"
            "positional arguments:\n"
            "  p\n"
            "\n"
            "options:\n"
            "  -h, --help  show this help message and exit\n"
            "  --json      emit a JSON document\n"
            "  --seed U64  accepted; has no effect\n"
        ),
        "",
    ),
    ("pow", "-h"): (
        0,
        (
            "usage: circletriples pow [-h] [--json] [--seed U64] p n\n"
            "\n"
            "positional arguments:\n"
            "  p\n"
            "  n\n"
            "\n"
            "options:\n"
            "  -h, --help  show this help message and exit\n"
            "  --json      emit a JSON document\n"
            "  --seed U64  accepted; has no effect\n"
        ),
        "",
    ),
    ("table", "-h"): (
        0,
        (
            "usage: circletriples table [-h] [--json] [--seed U64] n_max\n"
            "\n"
            "positional arguments:\n"
            "  n_max\n"
            "\n"
            "options:\n"
            "  -h, --help  show this help message and exit\n"
            "  --json      emit a JSON document\n"
            "  --seed U64  accepted; has no effect\n"
        ),
        "",
    ),
    ("factor-point", "-h"): (
        0,
        (
            "usage: circletriples factor-point [-h] [--json] [--seed U64] s t\n"
            "\n"
            "positional arguments:\n"
            "  s\n"
            "  t\n"
            "\n"
            "options:\n"
            "  -h, --help  show this help message and exit\n"
            "  --json      emit a JSON document\n"
            "  --seed U64  accepted; has no effect\n"
        ),
        "",
    ),
    ("project", "-h"): (
        0,
        (
            "usage: circletriples project [-h] [--json] [--seed U64] s t\n"
            "\n"
            "positional arguments:\n"
            "  s\n"
            "  t\n"
            "\n"
            "options:\n"
            "  -h, --help  show this help message and exit\n"
            "  --json      emit a JSON document\n"
            "  --seed U64  accepted; has no effect\n"
        ),
        "",
    ),
    ("unproject", "-h"): (
        0,
        (
            "usage: circletriples unproject [-h] [--json] [--seed U64] r\n"
            "\n"
            "positional arguments:\n"
            "  r\n"
            "\n"
            "options:\n"
            "  -h, --help  show this help message and exit\n"
            "  --json      emit a JSON document\n"
            "  --seed U64  accepted; has no effect\n"
        ),
        "",
    ),
    ("oracle", "-h"): (
        0,
        (
            "usage: circletriples oracle [-h] [--json] [--seed U64] c\n"
            "\n"
            "positional arguments:\n"
            "  c\n"
            "\n"
            "options:\n"
            "  -h, --help  show this help message and exit\n"
            "  --json      emit a JSON document\n"
            "  --seed U64  accepted; has no effect\n"
        ),
        "",
    ),
    ("selftest", "-h"): (
        0,
        (
            "usage: circletriples selftest [-h] [--json] [--seed U64]\n"
            "\n"
            "options:\n"
            "  -h, --help  show this help message and exit\n"
            "  --json      emit a JSON document\n"
            "  --seed U64  accepted; has no effect\n"
        ),
        "",
    ),
    ("count", "65", "extra"): (
        2,
        "",
        (
            "usage: circletriples [-h]\n"
            "                     {count,triples,zeta,pow,table,factor-point,project,unproject,oracle,selftest}\n"
            "                     ...\n"
            "circletriples: error: unrecognized arguments: extra\n"
        ),
    ),
    ("--json", "count", "65"): (
        2,
        "",
        (
            "usage: circletriples [-h]\n"
            "                     {count,triples,zeta,pow,table,factor-point,project,unproject,oracle,selftest}\n"
            "                     ...\n"
            "circletriples: error: unrecognized arguments: --json\n"
        ),
    ),
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse help text of Python 3.11")
@pytest.mark.parametrize("argv", list(SURFACE), ids=" ".join)
def test_help_and_usage_errors_are_unchanged(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out, captured.err) == SURFACE[argv]


# argv -> (exit code, stdout, stderr), at a terminal width of 80 columns: errors
# inside a command, abbreviated options, and one --json call of each command
CALLS = {
    ("count",): (
        2,
        "",
        (
            "usage: circletriples count [-h] [--json] [--seed U64] c\n"
            "circletriples count: error: the following arguments are required: c\n"
        ),
    ),
    ("count", "-7"): (
        2,
        "",
        (
            "usage: circletriples count [-h] [--json] [--seed U64] c\n"
            "circletriples count: error: argument c: expected a positive integer, got '-7'\n"
        ),
    ),
    ("count", "abc"): (
        2,
        "",
        (
            "usage: circletriples count [-h] [--json] [--seed U64] c\n"
            "circletriples count: error: argument c: invalid _positive_int value: 'abc'\n"
        ),
    ),
    ("count", "65", "--seed", "x"): (
        2,
        "",
        (
            "usage: circletriples count [-h] [--json] [--seed U64] c\n"
            "circletriples count: error: argument --seed: invalid int value: 'x'\n"
        ),
    ),
    ("factor-point", "3/5"): (
        2,
        "",
        (
            "usage: circletriples factor-point [-h] [--json] [--seed U64] s t\n"
            "circletriples factor-point: error: the following arguments are required: t\n"
        ),
    ),
    ("triples", "65", "--limit", "0"): (
        2,
        "",
        (
            "usage: circletriples triples [-h] [--json] [--seed U64] [--verify] [--limit N]\n"
            "                             c\n"
            "circletriples triples: error: argument --limit: expected a positive integer, got '0'\n"
        ),
    ),
    ("count", "65", "--js"): (
        0,
        '{"command": "count", "input": {"c": "65"}, "result": "2"}\n',
        "",
    ),
    ("triples", "65", "--ver", "--js"): (
        0,
        (
            '{"command": "triples", "input": {"c": "65", "verify": true}, "result": {"triples": [{"a": "16", "b": "63", "c": "65"}, {"a": "33", "b": "56", "c": "65"}], "verified": true}}\n'
        ),
        "",
    ),
    ("count", "65", "--seed=3"): (
        0,
        "2\n",
        "",
    ),
    ("count", "65", "--json"): (
        0,
        '{"command": "count", "input": {"c": "65"}, "result": "2"}\n',
        "",
    ),
    ("triples", "65", "--verify", "--limit", "1", "--json"): (
        0,
        (
            '{"command": "triples", "input": {"c": "65", "verify": true, "limit": "1"}, "result": {"triples": [{"a": "16", "b": "63", "c": "65"}], "verified": true}}\n'
        ),
        "",
    ),
    ("zeta", "13", "--json"): (
        0,
        '{"command": "zeta", "input": {"p": "13"}, "result": {"s": "-5/13", "t": "12/13"}}\n',
        "",
    ),
    ("pow", "5", "-2", "--json"): (
        0,
        (
            '{"command": "pow", "input": {"p": "5", "n": "-2"}, "result": {"point": {"s": "-7/25", "t": "24/25"}, "triple": {"a": "7", "b": "24", "c": "25"}}}\n'
        ),
        "",
    ),
    ("table", "2", "--json"): (
        0,
        (
            '{"command": "table", "input": {"n_max": "2"}, "result": [{"n": "1", "point": {"s": "3/5", "t": "4/5"}, "triple": {"a": "3", "b": "4", "c": "5"}}, {"n": "2", "point": {"s": "-7/25", "t": "24/25"}, "triple": {"a": "7", "b": "24", "c": "25"}}]}\n'
        ),
        "",
    ),
    ("factor-point", "-3/5", "4/5", "--json"): (
        0,
        (
            '{"command": "factor-point", "input": {"s": "-3/5", "t": "4/5"}, "result": {"unit_exp": "0", "terms": [{"p": "5", "e": "1"}]}}\n'
        ),
        "",
    ),
    ("project", "3/5", "-4/5", "--json"): (
        0,
        '{"command": "project", "input": {"s": "3/5", "t": "-4/5"}, "result": "1/3"}\n',
        "",
    ),
    ("unproject", "-1/2", "--json"): (
        0,
        '{"command": "unproject", "input": {"r": "-1/2"}, "result": {"s": "-4/5", "t": "-3/5"}}\n',
        "",
    ),
    ("oracle", "65", "--json"): (
        0,
        (
            '{"command": "oracle", "input": {"c": "65"}, "result": [{"a": "16", "b": "63", "c": "65"}, {"a": "33", "b": "56", "c": "65"}]}\n'
        ),
        "",
    ),
    ("selftest", "--json"): (
        0,
        (
            '{"command": "selftest", "input": {}, "result": [{"check": "enumeration_matches_oracle", "ok": true}, {"check": "two_squares_matches_search", "ok": true}, {"check": "factorization_roundtrip", "ok": true}, {"check": "projection_roundtrip", "ok": true}, {"check": "orbits_have_size_8", "ok": true}]}\n'
        ),
        "",
    ),
}
VALID = [argv for argv, (code, _, _) in CALLS.items() if code == 0]


def call(argv):
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse help text of Python 3.11")
@pytest.mark.parametrize("argv", list(CALLS), ids=" ".join)
def test_calls_are_unchanged(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    code = call(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == CALLS[argv]


@pytest.mark.parametrize("argv", VALID, ids=" ".join)
def test_a_valid_call_builds_one_parser(capsys, monkeypatch, argv):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert call(argv) == 0
    assert capsys.readouterr().out == CALLS[argv][1]
    assert len(built) == 1
