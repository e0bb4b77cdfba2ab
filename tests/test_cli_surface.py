"""The CLI's help and usage errors, byte for byte, and the cost of parsing.

The expected texts were captured from the CLI as it stood before `main`
built only the subparser a call names; they must not change with that.
argparse words its help differently between Python versions, so the texts
are those of Python 3.11 and the comparison runs only there.
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


def test_count_builds_at_most_two_parsers(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["count", "65"]) == 0
    assert capsys.readouterr().out == "2\n"
    assert len(built) <= 2
