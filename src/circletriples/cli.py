"""Command-line interface.

Each _cmd_* handler computes, and returns (payload, text lines) or
(payload, text lines, exit status). `main` is the one writer of stdout: it
prints the text lines, or with --json one document {"command", "input",
"result"} whose flags are booleans and whose numbers are all decimal
strings, so that exactness survives any JSON parser. --seed is accepted
so that existing calls keep working, but has no effect: every
computation is deterministic. Exit codes: 0 success, 1 verification
mismatch or selftest failure, 2 usage or domain error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction

from . import circle, oracle, primes, structure
from .circle import CirclePoint, NormalizedTriple


# argparse reads a token as a negative number, not an option, only when it
# matches its parser's _negative_number_matcher, which knows integers and
# decimals but not "-4/5". The rational positionals widen it to anything
# that starts with "-" and a digit; no option here does.
_NEGATIVE_NUMBER = re.compile(r"-\.?\d")


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}")


def _json(value):
    """The --json form of a payload; bools and None stay, numbers turn to str."""
    if isinstance(value, dict):
        return {k: _json(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_json(v) for v in value]
    if isinstance(value, CirclePoint):
        return {"s": str(value.s), "t": str(value.t)}
    if isinstance(value, NormalizedTriple):
        return {"a": str(value.a), "b": str(value.b), "c": str(value.c)}
    if value is None or isinstance(value, bool):
        return value
    return str(value)


def _cmd_count(args):
    n = structure.count_triples(args.c)
    return n, [n]


def _cmd_triples(args):
    # the oracle first, so that a c beyond its bound is refused at once
    expected = oracle.brute_triples(args.c) if args.verify else None
    triples = structure.enumerate_triples(args.c)
    shown = triples[: args.limit]
    if not args.verify:
        return {"triples": shown}, shown
    verified = triples == expected
    if not verified:
        print(f"verification failed for c={args.c}", file=sys.stderr)
    return {"triples": shown, "verified": verified}, shown, 0 if verified else 1


def _cmd_zeta(args):
    x = structure.zeta_p(args.p)
    return x, [x]


def _refuse_unprintable(command: str, p: int, k: int) -> None:
    """Refuse p**k, the longest integer `command` prints, before computing
    anything, when it has more digits than Python converts to text.
    """
    limit = sys.get_int_max_str_digits()  # 0: no limit
    # p**k has about k*log10(p) + 1 digits; the float decides it unless it
    # lies within 1 of the limit, where p**k costs little to compare exactly
    digits = k * math.log10(p)
    if limit and digits > limit - 1 and (digits > limit + 1 or p**k >= 10**limit):
        raise ValueError(
            f"{command}: {p}**{k} would have more than {limit} decimal digits,"
            f" the limit of sys.get_int_max_str_digits()"
        )


def _cmd_pow(args):
    _refuse_unprintable("pow", args.p, abs(args.n))
    x = structure.zeta_power(args.p, args.n)
    t = None if circle.is_unit(x) else circle.pt(x)
    return {"point": x, "triple": t}, [x, "unit" if t is None else t]


def _cmd_table(args):
    seed = NormalizedTriple(3, 4, 5)
    _refuse_unprintable("table", seed.c, args.n_max)
    rows = structure.powers_table(seed, args.n_max)
    payload = [{"n": n, "point": x, "triple": t} for n, x, t in rows]
    return payload, (f"{n} {x} {t}" for n, x, t in rows)


def _cmd_factor_point(args):
    f = structure.factor_point(CirclePoint(args.s, args.t))
    payload = {"unit_exp": f.unit_exp, "terms": [{"p": p, "e": e} for p, e in f.terms]}
    return payload, [f"unit i^{f.unit_exp}"] + [f"{p} {e}" for p, e in f.terms]


def _cmd_project(args):
    r = circle.stereo_project(CirclePoint(args.s, args.t))
    return r, [r]


def _cmd_unproject(args):
    x = circle.stereo_unproject(args.r)
    return x, [x]


def _cmd_oracle(args):
    triples = oracle.brute_triples(args.c)
    return triples, triples


def _require(ok: bool, what) -> None:
    # a raise rather than an assert, so that the checks still run under -O
    if not ok:
        raise AssertionError(what)


def _cmd_selftest(args):
    from random import Random

    def enumeration_matches_oracle():
        for c in range(1, 301):
            expected = oracle.brute_triples(c)
            _require(structure.enumerate_triples(c) == expected, c)
            _require(structure.count_triples(c) == len(expected), c)

    def two_squares_matches_search():
        for p in primes.primes_below(2000):
            if p % 4 == 1:
                _require(tuple(primes.two_squares(p)) == oracle.exhaustive_two_squares(p), p)

    def factorization_roundtrip():
        rng = Random(7)
        pool = [p for p in primes.primes_below(200) if p % 4 == 1]
        for _ in range(50):
            ps = sorted(rng.sample(pool, rng.randint(0, 3)))
            terms = tuple((p, rng.choice([-3, -2, -1, 1, 2, 3])) for p in ps)
            f = structure.BasisFactorization(rng.randrange(4), terms)
            _require(structure.factor_point(structure.recombine(f)) == f, f)

    def projection_roundtrip():
        rng = Random(11)
        for _ in range(200):
            r = Fraction(rng.randint(-500, 500), rng.randint(1, 500))
            _require(circle.stereo_project(circle.stereo_unproject(r)) == r, r)

    def orbits_have_size_8():
        for x in oracle.brute_rational_points(100):
            if not circle.is_unit(x):
                _require(len(circle.gamma_orbit(x)) == 8, x)

    results, lines = [], []
    for check in (
        enumeration_matches_oracle,
        two_squares_matches_search,
        factorization_roundtrip,
        projection_roundtrip,
        orbits_have_size_8,
    ):
        name = check.__name__
        try:
            check()
            ok, line = True, f"ok {name}"
        except AssertionError as exc:
            ok, line = False, f"FAIL {name}: {exc}"
        results.append({"check": name, "ok": ok})
        lines.append(line)
    return results, lines, 0 if all(r["ok"] for r in results) else 1


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


_HYPOTENUSE = [("c", {"type": _positive_int})]
_POINT = [("s", {"type": _fraction}), ("t", {"type": _fraction})]

# name -> (help, handler, arguments); an argument is (name or flag, add_argument keywords)
_COMMANDS = {
    "count": ("number of triples with hypotenuse c", _cmd_count, _HYPOTENUSE),
    "triples": (
        "enumerate triples with hypotenuse c",
        _cmd_triples,
        _HYPOTENUSE
        + [
            ("--verify", {"action": "store_true", "help": "cross-check against the brute-force oracle"}),
            ("--limit", {"type": _positive_int, "metavar": "N", "help": "print at most N rows"}),
        ],
    ),
    "zeta": (
        "basis circle point for a prime p = 1 (mod 4)",
        _cmd_zeta,
        [("p", {"type": _positive_int})],
    ),
    "pow": (
        "n-th power of the basis point for p",
        _cmd_pow,
        [("p", {"type": _positive_int}), ("n", {"type": int})],
    ),
    "table": (
        "powers of the (3,4,5) point and their triples",
        _cmd_table,
        [("n_max", {"type": _positive_int})],
    ),
    "factor-point": ("basis factorization of a circle point", _cmd_factor_point, _POINT),
    "project": ("stereographic projection of a circle point", _cmd_project, _POINT),
    "unproject": (
        "circle point of a rational projection value",
        _cmd_unproject,
        [("r", {"type": _fraction})],
    ),
    "oracle": ("brute-force triples with hypotenuse c", _cmd_oracle, _HYPOTENUSE),
    "selftest": ("run the bounded invariant suite", _cmd_selftest, []),
}


def _add_command(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """Give `parser` the options and arguments of the command `name`."""
    _, handler, arguments = _COMMANDS[name]
    parser.add_argument("--json", action="store_true", help="emit a JSON document")
    parser.add_argument("--seed", type=int, metavar="U64", help="accepted; has no effect")
    for flag, options in arguments:
        parser.add_argument(flag, **options)
        if options.get("type") is _fraction:
            parser._negative_number_matcher = _NEGATIVE_NUMBER
    parser.set_defaults(command=name, func=handler)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser with all ten commands, for help and usage errors.

    `main` parses a call that names a command with that command's parser
    alone, since building all ten would be most of a short call's cost; it
    turns here for help, a missing or unknown command, and tokens the
    command does not take, so those print the top-level usage.
    """
    parser = argparse.ArgumentParser(
        prog="circletriples",
        description="Count and enumerate normalized Pythagorean triples via the rational unit circle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_text), name)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args, extra = None, argv
    if argv and argv[0] in _COMMANDS:
        parser = argparse.ArgumentParser(prog=f"circletriples {argv[0]}")
        args, extra = _add_command(parser, argv[0]).parse_known_args(argv[1:])
    if args is None or extra:
        args = build_parser().parse_args(argv)
    try:
        payload, lines, *status = args.func(args)
        if args.json:
            echo = {
                k: v
                for k, v in vars(args).items()
                if k not in ("command", "func", "json", "seed") and v is not None
            }
            print(json.dumps(_json({"command": args.command, "input": echo, "result": payload})))
        else:
            for line in lines:
                print(line)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return status[0] if status else 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
