"""End-to-end and per-layer benchmark of the circletriples CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run repeats whole passes over the workload's seeded input list until S
seconds have elapsed and at least MIN_INVOCATIONS calls were made. Each
pass runs in its own fresh worker process, one at a time, so nothing
computed in one pass helps the next, just as each real CLI call starts in
a new process. Times are scaled to nominal host speed (hostspeed.py).
After the timed part every output is checked against an independent
computation. The last line of stdout is one JSON object: correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones; with --trace 1 they are the per-layer figures of a
traced run. A summary, with raw times beside the scaled ones, goes to
stderr.
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import hostspeed
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PASS_TIMEOUT_S = 60
# enough invocations that ten or more lie beyond the 90th percentile
MIN_INVOCATIONS = 100

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "cli.self_ms": "ms/op",
    "structure.self_ms": "ms/op",
    "structure.zeta_power.calls": "calls/op",
    "structure.gaussian_factorize.calls": "calls/op",
    "structure.enumerate_triples.us_per_triple": "us/triple",
    "circle.self_ms": "ms/op",
    "circle.mul.calls": "calls/op",
    "circle.pt.calls": "calls/op",
    "circle.pt.images_per_call": "images/call",
    "exactmath.self_ms": "ms/op",
    "exactmath.gauss_mul.calls": "calls/op",
    "exactmath.gauss_divmod.calls": "calls/op",
    "primes.self_ms": "ms/op",
    "primes.factorize.calls": "calls/op",
    "primes.factorize.ms_per_call": "ms/call",
    "primes.is_prime.calls": "calls/op",
    "primes.two_squares.calls": "calls/op",
    "primes.two_squares.calls_per_prime": "calls/prime",
    "oracle.self_ms": "ms/op",
    "oracle.brute_triples.calls": "calls/op",
    "oracle.scan_steps": "calc-steps/op",
}


def run_pass(argvs, trace: bool, trace_file: Path | None) -> dict:
    """One pass in a fresh worker; its report, with setup_s at nominal speed."""
    job = {"argvs": argvs, "trace": trace, "trace_file": str(trace_file) if trace_file else None}
    ref_before = hostspeed.reference_ns()
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(SRC)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=ROOT,
    )
    try:
        out, err = proc.communicate(json.dumps(job).encode(), timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"a pass took longer than {PASS_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {err.decode()[-2000:]}")
    report = json.loads(out)
    report["raw_setup_s"] = report["ready"] - start
    report["setup_s"] = hostspeed.scaled(report["raw_setup_s"], ref_before, report["ref_ns"][0])
    return report


def check_outputs(name: str, cases, passes) -> tuple[int, list[str]]:
    """Failed invocations, and the wrong answers among the others.

    Each distinct (input, output) pair is checked once; a pass that
    printed the same bytes as an earlier one for an input needs no
    second check.
    """
    check = workloads.checker(name)
    failed = 0
    wrong = []
    seen = set()
    for report in passes:
        for case, call in zip(cases, report["calls"]):
            if call["rc"] != 0:
                failed += 1
                continue
            key = (case.argv, call["out"])
            if key in seen:
                continue
            seen.add(key)
            try:
                check(case, json.loads(call["out"]))
            except (checks.WrongAnswer, ValueError, LookupError, TypeError, AttributeError) as exc:
                wrong.append(f"{' '.join(case.argv)[:80]}: {type(exc).__name__}: {exc}")
    return failed, wrong


def call_ns(report, at_nominal_speed: bool = True) -> list[float]:
    """Per-invocation wall times of a pass, by default at nominal host speed."""
    refs = report["ref_ns"]
    return [
        hostspeed.scaled(call["ns"], refs[i], refs[i + 1]) if at_nominal_speed else call["ns"]
        for i, call in enumerate(report["calls"])
    ]


def end_to_end(passes, at_nominal_speed: bool = True) -> dict[str, float]:
    ns = [x for r in passes for x in call_ns(r, at_nominal_speed)]
    setup = "setup_s" if at_nominal_speed else "raw_setup_s"
    return {
        "ops_per_s": len(ns) / (sum(ns) / 1e9),
        "latency_p50_ms": statistics.median(ns) / 1e6,
        "latency_p90_ms": statistics.quantiles(ns, n=10)[8] / 1e6,
        "setup_s": statistics.median(r[setup] for r in passes),
        "peak_rss_mb": max(r["max_rss_kb"] for r in passes) / 1024,
    }


def per_layer(passes, n_cases: int) -> dict[str, float]:
    """Median over passes of each layer figure; times at nominal host speed."""
    rows = []
    for r in passes:
        row = tracer.layer_metrics(r["totals"], n_cases)
        speed = hostspeed.NOMINAL_NS / statistics.median(r["ref_ns"])
        for name in tracer.TIME_METRICS:
            row[name] *= speed
        rows.append(row)
    return {name: statistics.median(row[name] for row in rows) for name in LAYER_UNITS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "circletriples" / "cli.py").is_file():
        print(f"error: no circletriples source under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(SRC / "circletriples", quiet=1)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    cases = workloads.cases_for(args.workload, args.seed)
    argvs = [list(case.argv) for case in cases]
    passes = []
    start = time.monotonic()
    while len(passes) * len(cases) < MIN_INVOCATIONS or time.monotonic() - start < args.seconds:
        trace_file = OUT / f"{tag}.spans.jsonl.gz" if args.trace and not passes else None
        passes.append(run_pass(argvs, bool(args.trace), trace_file))
    wall_s = time.monotonic() - start

    failed, wrong = check_outputs(args.workload, cases, passes)
    nominal, raw = end_to_end(passes), end_to_end(passes, at_nominal_speed=False)
    if args.trace:
        values, units = per_layer(passes, len(cases)), LAYER_UNITS
    else:
        values, units = nominal, END_TO_END_UNITS
    result = {
        "correct": not wrong,
        "attempted": len(cases) * len(passes),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    summary = [
        f"{args.workload} seed={args.seed} trace={args.trace}: {len(passes)} passes x "
        f"{len(cases)} invocations in {wall_s:.1f} s; primes reuse share "
        f"{workloads.reuse_share(cases):.3f}",
        *(
            f"  {k:15s} nominal {nominal[k]:10.4f}  raw {raw[k]:10.4f}"
            for k in ("ops_per_s", "latency_p50_ms", "latency_p90_ms", "setup_s")
        ),
        *(f"WRONG {w}" for w in wrong[:10]),
    ]
    print("\n".join(summary), file=sys.stderr)
    (OUT / f"{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
