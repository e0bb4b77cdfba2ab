"""One pass of a workload in a fresh interpreter.

Usage: python3 worker.py SRC_DIR < job.json > report.json

The job holds the pass's argv lists, whether to trace, and where to write
the spans. Each argv goes to circletriples.cli.main in this process with
stdout and stderr captured, so interpreter start-up stays out of the
per-call times and is reported once, as the moment the CLI was ready.
The host-speed loop runs before the first invocation and after each one.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
import circletriples.cli  # noqa: E402

READY = time.monotonic()

import contextlib  # noqa: E402
import gzip  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

from hostspeed import reference_ns  # noqa: E402


def run_pass(argvs, tracer, keep_spans):
    cli = circletriples.cli
    calls = []
    refs = [reference_ns()]
    for i, argv in enumerate(argvs):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.call = i
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter_ns()
            try:
                rc = cli.main(list(argv))
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # a crash is one failed invocation, not a dead pass
                rc = "exception"
                err.write(traceback.format_exc())
            t1 = time.perf_counter_ns()
        calls.append({"rc": rc, "ns": t1 - t0, "out": out.getvalue(), "err": err.getvalue()})
        if tracer is not None and not keep_spans:
            tracer.spans.clear()
        refs.append(reference_ns())
    return calls, refs


def main():
    job = json.load(sys.stdin)
    tracer = None
    if job["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    calls, refs = run_pass(job["argvs"], tracer, keep_spans=bool(job["trace_file"]))
    report = {
        "ready": READY,
        "ref_ns": refs,
        "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "calls": calls,
    }
    if tracer is not None:
        report["totals"] = tracer.totals()
        if job["trace_file"]:
            with gzip.open(job["trace_file"], "wt", compresslevel=1) as fh:
                fh.write(json.dumps({"argvs": job["argvs"]}) + "\n")
                fh.write("call\tname\tstart_ns\tend_ns\tparent\n")
                fh.writelines("%d\t%s\t%d\t%d\t%d\n" % span for span in tracer.spans)
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main()
