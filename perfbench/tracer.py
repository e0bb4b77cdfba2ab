"""Per-layer spans around circletriples, installed from outside the program.

install() replaces each layer's public functions, and the methods listed
in METHODS, with wrappers that record a span (invocation, name, start,
end, parent) and add the span's self time, its duration minus its child
spans, to its layer. A function is replaced in every circletriples module
that holds it, because structure and oracle import names such as pt,
factorize, two_squares and divexact directly.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from math import isqrt

LAYER_OF_MODULE = {
    "circletriples.cli": "cli",
    "circletriples.structure": "structure",
    "circletriples.circle": "circle",
    "circletriples.exactmath": "exactmath",
    "circletriples.primes": "primes",
    "circletriples.oracle": "oracle",
    "circletriples._kernels_py": "oracle",
}
LAYERS = ("cli", "structure", "circle", "exactmath", "primes", "oracle")
TIME_METRICS = (
    *(f"{layer}.self_ms" for layer in LAYERS),
    "structure.enumerate_triples.us_per_triple",
    "primes.factorize.ms_per_call",
)

METHODS = {
    "circletriples.circle": {
        "CirclePoint": ("__post_init__", "__mul__", "inverse", "conjugate", "__pow__"),
        "GammaElement": ("apply", "compose"),
        "NormalizedTriple": ("__post_init__",),
    },
    "circletriples.exactmath": {
        "GaussianInt": ("__mul__", "__rmul__", "__pow__", "__divmod__"),
    },
}


def _note_triples(tracer, args, result):
    tracer.notes["triples"] += len(result)


def _note_scan(tracer, args, result):
    # iterations of the oracle's `while 2*a*a < c*c` scan, computed from c
    c = args[0]
    tracer.notes["scan_steps"] += isqrt((c * c - 1) // 2)


def _note_prime(tracer, args, result):
    tracer.two_squares_primes.add(args[0])


NOTES = {
    "structure.enumerate_triples": _note_triples,
    "oracle.brute_triples": _note_scan,
    "primes.two_squares": _note_prime,
}


class Tracer:
    """Spans and per-layer totals of one worker."""

    def __init__(self):
        self.call = 0  # invocation the next spans belong to
        self.spans: list = []
        self.stack: list[list[int]] = []  # [start, child ns, span index]
        self.self_ns: Counter = Counter()
        self.incl_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.notes: Counter = Counter()
        self.two_squares_primes: set[int] = set()

    def wrap(self, name: str, layer: str, fn):
        stack, spans, clock = self.stack, self.spans, time.perf_counter_ns
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [clock(), 0, len(spans)]
            parent = stack[-1][2] if stack else -1
            spans.append(None)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                self.self_ns[layer] += dur - frame[1]
                self.incl_ns[name] += dur
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += dur
                spans[frame[2]] = (self.call, name, frame[0], end, parent)
            if note is not None:
                note(self, args, result)
            return result

        return traced

    def totals(self) -> dict:
        return {
            "self_ns": dict(self.self_ns),
            "incl_ns": dict(self.incl_ns),
            "calls": dict(self.calls),
            "notes": dict(self.notes),
            "two_squares_primes": len(self.two_squares_primes),
        }


def install(tracer: Tracer) -> None:
    """Wrap every layer of the imported circletriples package."""
    wrappers = {}
    for modname, layer in LAYER_OF_MODULE.items():
        mod = sys.modules[modname]
        for name, fn in inspect.getmembers(mod, inspect.isfunction):
            if fn.__module__ == modname and not name.startswith("_"):
                wrappers[fn] = tracer.wrap(f"{layer}.{name}", layer, fn)
        for cls_name, methods in METHODS.get(modname, {}).items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                fn = cls.__dict__[meth]
                setattr(cls, meth, tracer.wrap(f"{layer}.{cls_name}.{meth}", layer, fn))
    for modname, mod in list(sys.modules.items()):
        if modname == "circletriples" or modname.startswith("circletriples."):
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, name, wrappers[value])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(totals: dict, invocations: int) -> dict[str, float]:
    """The per-invocation layer figures of one pass, from Tracer.totals()."""
    self_ns, incl, calls, notes = (totals[k] for k in ("self_ns", "incl_ns", "calls", "notes"))

    def per_op(name):
        return calls.get(name, 0) / invocations

    out = {f"{layer}.self_ms": self_ns.get(layer, 0) / invocations / 1e6 for layer in LAYERS}
    out.update(
        {
            "structure.zeta_power.calls": per_op("structure.zeta_power"),
            "structure.gaussian_factorize.calls": per_op("structure.gaussian_factorize"),
            "structure.enumerate_triples.us_per_triple": _ratio(
                incl.get("structure.enumerate_triples", 0) / 1e3, notes.get("triples", 0)
            ),
            "circle.mul.calls": per_op("circle.CirclePoint.__mul__"),
            "circle.pt.calls": per_op("circle.pt"),
            "circle.pt.images_per_call": _ratio(
                calls.get("circle.GammaElement.apply", 0), calls.get("circle.pt", 0)
            ),
            "exactmath.gauss_mul.calls": per_op("exactmath.GaussianInt.__mul__")
            + per_op("exactmath.GaussianInt.__rmul__"),
            "exactmath.gauss_divmod.calls": per_op("exactmath.GaussianInt.__divmod__"),
            "primes.factorize.calls": per_op("primes.factorize"),
            "primes.factorize.ms_per_call": _ratio(
                incl.get("primes.factorize", 0) / 1e6, calls.get("primes.factorize", 0)
            ),
            "primes.is_prime.calls": per_op("primes.is_prime"),
            "primes.two_squares.calls": per_op("primes.two_squares"),
            "primes.two_squares.calls_per_prime": _ratio(
                calls.get("primes.two_squares", 0), totals["two_squares_primes"]
            ),
            "oracle.brute_triples.calls": per_op("oracle.brute_triples"),
            "oracle.scan_steps": notes.get("scan_steps", 0) / invocations,
        }
    )
    return out
