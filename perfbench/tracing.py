"""In-memory span tracer for the benchmark's traced runs.

A span records (name, start, end, parent, op id) plus a few attributes used
for counts.  The tracer wraps the public functions of the biphoton modules and
numpy's Gauss-Legendre rule builder, which stands in for the quadrature-rule
layer.  It replaces every binding of each wrapped function in every loaded
module, so names imported with ``from ... import`` are traced too.

Self time of a span is its duration minus the durations of its child spans.
Self times are summed per bucket: the span names in ``BUCKETS`` and the
schemes functions start their own bucket, and any other span falls into its
parent's bucket, or into its module's layer when its parent is the op itself.
Every span lands in exactly one bucket, so the buckets sum to the op's traced
wall time.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import threading
import time
from collections import defaultdict
from statistics import mean

import numpy.polynomial.legendre

LAYERS = ("cavity", "spectrum", "schemes", "units", "registry", "reporting", "cli")
RULES = (numpy.polynomial.legendre, "leggauss", "rules.leggauss")

BUCKETS = {
    "op": "bench",
    "rules.leggauss": "rules.leggauss",
    "spectrum.spectral_amplitude": "spectrum.amplitude",
    "spectrum.correlation_function": "spectrum.correlation",
    "spectrum.two_photon_decay_rate": "spectrum.decay_rate",
    "cavity.theta_curve": "cavity.quadrature",
    "cavity.theta_factor_quadrature": "cavity.quadrature",
    "cavity.theta_factor_mc": "cavity.mc",
    "reporting.repro_report": "reporting.repro",
    "reporting.run_scenario": "reporting.run",
}


# span name -> attributes taken from the bound arguments and the result
ANNOTATE = {
    "rules.leggauss": lambda a, r: {"n": int(a["deg"])},
    "spectrum.spectral_amplitude":
        lambda a, r: {"key": f"{a['provider']!r}/{r.omega_au.size}"},
    "spectrum.correlation_function":
        lambda a, r: {"cells": r.t_au.size * a["spectrum"].omega_au.size},
    "cavity.theta_factor_quadrature":
        lambda a, r: {"key": repr((a["s"], a["rel_tol"], a["convention"], a["literal"]))},
    "cavity.theta_factor_mc": lambda a, r: {"samples": int(a["n_samples"])},
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op_id", "attrs")

    def __init__(self, name, parent, op_id):
        self.name, self.parent, self.op_id = name, parent, op_id
        self.start = self.end = 0.0
        self.attrs = None

    def as_list(self):
        return [self.name, self.start, self.end, self.parent, self.op_id, self.attrs]


class Tracer:
    """Wraps the biphoton public functions; ``install`` and ``uninstall``
    switch every binding between the wrapper and the original.

    Construct it after every module that binds a traced function is imported.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.op_id = None
        self._local = threading.local()
        targets = [RULES]
        for layer in LAYERS:
            module = sys.modules[f"biphoton.{layer}"]
            for attr, fn in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    targets.append((module, attr, f"{layer}.{attr}"))
        wrappers = {}
        for module, attr, name in targets:
            fn = getattr(module, attr)
            wrappers[id(fn)] = (fn, self._wrap(name, fn))
        # every binding of a wrapped function, wherever it was imported to
        self.bindings = []
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if namespace is None:
                continue
            for attr, value in list(namespace.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self.bindings.append((module, attr) + hit)

    def install(self):
        for module, attr, _fn, wrapper in self.bindings:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, fn, _wrapper in self.bindings:
            setattr(module, attr, fn)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        stack = self._stack()
        span = Span(name, stack[-1] if stack else None, self.op_id)
        stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack().pop()

    def _wrap(self, name, fn):
        annotate = ANNOTATE.get(name)
        signature = inspect.signature(fn) if annotate else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if annotate:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs = annotate(bound.arguments, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def op(self, op_id):
        """Root span of one operation; spans opened inside carry ``op_id``."""
        self.op_id = op_id
        span = self._open("op")
        try:
            yield
        finally:
            self._close(span)
            self.op_id = None


def self_times(spans) -> list[float]:
    children = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            children[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, children)]


def bucket_names(spans) -> list[str]:
    """Bucket of each span; parents precede children in ``spans``."""
    out = []
    for s in spans:
        layer = s.name.split(".", 1)[0]
        if s.name in BUCKETS:
            bucket = BUCKETS[s.name]
        elif layer == "schemes" or s.parent is None or spans[s.parent].name == "op":
            bucket = layer
        else:
            bucket = out[s.parent]
        out.append(bucket)
    return out


def bucket_self_times(spans, op_id) -> dict[str, float]:
    """Self time per bucket of one op; the values sum to the op's root span."""
    totals: dict[str, float] = defaultdict(float)
    for s, t, b in zip(spans, self_times(spans), bucket_names(spans)):
        if s.op_id == op_id:
            totals[b] += t
    return dict(totals)


def _ratio(distinct, calls):
    return distinct / calls if calls else 1.0


def op_metrics(spans, op_id) -> dict[str, float]:
    """Per-layer counts and self times of one op."""
    mine = [s for s in spans if s.op_id == op_id]
    by_name = defaultdict(list)   # attributes of the calls that returned
    for s in mine:
        if s.attrs is not None:
            by_name[s.name].append(s.attrs)
    selfs = bucket_self_times(spans, op_id)
    rules = [a["n"] for a in by_name["rules.leggauss"]]
    amps = [a["key"] for a in by_name["spectrum.spectral_amplitude"]]
    cells = [a["cells"] for a in by_name["spectrum.correlation_function"]]
    quads = [a["key"] for a in by_name["cavity.theta_factor_quadrature"]]
    return {
        "rules.leggauss_calls": len(rules),
        "rules.leggauss_nodes": sum(rules),
        "rules.leggauss_s": selfs.get("rules.leggauss", 0.0),
        "rules.distinct_ratio": _ratio(len(set(rules)), len(rules)),
        "spectrum.amplitude_calls": len(amps),
        "spectrum.amplitude_self_s": selfs.get("spectrum.amplitude", 0.0),
        "spectrum.amplitude_distinct_ratio": _ratio(len(set(amps)), len(amps)),
        "spectrum.correlation_calls": len(cells),
        "spectrum.correlation_self_s": selfs.get("spectrum.correlation", 0.0),
        "spectrum.correlation_cells": sum(cells),
        "spectrum.correlation_bytes": 16 * max(cells, default=0),
        "spectrum.decay_rate_calls":
            sum(1 for s in mine if s.name == "spectrum.two_photon_decay_rate"),
        "spectrum.decay_rate_self_s": selfs.get("spectrum.decay_rate", 0.0),
        "cavity.quadrature_calls": len(quads),
        "cavity.quadrature_self_s": selfs.get("cavity.quadrature", 0.0),
        "cavity.quadrature_distinct_ratio": _ratio(len(set(quads)), len(quads)),
        "cavity.mc_samples": sum(a["samples"] for a in by_name["cavity.theta_factor_mc"]),
        "cavity.mc_self_s": selfs.get("cavity.mc", 0.0),
        "schemes.calls": sum(1 for s in mine if s.name.startswith("schemes.")),
        "schemes.self_s": selfs.get("schemes", 0.0),
        "reporting.repro_self_s": selfs.get("reporting.repro", 0.0),
        "reporting.run_self_s": selfs.get("reporting.run", 0.0),
    }


def layer_metrics(spans, op_ids) -> dict[str, float]:
    """Mean over ``op_ids`` of each per-op metric; the largest temporary is a max."""
    per_op = [op_metrics(spans, op_id) for op_id in op_ids]
    out = {k: mean(m[k] for m in per_op) for k in per_op[0]}
    out["spectrum.correlation_bytes"] = max(m["spectrum.correlation_bytes"] for m in per_op)
    return out
