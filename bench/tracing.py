"""Span tracing of the program's five layers, installed from outside it.

The tracer replaces public functions of ``exponents``, ``basisfuncs``,
``gram``, ``analysis`` and ``cli`` with wrappers, in every layer module that
holds the same function object (callers import names, so
``inghamlab.gram.eval_divided_difference`` is patched as well as its home).
``cho_solve`` is scipy's and is patched only where ``analysis`` imports it.
No file of the program changes.  A name the program no longer has is
skipped, and its metrics read 0.

Each wrapped call records one span (name, start, end, parent); spans stay in
memory and are written out when the run ends.
"""

from __future__ import annotations

import importlib
import statistics
import time
from contextlib import contextmanager

import numpy as np

LAYERS = ("exponents", "basisfuncs", "gram", "analysis", "cli")


def _n(matrix) -> int:
    return int(getattr(matrix, "entries", matrix).shape[0])


def _gram_span_name(args, kwargs) -> str:
    system = args[0] if args else kwargs["system"]
    return "gram.assemble_gram_dd" if type(system).__name__ == "DividedDifferenceSystem" else "gram.assemble_gram_exp"


def _dd_attrs(args, kwargs, result):
    nodes = args[0] if args else kwargs["nodes"]
    t_size = int(np.size(result))
    return {"t_size": t_size, "samples": int(np.size(nodes)) * t_size}


# (home layer, attribute, span name (or a function of the call's arguments),
#  span attributes from (args, kwargs, result), patch every layer holding it)
SPANS = [
    ("exponents", "generate_family", "exponents.generate_family", lambda a, k, r: {"family_size": len(r)}, True),
    ("exponents", "detect_chains", "exponents.detect_chains", None, True),
    ("basisfuncs", "eval_divided_difference", "basisfuncs.eval_divided_difference", _dd_attrs, True),
    ("gram", "assemble_gram", _gram_span_name, lambda a, k, r: {"n": _n(r)}, True),
    ("gram", "cross_inner_matrix", "gram.cross_inner_matrix", None, True),
    ("gram", "projection_defect_norms", "gram.projection_defect_norms", None, True),
    ("analysis", "extreme_eigenvalues", "analysis.extreme_eigenvalues", lambda a, k, r: {"n": _n(a[0])}, True),
    ("analysis", "frame_bound_sequence", "analysis.frame_bound_sequence", None, True),
    ("analysis", "conditioning_comparison", "analysis.conditioning_comparison", None, True),
    ("analysis", "run_trace_experiment", "analysis.run_trace_experiment", None, True),
    ("analysis", "defect_decay_fit", "analysis.defect_decay_fit", None, True),
    ("analysis", "defect_majorant", "analysis.defect_majorant", None, True),
    ("analysis", "cho_solve", "analysis.cho_solve", None, False),
    ("cli", "parse_config", "cli.parse_config", None, True),
    ("cli", "run", "cli.run", None, True),
]

# Counters without a span, so their time stays in the caller's self time:
# (home layer, attribute, counter name, amount from (args, kwargs, result)).
# A one-node divided difference is a plain exponential, not a simplex call.
COUNTERS = [
    ("basisfuncs", "_hermite_genocchi", "basisfuncs.simplex_calls", lambda a, k, r: int(np.size(a[0]) > 1)),
    ("gram", "oscillation_panel_rule", "gram.quad_nodes", lambda a, k, r: len(r[0])),
]


class Tracer:
    """Records spans and counters of one traced pass at a time."""

    def __init__(self):
        self.passes: list[dict] = []
        self.spans: list[dict] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._failures: list[BaseException] = []

    def begin_pass(self) -> None:
        self.spans, self.counters, self._stack, self._failures = [], {}, [], []

    def end_pass(self) -> dict:
        record = {"spans": self.spans, "counters": dict(self.counters)}
        record["counters"]["analysis.gridpoint_failures"] = len(self._failures)
        self.passes.append(record)
        return record

    def _note_failure(self, exc: BaseException) -> None:
        # count each grid point once: only a GridPointFailure not caused by
        # another, and each exception object once however many spans it crosses
        if type(exc).__name__ != "GridPointFailure" or any(e is exc for e in self._failures):
            return
        if type(exc.__cause__).__name__ != "GridPointFailure":
            self._failures.append(exc)

    def span(self, name, fn, attrs=None):
        def wrapper(*args, **kwargs):
            record = {
                "id": len(self.spans),
                "name": name if isinstance(name, str) else name(args, kwargs),
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(),
            }
            self.spans.append(record)
            self._stack.append(record["id"])
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record["error"] = type(exc).__name__
                self._note_failure(exc)
                raise
            finally:
                record["end"] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                record.update(attrs(args, kwargs, result))
            return result

        return wrapper

    def counter(self, name, fn, amount):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counters[name] = self.counters.get(name, 0) + amount(args, kwargs, result)
            return result

        return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Patch the layers for the duration of the block, then restore them."""
    modules = {name: importlib.import_module(f"inghamlab.{name}") for name in LAYERS}
    restore = []
    plan = [(home, attr, tracer.span(name, getattr(modules[home], attr), attrs), everywhere)
            for home, attr, name, attrs, everywhere in SPANS if hasattr(modules[home], attr)]
    plan += [(home, attr, tracer.counter(name, getattr(modules[home], attr), amount), True)
             for home, attr, name, amount in COUNTERS if hasattr(modules[home], attr)]
    try:
        for home, attr, wrapper, everywhere in plan:
            original = getattr(modules[home], attr)
            targets = modules.values() if everywhere else [modules[home]]
            for module in targets:
                if module.__dict__.get(attr) is original:
                    setattr(module, attr, wrapper)
                    restore.append((module, attr, original))
        yield tracer
    finally:
        for module, attr, original in reversed(restore):
            setattr(module, attr, original)


def layer_metrics(record: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its spans and counters."""
    spans = record["spans"]
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in spans:
        self_s[s["name"]] = self_s.get(s["name"], 0.0) + (s["end"] - s["start"] - child_time[s["id"]])
        calls[s["name"]] = calls.get(s["name"], 0) + 1

    def total(name, key, power=1):
        return sum(s.get(key, 0) ** power for s in spans if s["name"] == name)

    out = {}
    for span_name in self_s:
        out[f"{span_name}.s"] = self_s[span_name]
        out[f"{span_name}.self_s"] = self_s[span_name]
        out[f"{span_name}.calls"] = calls[span_name]
    out["analysis.eig_n3"] = total("analysis.extreme_eigenvalues", "n", 3)
    out["gram.gram_entries"] = total("gram.assemble_gram_exp", "n", 2)
    out["basisfuncs.dd_samples"] = total("basisfuncs.eval_divided_difference", "samples")
    out["exponents.family_size"] = total("exponents.generate_family", "family_size")
    out["gram.dd_profile_bytes"] = 16 * sum(
        s.get("t_size", 0) for s in spans
        if s["name"] == "basisfuncs.eval_divided_difference"
        and s["parent"] is not None and spans[s["parent"]]["name"] == "gram.assemble_gram_dd"
    )
    out.update(record["counters"])
    return out


def median_metrics(per_pass: list[dict], names) -> dict[str, float]:
    """Median over traced passes of each named metric; absent reads 0."""
    return {name: statistics.median(m.get(name, 0) for m in per_pass) for name in names}
