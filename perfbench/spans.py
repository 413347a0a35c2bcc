"""Span recording around the program's public functions, and the per-layer
metrics derived from the recorded spans.

The program itself is not changed: ``instrument`` replaces each function at
the module attribute its callers look it up by (``cli.evaluate_grid`` for the
CLI handlers, ``fieldmap.evaluate_grid`` for ``sweep`` and
``monte_carlo_rate``, and so on) with a wrapper that records a span.
Spans live in memory and are written as JSON lines when the process ends.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

SCHEMES = ("LPA", "LinearFDA", "RandomFDA", "OptimizedFDA")
# schemes whose phases are polynomial in the antenna index
POLYNOMIAL = ("LPA", "LinearFDA")


class Tracer:
    """Spans (name, start, end, parent) and counters of one process.

    ``counters["trace.overhead_ns"]`` accumulates the time the wrappers spend
    outside the calls they wrap.
    """

    def __init__(self):
        self.spans: List[dict] = []
        self.counters: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []

    def wrap(self, module, attr: str, name: str,
             describe: Optional[Callable] = None) -> None:
        """Record a span named ``name`` for every call of ``module.attr``.

        ``describe(args, kwargs, result)`` returns extra span fields.
        """
        inner = getattr(module, attr)

        @functools.wraps(inner)
        def wrapper(*args, **kwargs):
            entered = time.perf_counter_ns()
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            start = time.perf_counter_ns()
            try:
                result = inner(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
            span["start"], span["end"] = start * 1e-9, end * 1e-9
            if describe is not None:
                span.update(describe(args, kwargs, result))
            self.counters["trace.overhead_ns"] += time.perf_counter_ns() - entered - (end - start)
            return result

        setattr(module, attr, wrapper)

    def count(self, module, attr: str, name: str) -> None:
        """Count the calls of ``module.attr`` without recording spans."""
        inner = getattr(module, attr)

        @functools.wraps(inner)
        def wrapper(*args, **kwargs):
            entered = time.perf_counter_ns()
            self.counters[name] += 1
            start = time.perf_counter_ns()
            result = inner(*args, **kwargs)
            end = time.perf_counter_ns()
            self.counters["trace.overhead_ns"] += time.perf_counter_ns() - entered - (end - start)
            return result

        setattr(module, attr, wrapper)

    def dump(self, path: str) -> None:
        """Append this process's spans and counters to a JSON-lines file."""
        pid = os.getpid()
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(span, pid=pid)) + "\n")
            for name, value in sorted(self.counters.items()):
                fh.write(json.dumps({"pid": pid, "counter": name, "value": value}) + "\n")


def instrument(tracer: Tracer) -> None:
    """Wrap the layer boundaries of fdacovert at every binding its callers use."""
    from fdacovert import cli, ellipse, fieldmap, schemes

    def evaluate(args, kwargs, result):
        g, plan = args[0], args[1]
        return {"scheme": plan.scheme, "cells": result.spec.n_cells, "antennas": g.n_antennas}

    def mc(args, kwargs, result):
        return {"samples": result.n_samples}

    def plan_scheme(args, kwargs, result):
        return {"scheme": result.scheme}

    def subcommand(args, kwargs, result):
        return {"subcommand": args[0][0], "exit": result}

    def emit(args, kwargs, result):
        path, metadata = args[0], args[3]
        with open(path, "rb") as fh:
            data = fh.read()
        # one line per metadata key, one header line, then one line per row
        return {"bytes": len(data), "rows": data.count(b"\n") - len(metadata) - 1}

    tracer.wrap(cli, "main", "cli.main", subcommand)
    tracer.wrap(cli, "load_config", "config.load")
    for module in (cli, fieldmap):
        tracer.wrap(module, "build_plan", "schemes.plan", plan_scheme)
        tracer.wrap(module, "evaluate_grid", "fieldmap.evaluate", evaluate)
        tracer.wrap(module, "extract_noncovert", "fieldmap.extract")
    tracer.wrap(cli, "linear_fda_plan", "schemes.plan", plan_scheme)
    for module in (cli, schemes):
        tracer.wrap(module, "optimize_offsets", "ellipse.optimize")
    tracer.count(ellipse, "objective_and_gradient", "ellipse.objective_evals")
    tracer.wrap(cli, "sweep", "fieldmap.sweep")
    tracer.wrap(cli, "monte_carlo_rate", "fieldmap.mc", mc)
    tracer.wrap(cli, "emit_csv", "cli.emit", emit)


# ---------------------------------------------------------------- aggregation


def load(path: str):
    """(spans, counters) from a JSON-lines trace file."""
    spans, counters = [], defaultdict(int)
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if "counter" in rec:
                counters[rec["counter"]] += rec["value"]
            else:
                spans.append(rec)
    return spans, counters


def layer_metrics(spans: List[dict], counters: Dict[str, int], rounds: int = 1) -> Dict[str, float]:
    """Per-layer times and counts of one round of a workload.

    A span's self time is its duration minus the durations of its child
    spans; children never overlap, as every span is recorded on the thread
    that calls into the program.  Times and counts are averaged over
    ``rounds`` rounds of the same invocations.
    """
    child_time: Dict[tuple, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[(s["pid"], s["parent"])] += s["end"] - s["start"]

    def of(name):
        return [s for s in spans if s["name"] == name]

    def total(name, self_only=False, **match):
        return sum(
            s["end"] - s["start"] - (child_time[(s["pid"], s["id"])] if self_only else 0.0)
            for s in of(name) if all(s.get(k) == v for k, v in match.items())
        ) / rounds

    def count(name):
        return len(of(name)) // rounds

    def field_sum(name, key):
        return sum(s[key] for s in of(name)) // rounds

    evaluate_s, emit_s = total("fieldmap.evaluate"), total("cli.emit")
    evals = sum(s["cells"] * s["antennas"] for s in of("fieldmap.evaluate")) // rounds
    emit_bytes = field_sum("cli.emit", "bytes")
    m = {
        "config.load_s": total("config.load"),
        "schemes.plan_s": total("schemes.plan"),
        "schemes.plans": count("schemes.plan"),
        "ellipse.optimize_s": total("ellipse.optimize"),
        "ellipse.solves": count("ellipse.optimize"),
        "ellipse.objective_evals": counters.get("ellipse.objective_evals", 0) // rounds,
        "fieldmap.evaluate_s": evaluate_s,
    }
    for scheme in SCHEMES:
        m[f"fieldmap.evaluate_s.{scheme}"] = total("fieldmap.evaluate", scheme=scheme)
    m["fieldmap.evaluate_s.polynomial"] = sum(m[f"fieldmap.evaluate_s.{s}"] for s in POLYNOMIAL)
    m["fieldmap.evaluate_s.nonpolynomial"] = evaluate_s - m["fieldmap.evaluate_s.polynomial"]
    m.update({
        "fieldmap.maps": count("fieldmap.evaluate"),
        "fieldmap.cells": field_sum("fieldmap.evaluate", "cells"),
        "fieldmap.cell_antenna_evals": evals,
        "fieldmap.cell_antenna_rate": evals / evaluate_s / 1e6 if evaluate_s > 0 else 0.0,
        "fieldmap.extract_s": total("fieldmap.extract"),
        "fieldmap.mc_s": total("fieldmap.mc", self_only=True),
        "fieldmap.mc_samples": field_sum("fieldmap.mc", "samples"),
        "cli.emit_s": emit_s,
        "cli.emit_rows": field_sum("cli.emit", "rows"),
        "cli.emit_bytes": emit_bytes,
        "cli.emit_mb_per_s": emit_bytes / emit_s / 1e6 if emit_s > 0 else 0.0,
        "cli.self_s": total("cli.main", self_only=True),
        "trace.overhead_s": counters.get("trace.overhead_ns", 0) * 1e-9 / rounds,
    })
    return m
