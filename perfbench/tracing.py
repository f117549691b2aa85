"""Tracing hsrfusion from outside: spans around its public functions.

The program is not edited. Every public function of the traced layers is
wrapped at every module-level name it is bound under (so an intra-module
call such as ``fileio.save_generated_scene -> write_matrix`` and a
cross-module one such as ``experiment -> spatial_decimate`` are both
seen), and every public method of the layers' classes is wrapped on its
class. Spans stay in memory as tuples and are written out at the end.
"""

import functools
import inspect
import json
import os
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("model", "scenegen", "solver", "bounds", "fileio", "cli", "experiment")
OP_SPAN = "bench.op"
SETUP_OP = -1

# Counts recorded at a span's boundary, from its arguments and result.
COUNTERS = {
    "fileio.write_matrix": lambda args, result: {
        "cells": int(np.size(args[1])), "bytes": os.path.getsize(args[0])},
    "fileio.write_spatial_response": lambda args, result: {
        "bytes": os.path.getsize(args[0])},
    "fileio.write_json": lambda args, result: {"bytes": os.path.getsize(args[0])},
    "fileio.read_matrix": lambda args, result: {"cells": int(result.size)},
    # Computed, not measured: the dense L x Lh float64 matrix the call forms.
    "model.SpatialResponse.to_dense": lambda args, result: {
        "bytes": 8 * args[0].sr_pixel_count * args[0].hs_pixel_count},
    "scenegen.generate_scene": lambda args, result: {"draws": result.draws},
    "solver.solve_coupled": lambda args, result: {
        "iterations": result.iterations,
        "converged": result.termination != "max_iterations"},
}


def package_modules(package="hsrfusion"):
    """The loaded modules of a package, the package itself included."""
    prefix = package + "."
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(prefix))]


class Patcher:
    """Rebinds names in a set of modules and classes; undo() restores them."""

    def __init__(self, modules):
        self.modules = modules
        self._saved = []

    def rebind(self, original, replacement):
        """Point every module-level name bound to ``original`` at ``replacement``."""
        for module in self.modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    self.set(module, name, replacement)

    def set(self, owner, name, value):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def undo(self):
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


class Tracer:
    """Records (name, start, end, parent, op, counts) spans in memory."""

    def __init__(self):
        self.spans = []
        self.enabled = True
        self._stack = []
        self._op = SETUP_OP

    def wrap(self, name, func):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.enabled:
                return func(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self._op, None)
            if counter is not None:
                spans[index] = (name, start, end, parent, self._op, counter(args, result))
            return result

        # Not functools.wraps: a wrapper must not claim the wrapped
        # function's __module__, or install() would take it for an original.
        return functools.update_wrapper(
            traced, func, assigned=("__name__", "__qualname__", "__doc__"))

    def install(self, patcher):
        """Wrap the public functions and methods of every traced layer."""
        wrapped = {}
        for module in patcher.modules:
            layer = module.__name__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for name, value in list(vars(module).items()):
                if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value) and value not in wrapped:
                    wrapped[value] = self.wrap(f"{layer}.{name}", value)
                    patcher.rebind(value, wrapped[value])
                elif inspect.isclass(value):
                    for method_name, method in list(vars(value).items()):
                        if not method_name.startswith("_") and inspect.isfunction(method):
                            patcher.set(value, method_name, self.wrap(
                                f"{layer}.{value.__name__}.{method_name}", method))

    @contextmanager
    def op(self, op_id):
        """Root span of one op; every layer span inside it is its descendant."""
        self._op = op_id
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (OP_SPAN, start, end, -1, op_id, None)
            self._op = SETUP_OP

    @contextmanager
    def paused(self):
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span))
                handle.write("\n")


def self_times(spans):
    """Per span: its duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, op, counts in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - child[i] for i, (_, start, end, *_) in enumerate(spans)]


def per_op(spans):
    """{op: {name: {"calls", "self_s", "total_s", <count>: sum}}}."""
    selfs = self_times(spans)
    out = {}
    for span, self_s in zip(spans, selfs):
        name, start, end, _, op, counts = span
        entry = out.setdefault(op, {}).setdefault(
            name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += self_s
        entry["total_s"] += end - start
        for key, value in (counts or {}).items():
            entry[key] = entry.get(key, 0) + value
    return out


def _median(values):
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, overhead_frac):
    """Per-layer figures of a traced run, as medians over its ops.

    Set-up spans (op SETUP_OP) only feed the per-call cost of
    build_spatial_response, which set-up performs on the solver workloads.
    """
    table = per_op(spans)
    ops = [table[op] for op in sorted(table) if op != SETUP_OP]

    def field(name, key):
        return [op.get(name, {}).get(key, 0) for op in ops]

    def med(name, key="self_s"):
        return _median(field(name, key))

    def fleet(name, key):
        return sum(op.get(name, {}).get(key, 0) for op in table.values())

    solve = "solver.solve_coupled"
    proj = "solver.project_columns_to_simplex"
    out = {
        "model.spatial_decimate.calls": med("model.spatial_decimate", "calls"),
        "model.spatial_decimate.self_s": med("model.spatial_decimate"),
        "model.to_dense.calls": med("model.SpatialResponse.to_dense", "calls"),
        "model.to_dense.self_s": med("model.SpatialResponse.to_dense"),
        "model.to_dense.bytes": med("model.SpatialResponse.to_dense", "bytes"),
        "scenegen.build_spatial_response.self_s": _ratio(
            fleet("scenegen.build_spatial_response", "self_s"),
            fleet("scenegen.build_spatial_response", "calls")),
        "scenegen.generate_scene.self_s": med("scenegen.generate_scene"),
        "scenegen.draws_per_scene": _ratio(
            sum(field("scenegen.generate_scene", "draws")),
            sum(field("scenegen.generate_scene", "calls"))),
        "solver.solve_coupled.self_s": med(solve),
        "solver.outer_iters": med(solve, "iterations"),
        "solver.ms_per_outer": _median(
            1000.0 * _ratio(total, iters)
            for total, iters in zip(field(solve, "total_s"), field(solve, "iterations"))),
        "solver.converged_frac": _ratio(
            sum(field(solve, "converged")), sum(field(solve, "calls"))),
        "solver.project_columns_to_simplex.calls": med(proj, "calls"),
        "solver.project_columns_to_simplex.self_s": med(proj),
        "solver.proj_per_outer": _median(
            _ratio(calls, iters)
            for calls, iters in zip(field(proj, "calls"), field(solve, "iterations"))),
        "solver.spa_initialize.self_s": med("solver.spa_initialize"),
        "bounds.certify.total_s": med("bounds.certify", "total_s"),
        "bounds.kruskal_rank.calls_per_op": med("bounds.kruskal_rank", "calls"),
        "bounds.kruskal_rank.self_s": med("bounds.kruskal_rank"),
        "bounds.subset_condition_number.self_s": med("bounds.subset_condition_number"),
        "bounds.check_assumptions.self_s": med("bounds.check_assumptions"),
        "fileio.write_matrix.self_s": med("fileio.write_matrix"),
        "fileio.write_matrix.cells": med("fileio.write_matrix", "cells"),
        "fileio.read_matrix.self_s": med("fileio.read_matrix"),
        "fileio.read_matrix.cells": med("fileio.read_matrix", "cells"),
        "fileio.spatial_json.self_s": _median(
            a + b for a, b in zip(field("fileio.write_spatial_response", "self_s"),
                                  field("fileio.read_spatial_response", "self_s"))),
        "fileio.bytes_written": _median(
            sum(values) for values in zip(
                field("fileio.write_matrix", "bytes"),
                field("fileio.write_spatial_response", "bytes"),
                field("fileio.write_json", "bytes"))),
        "cli.main.self_s": med("cli.main"),
        "experiment.run_trial.self_s": med("experiment.run_trial"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = _median(
            sum(entry["self_s"] for name, entry in op.items()
                if name.startswith(layer + "."))
            for op in ops)
    out["trace.op_s"] = med(OP_SPAN, "total_s")
    out["trace.glue_s"] = med(OP_SPAN)
    out["trace.covered_frac"] = _median(
        1.0 - _ratio(op[OP_SPAN]["self_s"], op[OP_SPAN]["total_s"]) for op in ops)
    out["trace.overhead_frac"] = overhead_frac
    return out
