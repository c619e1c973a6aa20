"""Span recording around calls into the program's modules.

In a traced run, ``install`` replaces selected public functions with
wrappers that record one span per call: name, start, end and the index of
the enclosing span.  A function is rebound in every loaded ``omegagames``
module that holds it, so calls through ``from .x import f`` bindings are
seen too.  Spans stay in memory until the run ends.  Untraced runs never
call ``install`` and run the program unmodified.
"""
from __future__ import annotations

import importlib
import sys
import time

# Layer spans: (module, attribute, span name).  The kernel entries patch
# the pure-Python kernel module, which every solve uses once the backend is
# pinned.  ``graph._flatten`` is what the first access of ``GameGraph.flat``
# runs.
TARGETS = (
    ("omegagames.structio", "parse_structure", "structio.parse_structure"),
    ("omegagames.structio", "document_to_game", "structio.document_to_game"),
    ("omegagames.graph", "validate_game", "graph.validate_game"),
    ("omegagames.graph", "build_game", "graph.build_game"),
    ("omegagames.graph", "_flatten", "graph.flat"),
    ("omegagames.reductions", "reduce_stochastic_parity", "reductions.reduce_stochastic_parity"),
    ("omegagames.reductions", "pullback_strategy", "reductions.pullback_strategy"),
    ("omegagames.reductions", "dual_game", "reductions.dual_game"),
    ("omegagames.reductions", "lar_reduce", "reductions.lar_reduce"),
    ("omegagames._kernels.pure", "solve_parity", "kernel.solve_parity"),
    ("omegagames._kernels.pure", "attract", "kernel.attract"),
    ("omegagames.solve", "almost_sure_solve", "solve.almost_sure_solve"),
    ("omegagames.solve", "zielonka_solve", "solve.zielonka_solve"),
    ("omegagames.solve", "cooperative_region", "solve.cooperative_region"),
    ("omegagames.synthesis", "dpa_to_synthesis_game", "synthesis.dpa_to_synthesis_game"),
    ("omegagames.synthesis", "check_realizability", "synthesis.check_realizability"),
    ("omegagames.synthesis", "compute_safety_assumption", "synthesis.compute_safety_assumption"),
    ("omegagames.synthesis", "minimize_fairness", "synthesis.minimize_fairness"),
    ("omegagames.synthesis", "check_sufficiency", "synthesis.check_sufficiency"),
    ("omegagames.synthesis", "apply_fairness", "synthesis.apply_fairness"),
    ("omegagames.synthesis", "assumption_to_streett_automaton", "synthesis.assumption_to_streett_automaton"),
    ("omegagames.synthesis", "extract_transducer", "synthesis.extract_transducer"),
)


class Recorder:
    """Spans of a traced run, kept in memory.

    ``spans`` holds ``[name, start, end, parent]`` lists; ``counts`` holds
    named counters (states validated, product sizes, ...) per operation.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}

    def open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self.stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def count(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value


def _measure(name, result, args):
    """Counters recorded at a span's boundary, outside its timed interval."""
    if name == "graph.validate_game":
        return {"graph.validate_game.states": args[0].n}
    if name == "structio.parse_structure":
        return {"structio.bytes_in": len(args[0])}
    if name in ("reductions.reduce_stochastic_parity", "reductions.lar_reduce"):
        game = result.game
        if result.kind == "identity":
            return {}
        return {f"{name}.states_out": game.n, f"{name}.edges_out": game.edge_count}
    if name == "synthesis.minimize_fairness":
        return {"synthesis.fair_edges_kept": len(result.fair_edges)}
    return {}


def _wrap(fn, name, rec):
    def traced(*args, **kwargs):
        rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close()
        for key, value in _measure(name, result, args).items():
            rec.count(key, value)
        return result

    traced.__wrapped__ = fn
    traced.__name__ = fn.__name__
    return traced


def install(rec):
    """Wrap every target function and rebind it wherever it is referenced."""
    for module_name, _attr, _name in TARGETS:
        importlib.import_module(module_name)
    modules = [m for n, m in list(sys.modules.items()) if n.startswith("omegagames") and m]
    for module_name, attr, name in TARGETS:
        original = getattr(sys.modules[module_name], attr)
        wrapper = _wrap(original, name, rec)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def summarize(spans, ops):
    """Per-layer figures from the spans of ``ops`` traced operations.

    Every operation is a root span named ``op``.  A span's self time is its
    duration minus the time its children cover; the root's self time is the
    time spent outside every layer span.  ``name.s`` sums the durations of
    outermost spans of a name (a span nested in one of the same name is not
    counted twice), ``name.self_s`` sums self times and ``name.calls``
    counts calls; all are divided by ``ops``.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total = {}
    self_time = {}
    calls = {}
    for k, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        self_time[name] = self_time.get(name, 0.0) + dur - child_time[k]
        calls[name] = calls.get(name, 0) + 1
        p = parent
        nested = False
        while p >= 0:
            if spans[p][0] == name:
                nested = True
                break
            p = spans[p][3]
        if not nested:
            total[name] = total.get(name, 0.0) + dur
    out = {}
    for name in calls:
        out[f"{name}.s"] = total[name] / ops
        out[f"{name}.self_s"] = self_time[name] / ops
        out[f"{name}.calls"] = calls[name] / ops
    return out
