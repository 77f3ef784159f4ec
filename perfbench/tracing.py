"""Span tracing around the program's public functions, from outside the program.

Each traced function is replaced, in every ``timdof`` module that binds
it, by a wrapper that records a span (id, parent id, request id, name,
start, end) while the tracer is active.  Self time is a span's duration
minus the durations of its direct children.  A few wrappers also count
work read from arguments or return values.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

TRACED = (
    "topology.is_chordal_bipartite",
    "schemes.optimal_tdma",
    "schemes.maximal_servable_sets",
    "schemes.best_sum_schedule",
    "schemes.canonical_tdma",
    "schemes.validate_schedule",
    "demand_graph.best_assignment_upper_bound",
    "demand_graph.build_demand_graph",
    "demand_graph.maximal_acyclic_subsets",
    "demand_graph.dof_upper_bound_lp",
    "demand_graph.verify_certificate",
    "lp.maximize",
    "linear_sim.random_scheme",
    "linear_sim.sample_channel",
    "linear_sim.decodable_symbols",
    "linear_sim.generic_rank",
    "linear_sim.lemma1_check",
    "linear_sim.evaluate_dof",
    "linear_sim.scheme_from_schedule",
    "serialize.dumps",
    "cli.main",
)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# counter name -> (traced function, work read from its arguments and result)
WORK_COUNTS = {
    "lp.maximize.rows": ("lp.maximize", lambda args, kw, res: len(_arg(args, kw, 1, "A"))),
    "lp.maximize.cols": ("lp.maximize", lambda args, kw, res: len(_arg(args, kw, 0, "c"))),
    "demand_graph.maximal_acyclic_subsets.subsets":
        ("demand_graph.maximal_acyclic_subsets", lambda args, kw, res: len(res)),
    "schemes.maximal_servable_sets.sets":
        ("schemes.maximal_servable_sets", lambda args, kw, res: len(res)),
    "linear_sim.generic_rank.elements":
        ("linear_sim.generic_rank", lambda args, kw, res: _arg(args, kw, 0, "mat").size),
}

BEST_BOUND = "demand_graph.best_assignment_upper_bound"


class Tracer:
    """Collects spans in memory while active; inactive wrappers only forward."""

    def __init__(self):
        self.active = False
        self.request_id = 0
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.work: Counter = Counter()
        self._stack = [0]
        self._next_id = 1

    def _wrap(self, name, fn, counters):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1]
            self._stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append((span_id, parent, self.request_id, name, start, end))
            for counter, measure in counters:
                self.work[counter] += measure(args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        """Replace each traced function in every timdof module that binds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "timdof" or key.startswith("timdof.")]
        for name in TRACED:
            module_name, attr = name.split(".")
            original = getattr(importlib.import_module(f"timdof.{module_name}"), attr)
            counters = [(c, f) for c, (target, f) in WORK_COUNTS.items() if target == name]
            wrapper = self._wrap(name, original, counters)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def drain(self):
        """Hand over the recorded spans and work counts, and start afresh."""
        spans, work = self.spans, self.work
        self.spans, self.work = [], Counter()
        return spans, work


def summarize(spans) -> dict[str, float]:
    """Calls and self time per function, and LP solves under best-assignment bounds."""
    child_time: defaultdict[int, float] = defaultdict(float)
    parent_of, name_of = {}, {}
    for span_id, parent, _, name, start, end in spans:
        child_time[parent] += end - start
        parent_of[span_id], name_of[span_id] = parent, name
    out: defaultdict[str, float] = defaultdict(float)
    lp_in_bounds = 0
    for span_id, parent, _, name, start, end in spans:
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += (end - start) - child_time[span_id]
        if name == "lp.maximize":
            up = parent
            while up and name_of[up] != BEST_BOUND:
                up = parent_of[up]
            lp_in_bounds += bool(up)
    out["lp_in_bounds"] = lp_in_bounds
    return out


def write_spans(spans, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for span_id, parent, request_id, name, start, end in spans:
            fh.write(json.dumps({"id": span_id, "parent": parent, "request": request_id,
                                 "name": name, "start": start, "end": end}) + "\n")
