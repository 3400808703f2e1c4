"""Span tracing installed from outside the program, by rebinding module attributes.

Each traced function is replaced, at the name its callers look up, by a
wrapper that pushes a frame on a stack.  When a frame closes, its duration
minus the time of the traced calls nested inside it is charged to the
frame's layer as self time, and its whole duration is charged to the
enclosing frame as child time.  Frames of kind "span" are also kept as
records (name, start, end, parent span, operation id) and written out once
when the run ends; frames of kind "hot" (functions called thousands of
times per operation) are counted and timed but leave no record.  No file of
the program is changed.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter

# (module, attribute looked up by callers, metric name, layer, kind).  The small
# closed-form helpers the planner calls per arc (mu, xi, isotherm_*_of_p) are
# left unwrapped: at about 1 us each a wrapper would double their cost, so
# their time counts as the planner's own.
TARGETS = (
    ("two_level", "solve_engine", "two_level.solve_engine", "two_level", "span"),
    ("two_level", "adiabatic_f_min", "two_level.adiabatic_f_min", "two_level", "hot"),
    ("planner", "solve_engine", "two_level.solve_engine", "two_level", "span"),
    ("planner", "find_jump_points", "two_level.find_jump_points", "two_level", "span"),
    ("planner", "adiabatic_f", "two_level.adiabatic_f", "two_level", "hot"),
    ("planner", "segment_from_populations", "two_level.segment_from_populations", "two_level", "hot"),
    ("planner", "chi", "planner.chi", "two_level", "hot"),
    ("planner", "plan_for_deadline", "planner.plan_for_deadline", "planner", "span"),
    ("planner", "build_trajectory", "planner.build_trajectory", "planner", "span"),
    ("planner", "sample_plan", "planner.sample_plan", "planner", "span"),
    ("planner", "validate_plan", "planner.validate_plan", "planner", "span"),
    ("planner", "plan_to_protocol", "planner.plan_to_protocol", "planner", "span"),
    ("planner", "write_plan_json", "planner.write_plan_json", "planner", "span"),
    ("planner", "write_plan_csv", "planner.write_plan_csv", "planner", "span"),
    ("lindblad", "integrate", "lindblad.integrate", "lindblad", "span"),
    ("lindblad", "lindblad_rhs", "lindblad.lindblad_rhs", "lindblad", "hot"),
    ("pmp", "conserved_k_residual", "pmp.conserved_k_residual", "pmp", "span"),
    ("pmp", "stationarity_residual", "pmp.stationarity_residual", "pmp", "hot"),
    ("pmp", "switching_functional", "pmp.switching_functional", "pmp", "hot"),
    ("pmp", "lindblad_rhs", "pmp.lindblad_rhs", "lindblad", "hot"),
    ("cli", "main", "cli.trajectory", "cli", "span"),
    ("bruteforce", "grid_search", "bruteforce.grid_search", "bruteforce", "span"),
)

LAYERS = ("two_level", "planner", "lindblad", "pmp", "cli", "bruteforce")

_NAME, _LAYER, _START, _CHILD, _PARENT, _INDEX = range(6)


class Tracer:
    """Stack of open frames plus per-name and per-layer totals for one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[list] = []
        self.current_span = -1
        self.op_id = -1
        self.layer_self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        # calls of a name keyed by the name of the innermost enclosing span
        self.calls_within: Counter = Counter()
        self._span_names: dict[int, str] = {}
        self._restore: list[tuple] = []

    def _enter(self, name: str, layer: str, record: bool) -> list:
        parent = self.current_span
        index = -1
        if record:
            index = len(self.spans)
            self.spans.append(None)
            self._span_names[index] = name
            self.current_span = index
        else:
            self.calls_within[(name, self._span_names.get(parent, ""))] += 1
        frame = [name, layer, 0, 0, parent, index]
        self.stack.append(frame)
        frame[_START] = time.perf_counter_ns()
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter_ns()
        self.stack.pop()
        dur = end - frame[_START]
        name = frame[_NAME]
        self.layer_self_ns[frame[_LAYER]] += dur - frame[_CHILD]
        self.calls[name] += 1
        self.total_ns[name] += dur
        if self.stack:
            self.stack[-1][_CHILD] += dur
        if frame[_INDEX] >= 0:
            self.spans[frame[_INDEX]] = (name, frame[_START], end, frame[_PARENT], self.op_id)
            self.current_span = frame[_PARENT]

    def wrap(self, fn, name: str, layer: str, record: bool):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(name, layer, record)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)

        return traced

    def install(self, modules: dict) -> None:
        """Rebind every target attribute; `modules` maps short names to module objects."""
        for mod_name, attr, name, layer, kind in TARGETS:
            module = modules[mod_name]
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, layer, kind == "span"))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def begin_op(self, op_id: int) -> list:
        self.op_id = op_id
        return self._enter("op", "bench", True)

    def end_op(self, frame: list) -> None:
        self._exit(frame)

    def per_call_ms(self, name: str) -> float:
        n = self.calls[name]
        return self.total_ns[name] / n / 1e6 if n else 0.0

    def summary(self) -> dict:
        op_ns = self.total_ns["op"]
        return {
            "ops": self.calls["op"],
            "op_ns": op_ns,
            "layer_self_ns": dict(self.layer_self_ns),
            "unaccounted_share": self.layer_self_ns["bench"] / op_ns if op_ns else 0.0,
            "calls": dict(self.calls),
            "total_ns": dict(self.total_ns),
        }

    def write(self, path, extra: dict) -> None:
        """Write the span records and totals as one JSON document."""
        doc = {
            **extra,
            "summary": self.summary(),
            "span_fields": ["name", "start_ns", "end_ns", "parent", "op"],
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
