"""Outside-in span tracer for the multisurf modules.

The tracer replaces public functions of the library modules with wrappers
that record one span per call: (span id, parent span id, label, start, end),
with integer nanosecond clocks.  Each thread keeps its own span stack, so a
span opened in a worker of the convergence sweep's thread pool never becomes
the parent or child of a span in another thread; worker spans are roots in
their own thread.  Self time is a span's duration minus the durations of its
direct children, which nest inside it on the same thread, so it can not be
negative.

Spans stay in memory for one job and are folded into per-label totals when
the job ends.  `install` and `uninstall` swap the wrappers in and out, so one
process can interleave traced and untraced jobs.

From outside, the spans can not split `step_linear` into assembly and state
update, and can not see pivots inside `solve_pivoting`.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import os
import threading
import time
from collections import defaultdict

# module -> names wrapped in it; a span's label is "<module>.<name>"
FUNCTIONS = {
    "mlcp": ["SignStepProblem", "from_sign_step", "solve", "solve_pivoting",
             "solve_psor", "solve_enumerative", "certify"],
    "integrators": ["simulate", "simulate_linear", "simulate_newton",
                    "step_linear", "step_newton", "zoh_discretize"],
    "controllers": ["ecb_step", "lyapunov_control_step", "simulate_ecb",
                    "simulate_lyapunov"],
    "analysis": ["error_norms", "convergence_slope", "tail",
                 "detect_period2", "arrival_step"],
    "experiments": ["run_experiment", "_simple_error_point"],
    "cli": ["main"],
}
# names that controllers imported from integrators
_REEXPORTED = {"controllers": {"simulate": "integrators.simulate",
                               "zoh_discretize": "integrators.zoh_discretize"}}
# labels whose spans carry the MLCP dimension as a tag
_TAG_DIM = {"mlcp.solve", "mlcp.solve_pivoting"}

WORKER_LABEL = "experiments._simple_error_point"
SWEEP_LABEL = "experiments.run_convergence"


class Totals:
    """Per-label call counts and self/inclusive nanoseconds."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.incl_ns = defaultdict(int)
        self.fallbacks = 0
        self.min_self_ns = 0
        self.residual_max = 0.0
        self.newton_iters = []
        self.csv_bytes = 0

    def calls_of(self, name):
        return sum(v for k, v in self.calls.items() if base_label(k) == name)


def base_label(key):
    """The span label of a totals key, without its dimension tag."""
    return key[0] if isinstance(key, tuple) else key


class Tracer:
    def __init__(self, modules):
        self.modules = modules  # short name -> module object
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._spans = []
        self._events = []
        self._saved = []
        self.jobs = Totals()
        self.setup = Totals()

    # -- wrapping ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, label, fn):
        spans, events, ids = self._spans, self._events, self._ids
        stack_of = self._stack
        tag_dim = label in _TAG_DIM

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else None
            key = (label, args[0].dim) if tag_dim else label
            stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                spans.append((sid, parent, key, t0, t1))
            if label == "mlcp.solve":
                events.append(("residual", result.residual))
            elif label == "integrators.step_newton":
                events.append(("newton_iters", result[3]))
            return result

        return traced

    def _swap(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        wrapped = {}
        for short, names in FUNCTIONS.items():
            mod = self.modules[short]
            for name in names:
                fn = getattr(mod, name, None)
                if fn is None:  # gone in this version of the library
                    continue
                label = f"{short}.{name}"
                wrapped[label] = self._wrap(label, fn)
                self._swap(mod, name, wrapped[label])
        for short, names in _REEXPORTED.items():
            mod = self.modules[short]
            for name, label in names.items():
                if hasattr(mod, name) and label in wrapped:
                    self._swap(mod, name, wrapped[label])
        traj = getattr(self.modules["integrators"], "Trajectory", None)
        if traj is not None and hasattr(traj, "to_csv"):
            self._swap(traj, "to_csv", self._wrap_to_csv(traj.to_csv))
        exp = self.modules["experiments"]
        registry = getattr(exp, "REGISTRY", {})
        for name, spec in list(registry.items()):
            label = f"experiments.{spec.runner.__name__}"
            self._swap_item(registry, name, dataclasses.replace(
                spec, runner=self._wrap(label, spec.runner)))

    def _wrap_to_csv(self, fn):
        traced = self._wrap("integrators.Trajectory.to_csv", fn)
        events = self._events

        @functools.wraps(fn)
        def to_csv(traj, path, *args, **kwargs):
            result = traced(traj, path, *args, **kwargs)
            events.append(("csv_bytes", os.path.getsize(path)))
            return result

        return to_csv

    def _swap_item(self, mapping, key, new):
        self._saved.append((mapping, key, mapping[key]))
        mapping[key] = new

    def uninstall(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)

    # -- folding spans into totals -----------------------------------------

    def fold(self, into):
        """Move the recorded spans and events into a Totals object."""
        spans, events = list(self._spans), list(self._events)
        self._spans.clear()
        self._events.clear()
        child_ns = defaultdict(int)
        label_of = {}
        for sid, parent, key, t0, t1 in spans:
            label_of[sid] = base_label(key)
            if parent is not None:
                child_ns[parent] += t1 - t0
        for sid, parent, key, t0, t1 in spans:
            own = (t1 - t0) - child_ns[sid]
            into.min_self_ns = min(into.min_self_ns, own)
            into.calls[key] += 1
            into.self_ns[key] += own
            into.incl_ns[key] += t1 - t0
            if (base_label(key) in ("mlcp.solve_psor", "mlcp.solve_enumerative")
                    and label_of.get(parent) == "mlcp.solve"):
                into.fallbacks += 1
        for kind, value in events:
            if kind == "residual":
                into.residual_max = max(into.residual_max, float(value))
            elif kind == "newton_iters":
                into.newton_iters.append(int(value))
            else:
                into.csv_bytes += int(value)
