"""Spans around sepopt's module-level functions, and the per-verdict call cap.

Every wrapper replaces a module attribute that sepopt looks up at call
time, so nothing under ``src/`` changes.  A span is the tuple
``(name, start, end, parent, verdict, info)``: ``parent`` indexes the span
list (-1 for a root), ``verdict`` is the id of the verdict that caused it and
``info`` is the exception name on a raise, or a small count the wrapper read
from the result (cuts dropped, stop reason).
"""

import functools
import gzip
import importlib
import json
from collections import defaultdict
from time import perf_counter


class CallBudgetExceeded(Exception):
    """The benchmark's per-verdict support-call cap was reached."""


class CallBudget:
    """Counts the routes' support calls and raises past ``cap`` (None: no cap).

    The cap repeats exactly, unlike a wall-clock limit, so a stalled verdict
    ends after the same work on every run."""

    def __init__(self):
        self.count = 0
        self.cap = None

    def reset(self, cap):
        self.count = 0
        self.cap = cap

    def wrap(self, fn):
        budget = self

        @functools.wraps(fn)
        def capped(*args, **kwargs):
            budget.count += 1
            if budget.cap is not None and budget.count > budget.cap:
                raise CallBudgetExceeded(f"more than {budget.cap} support calls")
            return fn(*args, **kwargs)
        return capped


def _dropped(args, result):
    return len(args[0].cuts) - len(result.cuts)


def _reason(args, result):
    return result.reason


# (module, attribute, span name, result reader); the routes' own entry points
# are spanned by the benchmark loop itself
TRACE_POINTS = [
    ("sepopt.reductions", "support", "bodies.support", None),
    ("sepopt.heuristic", "support", "bodies.support", None),
    ("sepopt.bodies", "support", "bodies.support", None),
    ("sepopt.reductions", "solve_feasibility", "cutting_plane.solve_feasibility", _reason),
    ("sepopt.reductions", "correction_cut", "reductions.correction_cut", None),
    ("sepopt.reductions", "separate_polar_slice", "reductions.separate_polar_slice", None),
    ("sepopt.reductions", "_verify_conic_rows", "reductions.verify", None),
    ("sepopt.cutting_plane", "analytic_center", "analytic_center.analytic_center", None),
    ("sepopt.cutting_plane", "add_cut", "analytic_center.add_cut", None),
    ("sepopt.cutting_plane", "drop_least_binding", "analytic_center.drop", _dropped),
    ("sepopt.cutting_plane", "conic_residual", "cutting_plane.conic_residual", None),
    ("sepopt.cutting_plane", "TraceRow", "traces.TraceRow", None),
    ("sepopt.analytic_center", "analytic_center", "analytic_center.analytic_center", None),
    ("sepopt.analytic_center", "barrier_hessian", "analytic_center.newton_step", None),
    ("sepopt.analytic_center", "_phase1", "analytic_center.phase1", None),
    ("sepopt.analytic_center", "OuterApprox.cut_slacks", "analytic_center.cut_slacks", None),
    ("sepopt.heuristic", "run_heuristic", "heuristic.run", None),
    ("sepopt.cli", "distance_to_body", "bodies.distance_to_body", None),
    ("sepopt.cli", "load_instance", "instances.load", None),
]


def _owner(module, attr):
    # import_module, not attribute access: sepopt.analytic_center is the
    # function the package re-exports, not the module
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """In-memory span recorder; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.verdict = -1
        self._restore = []

    def span(self, name, fn, reader=None):
        """``fn`` wrapped so that each call records one span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            info = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                info = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.verdict, info)
            if reader is not None:
                spans[index] = (name, start, end, parent, tracer.verdict, reader(args, result))
            return result
        return traced

    def install(self):
        for module, attr, name, reader in TRACE_POINTS:
            owner, key = _owner(module, attr)
            original = getattr(owner, key)
            setattr(owner, key, self.span(name, original, reader))
            self._restore.append((owner, key, original))

    def uninstall(self):
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def take(self):
        """Hand over the recorded spans and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


class Layers:
    """Per-name totals folded from spans: calls, seconds, self seconds, and
    the counts that the per-layer metrics need.  Every folded batch is also
    appended to the gzip file ``spans_path`` as one JSON line."""

    def __init__(self, spans_path):
        self.spans_path = spans_path
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.unlink(missing_ok=True)
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.errors = defaultdict(int)
        self.info = defaultdict(lambda: defaultdict(int))
        self.centers_in_drop = 0
        self.fw_support_calls = 0
        self.polar_free = 0
        self.support_by_verdict = defaultdict(int)

    def fold(self, spans):
        """Add one batch of spans whose parents index into the same batch."""
        if spans:
            with gzip.open(self.spans_path, "at", compresslevel=1, encoding="utf-8") as sink:
                sink.write(json.dumps(spans) + "\n")
        child_time = [0.0] * len(spans)
        support_children = [0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
                if name == "bodies.support":
                    support_children[parent] += 1
        for i, (name, start, end, parent, verdict, info) in enumerate(spans):
            self.calls[name] += 1
            self.seconds[name] += end - start
            self.self_seconds[name] += end - start - child_time[i]
            if info in ("NoConvergence", "DegenerateCut", "CallBudgetExceeded"):
                self.errors[(name, info)] += 1
            elif isinstance(info, str):
                self.info[name][info] += 1
            elif isinstance(info, int):
                self.info[name]["sum"] += info
            if name == "reductions.separate_polar_slice" and not support_children[i]:
                self.polar_free += 1
            if name == "bodies.support" or name == "analytic_center.analytic_center":
                under = self._ancestor(spans, parent)
                if name == "bodies.support":
                    if under == "bodies.distance_to_body":
                        self.fw_support_calls += 1
                    else:
                        self.support_by_verdict[verdict] += 1
                elif under == "analytic_center.drop":
                    self.centers_in_drop += 1

    @staticmethod
    def _ancestor(spans, parent):
        """The nearest enclosing distance_to_body or drop span, if any."""
        while parent >= 0:
            name = spans[parent][0]
            if name in ("bodies.distance_to_body", "analytic_center.drop"):
                return name
            parent = spans[parent][3]
        return None
