"""Run traces and comparison-report records.

The records are plain data that hold the values the solvers computed, numpy
arrays and scalars included; ``instances.dumps_canonical`` and the CSV
writers below are the only places that turn them into text.
"""

import csv
import statistics
from dataclasses import asdict, astuple, dataclass, field, fields

import numpy as np


@dataclass(eq=False)
class TraceRow:
    """One engine (or heuristic) iteration.

    ``query`` is what the client actually asked the body oracle (the unit
    direction for the direction search, the polar point otherwise);
    ``support_gap`` is d = c.k_c - c.p for heuristic-style rows.  The arrays
    are the solver's own, which it never writes to in place.
    """

    iteration: int
    center: np.ndarray | None = None
    query: np.ndarray | None = None
    oracle_answer: str = ""
    support_point: np.ndarray | None = None
    support_gap: float | None = None
    support_calls: int = 0
    cut_normal: np.ndarray | None = None
    cut_offset: float | None = None
    cut_kind: str | None = None
    inradius: float | None = None
    lambda_min: float | None = None
    conic_residual: float | None = None


@dataclass
class RunTrace:
    """Ordered log of one run: centers, queries, cuts, and the verdict."""

    mode: str
    verdict: str = ""
    oracle_calls: int = 0
    wall_time: float = 0.0
    rows: list = field(default_factory=list)

    def to_dict(self):
        return asdict(self)


def heuristic_trace(outcome, wall_time=0.0) -> RunTrace:
    """Convert a HeuristicOutcome into the common trace format."""
    rows = [TraceRow(iteration=i, query=c,
                     oracle_answer="separator" if d < 0 else "dominated",
                     support_point=k, support_gap=d, support_calls=1)
            for i, (c, k, d) in enumerate(outcome.trace)]
    return RunTrace(mode="heuristic",
                    verdict="inconclusive" if outcome.inconclusive else "separated",
                    oracle_calls=len(rows), wall_time=wall_time, rows=rows)


def _write_csv(path, columns, rows):
    """A header line, then one line per row of values in ``columns`` order.

    The csv module writes None as "" and any other value as str(value);
    numpy floats become Python floats first, so every float is written as
    Python's shortest repr whatever numpy's own formatting does.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([float(v) if isinstance(v, np.floating) else v for v in row]
                         for row in rows)


def write_trace2d_csv(trace: RunTrace, path):
    """CSV of a 2-D run: each row's center (the query on heuristic rows) and cut."""
    lines = []
    for row in trace.rows:
        x, y = row.center if row.center is not None else row.query
        ax, ay = (None, None) if row.cut_normal is None else row.cut_normal
        lines.append((row.iteration, x, y, ax, ay, row.cut_offset))
    _write_csv(path, ["iteration", "center_x", "center_y", "cut_ax", "cut_ay", "cut_b"], lines)


@dataclass
class ComparisonRow:
    instance_id: str
    dimension: int
    true_status: str            # "inside" | "outside" (distance-oracle verdict)
    true_distance: float | None
    heuristic_verdict: str
    heuristic_calls: int
    standard_verdict: str
    standard_calls: int
    agreement: bool
    error: str | None = None

    def to_dict(self):
        return asdict(self)


REPORT_COLUMNS = [f.name for f in fields(ComparisonRow)]


@dataclass
class ComparisonReport:
    rows: list = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)

    def compute_aggregates(self):
        ok = [r for r in self.rows if r.error is None]
        failed = [r for r in self.rows if r.error is not None]
        agg = {
            "instances": len(self.rows),
            "failed": len(failed),
            "disagreements": sum(1 for r in ok if not r.agreement),
        }
        for mode, key in (("heuristic_reduction", "heuristic_calls"),
                          ("standard_reduction", "standard_calls")):
            calls = [getattr(r, key) for r in ok]
            outside = [getattr(r, key) for r in ok if r.true_status == "outside"]
            agg[mode] = {
                "mean_calls": statistics.fmean(calls) if calls else None,
                "median_calls": statistics.median(calls) if calls else None,
                "mean_calls_outside": statistics.fmean(outside) if outside else None,
                "median_calls_outside": statistics.median(outside) if outside else None,
            }
        self.aggregates = agg
        return agg

    def to_dict(self):
        return {
            "schema_version": 1,
            "aggregates": self.aggregates,
            "rows": [r.to_dict() for r in self.rows],
        }

    def write_csv(self, path):
        _write_csv(path, REPORT_COLUMNS, [astuple(r) for r in self.rows])
