"""Run traces and comparison-report records (plain data, JSON/CSV friendly)."""

import csv
from dataclasses import asdict, dataclass, field, fields


def _listify(x):
    if x is None:
        return None
    return [float(v) for v in x]


@dataclass
class TraceRow:
    """One engine (or heuristic) iteration.

    ``query`` is what the client actually asked the body oracle (the unit
    direction for the direction search, the polar point otherwise);
    ``support_gap`` is d = c.k_c - c.p for heuristic-style rows.
    """

    iteration: int
    center: list | None = None
    query: list | None = None
    oracle_answer: str = ""
    support_point: list | None = None
    support_gap: float | None = None
    support_calls: int = 0
    cut_normal: list | None = None
    cut_offset: float | None = None
    cut_kind: str | None = None
    inradius: float | None = None
    lambda_min: float | None = None
    conic_residual: float | None = None

    def to_dict(self):
        return asdict(self)


@dataclass
class RunTrace:
    """Ordered log of one run: centers, queries, cuts, and the verdict."""

    mode: str
    rows: list = field(default_factory=list)
    verdict: str = ""
    oracle_calls: int = 0
    wall_time: float = 0.0

    def append(self, row: TraceRow):
        self.rows.append(row)

    def to_dict(self):
        return {
            "mode": self.mode,
            "verdict": self.verdict,
            "oracle_calls": self.oracle_calls,
            "wall_time": self.wall_time,
            "rows": [r.to_dict() for r in self.rows],
        }


def heuristic_trace(outcome, wall_time=0.0) -> RunTrace:
    """Convert a HeuristicOutcome into the common trace format."""
    trace = RunTrace(mode="heuristic", wall_time=wall_time)
    for i, (c, k, d) in enumerate(outcome.trace):
        trace.append(TraceRow(
            iteration=i,
            query=_listify(c),
            oracle_answer="separator" if d < 0 else "dominated",
            support_point=_listify(k),
            support_gap=float(d),
            support_calls=1,
        ))
    trace.verdict = "inconclusive" if outcome.inconclusive else "separated"
    trace.oracle_calls = sum(r.support_calls for r in trace.rows)
    return trace


def trace_rows_2d(trace: RunTrace):
    """Rows for the fixed-format 2-D CSV export."""
    out = []
    for row in trace.rows:
        point = row.center if row.center is not None else row.query
        out.append({
            "iteration": row.iteration,
            "center_x": point[0] if point else None,
            "center_y": point[1] if point else None,
            "cut_ax": row.cut_normal[0] if row.cut_normal else None,
            "cut_ay": row.cut_normal[1] if row.cut_normal else None,
            "cut_b": row.cut_offset,
        })
    return out


TRACE2D_COLUMNS = ["iteration", "center_x", "center_y", "cut_ax", "cut_ay", "cut_b"]


def write_trace2d_csv(trace: RunTrace, path):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=TRACE2D_COLUMNS)
        writer.writeheader()
        for row in trace_rows_2d(trace):
            writer.writerow({k: ("" if row[k] is None else row[k]) for k in TRACE2D_COLUMNS})


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
                "mean_calls": _mean(calls),
                "median_calls": _median(calls),
                "mean_calls_outside": _mean(outside),
                "median_calls_outside": _median(outside),
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
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=REPORT_COLUMNS)
            writer.writeheader()
            for row in self.rows:
                d = row.to_dict()
                writer.writerow({k: ("" if d[k] is None else d[k]) for k in REPORT_COLUMNS})


def _mean(xs):
    return float(sum(xs) / len(xs)) if xs else None


def _median(xs):
    if not xs:
        return None
    xs = sorted(xs)
    mid = len(xs) // 2
    if len(xs) % 2:
        return float(xs[mid])
    return float((xs[mid - 1] + xs[mid]) / 2.0)
