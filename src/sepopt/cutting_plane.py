"""Oracle-driven convex feasibility engine.

The loop is the classic cutting-plane skeleton: keep an outer approximation
(ball plus halfspaces), hand its analytic center to a separation callback,
halt on membership, otherwise shrink the region with the returned cut and
repeat until the region's inscribed radius falls under the size floor or the
iteration budget runs out.

Cuts are applied centrally by default: the kept halfspace passes through the
queried center, offset by ``cut_depth`` (<= 0, so negative values give
shallow cuts that keep the old center strictly inside).  The callback's own
certified offset is only used as a safety cap; certified depth beyond the
center is never exploited.
"""

import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analytic_center import (
    Cut,
    OuterApprox,
    add_cut,
    analytic_center,
    conic_residual,
    drop_least_binding,
    inscribed_radius_estimate,
)
from .errors import EmptyInterior, NoConvergence
from .traces import RunTrace, TraceRow

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class Member:
    """Oracle assertion that the queried point belongs to the target set.

    ``query``, ``support_point`` and ``support_calls`` let adapters report
    what they actually asked the underlying body oracle, for the trace.
    """

    query: np.ndarray | None = None
    support_point: np.ndarray | None = None
    support_gap: float | None = None
    support_calls: int = 0


@dataclass(frozen=True, eq=False)
class CutAnswer:
    """Oracle assertion that the target set lies in {x : normal.x >= offset}."""

    normal: np.ndarray
    offset: float = 0.0
    query: np.ndarray | None = None
    support_point: np.ndarray | None = None
    support_gap: float | None = None
    support_calls: int = 0


@dataclass(eq=False)
class FeasibilityProblem:
    """Inputs for one feasibility run.

    ``oracle`` maps a strictly interior point of the current region to a
    Member or CutAnswer; it must be pure (the harness may run many engines
    concurrently).  ``r_min`` is the size floor under which the region is
    declared empty; ``cut_depth`` (<= 0) offsets every applied cut relative
    to the queried center.  Defaults: ``max_cuts`` = max(30, 5n) and
    ``max_iterations`` = 64 n log2(initial_radius / r_min).
    """

    dimension: int
    oracle: Callable
    initial_radius: float = 1.0
    r_min: float = 1e-6
    cut_depth: float = 0.0
    max_cuts: int | None = None
    max_iterations: int | None = None
    initial_cuts: tuple = ()

    def __post_init__(self):
        if self.r_min <= 0:
            raise ValueError("r_min must be positive")
        if self.initial_radius < self.r_min:
            raise ValueError("initial radius below the size floor")
        if self.cut_depth > 0:
            raise ValueError("cut_depth must be <= 0 (central or shallow)")
        if self.max_cuts is None:
            self.max_cuts = max(30, 5 * self.dimension)
        if self.max_cuts < 2:
            raise ValueError("max_cuts must be at least 2")
        if self.max_iterations is None:
            self.max_iterations = max(
                1, math.ceil(64 * self.dimension
                             * math.log2(self.initial_radius / self.r_min)))
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(eq=False)
class FeasibilityOutcome:
    feasible: bool
    point: np.ndarray | None
    iterations: int
    reason: str  # "member" | "size_floor" | "iteration_budget" | "empty_interior"
    trace: RunTrace
    region: OuterApprox | None = None


def solve_feasibility(problem: FeasibilityProblem) -> FeasibilityOutcome:
    """Run the cutting-plane loop; oracle exceptions propagate to the caller."""
    trace = RunTrace(mode="feasibility")
    P = OuterApprox(problem.dimension, ball_radius=problem.initial_radius)
    for cut in problem.initial_cuts:
        P = add_cut(P, cut)
    try:
        omega, lambdas = analytic_center(P)
    except EmptyInterior:
        trace.verdict = "declared_empty"
        return FeasibilityOutcome(False, None, 0, "empty_interior", trace, P)

    iterations = 0
    while iterations < problem.max_iterations:
        est = inscribed_radius_estimate(P)
        if est < problem.r_min:
            trace.verdict = "declared_empty"
            return FeasibilityOutcome(False, None, iterations, "size_floor", trace, P)

        iterations += 1
        answer = problem.oracle(omega)
        member = isinstance(answer, Member)
        logger.debug("iter %d: inradius %.3e, %s", iterations, est,
                     "member" if member else "cut")
        row = TraceRow(
            iteration=iterations,
            center=omega,
            query=omega if answer.query is None else answer.query,
            oracle_answer="member" if member else "cut",
            support_point=answer.support_point,
            support_gap=answer.support_gap,
            support_calls=answer.support_calls,
            inradius=est,
            lambda_min=lambdas.min() if lambdas.size else None,
            conic_residual=conic_residual(P, omega, lambdas),
        )
        trace.rows.append(row)
        if member:
            trace.verdict = "feasible"
            return FeasibilityOutcome(True, omega, iterations, "member", trace, P)

        cut = Cut(answer.normal, answer.offset)
        # central (or shallow) placement, capped by the certified offset so a
        # float-dust positive center value can never cut into the target set
        P = add_cut(P, Cut(cut.normal, min(cut.offset,
                                           float(cut.normal @ omega) + problem.cut_depth)))
        placed = P.cuts[-1]
        row.cut_normal, row.cut_offset, row.cut_kind = placed.normal, placed.offset, placed.kind

        try:
            omega, lambdas = analytic_center(P)
            if len(P.cuts) > problem.max_cuts:
                P = drop_least_binding(P, problem.max_cuts)
                omega, lambdas = P.center, P.conic
        except EmptyInterior:
            trace.verdict = "declared_empty"
            return FeasibilityOutcome(False, None, iterations, "empty_interior", trace, P)
        except NoConvergence as exc:
            # slivers thinner than the size floor can defeat float precision
            # before their exact center exists; if the best Newton iterate
            # already certifies the region is below the floor, stop here (no
            # oracle query is made at the uncertified point)
            if (exc.last_point is not None
                    and P.min_slack(exc.last_point) < problem.r_min):
                trace.verdict = "declared_empty"
                return FeasibilityOutcome(False, None, iterations, "size_floor", trace, P)
            raise

    trace.verdict = "declared_empty"
    return FeasibilityOutcome(False, None, iterations, "iteration_budget", trace, P)
