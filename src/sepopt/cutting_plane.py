"""Oracle-driven convex feasibility engine.

The loop is the classic cutting-plane skeleton: keep an outer approximation
(ball plus halfspaces), hand its analytic center to a separation callback,
halt on membership, otherwise shrink the region with the returned cut and
repeat until the region's inscribed radius falls under the size floor or the
iteration budget runs out.

Oracles answer with a Member, a CutAnswer {x : normal.x >= offset}, or a
Witness, the client's certificate that the run can stop with no cut.
analytic_center.dikin_restart places each cut and gives the next centring's
start.  A cut certified at or below the queried center is placed through it,
capped by the certified offset (the trace names it shallow when that cap
binds, central otherwise).  A cut certified deeper keeps its depth, measured
in the center's local norm, up to the central restart point (the trace names
it deep).  The start is the old center moved along the new cut's Dikin
direction by a step derived from the self-concordance bound, (sqrt(5) - 1)/2
for a central cut and longer for a deep one: every old slack keeps a share
of its value and the placed cut's slack is positive.
"""

import logging
import math
from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

from .analytic_center import (
    KIND_TOL,
    Cut,
    OuterApprox,
    add_cut,
    analytic_center,
    conic_residual,
    dikin_restart,
    drop_least_binding,
    inscribed_radius_estimate,
)
from .errors import EmptyInterior, SepoptError
from .traces import RunTrace, TraceRow

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class Member:
    """Oracle assertion that the queried point belongs to the target set.

    ``query``, ``support_point`` and ``support_calls`` let adapters report
    what they actually asked the underlying body oracle, for the trace (the
    rows' ``support_calls`` are a verdict's only count of support queries);
    ``value`` is the support value at ``query`` when one was queried.
    """

    kind: ClassVar[str] = "member"
    query: np.ndarray | None = None
    value: float | None = None
    support_point: np.ndarray | None = None
    support_gap: float | None = None
    support_calls: int = 0


@dataclass(frozen=True, eq=False)
class CutAnswer:
    """Oracle assertion that the target set lies in {x : normal.x >= offset}."""

    kind: ClassVar[str] = "cut"
    normal: np.ndarray
    offset: float = 0.0
    query: np.ndarray | None = None
    support_point: np.ndarray | None = None
    support_gap: float | None = None
    support_calls: int = 0


@dataclass(frozen=True, eq=False)
class Witness:
    """The oracle's certificate ``point`` that the run may stop; report fields as Member's."""

    kind: ClassVar[str] = "witness"
    point: np.ndarray
    query: np.ndarray | None = None
    support_point: np.ndarray | None = None
    support_gap: float | None = None
    support_calls: int = 0


@dataclass(eq=False)
class FeasibilityProblem:
    """Inputs for one feasibility run.

    ``oracle`` maps a strictly interior point of the current region to a
    Member, CutAnswer or Witness; it must be pure (the harness may run many
    engines concurrently).  ``r_min`` is the size floor under which the
    region is declared empty.  ``max_iterations`` defaults to
    64 n log2(initial_radius / r_min).  The engine keeps at most
    max(30, 5n) cuts, dropping the least binding beyond that.
    """

    dimension: int
    oracle: Callable
    initial_radius: float = 1.0
    r_min: float = 1e-6
    max_iterations: int | None = None
    initial_cuts: tuple = ()

    def __post_init__(self):
        if self.r_min <= 0:
            raise ValueError("r_min must be positive")
        if self.initial_radius < self.r_min:
            raise ValueError("initial radius below the size floor")
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
    reason: str  # "member" | "witness" | "size_floor" | "iteration_budget" | "empty_interior"
    trace: RunTrace
    region: OuterApprox | None = None
    answer: Member | Witness | None = None  # the oracle's final answer on either


def solve_feasibility(problem: FeasibilityProblem) -> FeasibilityOutcome:
    """Run the cutting-plane loop; exceptions propagate, a SepoptError carrying the trace."""
    trace = RunTrace(mode="feasibility")
    try:
        P = OuterApprox(problem.dimension, ball_radius=problem.initial_radius)
        for cut in problem.initial_cuts:
            P = add_cut(P, cut)
        try:
            omega, lambdas = analytic_center(P)
        except EmptyInterior:
            return FeasibilityOutcome(False, None, 0, "empty_interior", trace, P)

        max_cuts = max(30, 5 * problem.dimension)
        iterations = 0
        while iterations < problem.max_iterations:
            est = inscribed_radius_estimate(P)
            if est < problem.r_min:
                return FeasibilityOutcome(False, None, iterations, "size_floor", trace, P)

            iterations += 1
            answer = problem.oracle(omega)
            logger.debug("iter %d: inradius %.3e, %s", iterations, est, answer.kind)
            row = TraceRow(
                iteration=iterations,
                center=omega,
                query=omega if answer.query is None else answer.query,
                oracle_answer=answer.kind,
                support_point=answer.support_point,
                support_gap=answer.support_gap,
                support_calls=answer.support_calls,
                inradius=est,
                lambda_min=lambdas.min() if lambdas.size else None,
                conic_residual=conic_residual(P, omega, lambdas),
            )
            trace.rows.append(row)
            if isinstance(answer, Member):
                return FeasibilityOutcome(True, omega, iterations, "member", trace, P, answer)
            if isinstance(answer, Witness):
                return FeasibilityOutcome(False, None, iterations, "witness", trace, P, answer)

            # placed centrally, shallow at its certified offset, or deep up
            # to the restart point; never past the certified offset
            placed, start = dikin_restart(P, Cut(answer.normal, answer.offset))
            P = add_cut(P, placed)
            row.cut_normal, row.cut_offset = placed.normal, placed.offset
            centre = float(placed.normal @ omega)
            row.cut_kind = ("shallow" if placed.offset < centre - KIND_TOL
                            else "deep" if placed.offset > centre else "central")

            try:
                omega, lambdas = analytic_center(P, warm_start=start)
                if len(P.cuts) > max_cuts:
                    P = drop_least_binding(P, max_cuts)
                    omega, lambdas = P.center, P.conic
            except EmptyInterior:
                return FeasibilityOutcome(False, None, iterations, "empty_interior", trace, P)

        return FeasibilityOutcome(False, None, iterations, "iteration_budget", trace, P)
    except SepoptError as exc:
        exc.trace = trace
        raise
