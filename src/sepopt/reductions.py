"""Two routes from separation to support-function optimization, and the
correction heuristic they are compared against.

The routes receive a query point p and a body known only through its support
oracle, and either certify a separating direction or declare p inside up to
the accuracy delta.  An in-body declaration is certified too once a point of
the body within delta of p is in hand: a p in the inner ball is its own, and
otherwise the verdict frame gives each run a ``bodies.HullWitness`` over the
support points the run collects (and the inner ball), both routes hand it
every support maximizer that did not separate, and a point it returns ends
the run as a Witness.  The engine's size floor stays as the fallback for
runs that find none; a run out of its budget is inconclusive.

The direction-search route walks the unit sphere of candidate directions:
the region of separating directions, coned to the origin, is trapped inside
a shrinking ball-plus-halfspaces region whose analytic center is always a
nonnegative combination of the cut normals.  That conic property is exactly
what makes each correction cut valid, so it is checked on every iteration.
A failed query with p - k_c parallel to c gives no cut; the hull contains
the segment [0, k_c] and answers first, so such a query ends the run on a
witness when that segment passes within delta of p, and raises DegenerateCut
otherwise.

The standard route runs feasibility over the polar slice
{c : c.x <= 1 on the body} intersected with {c : p.c >= 1}: any point of that
set gives a separating plane {x : c.x = 1}, and one support query per probe
serves as its separation oracle.

Both oracles call the module's ``support`` themselves and answer in the
engine's own types (Member, CutAnswer, Witness) with their support calls;
the final Member carries the verdict's functional (its query) and support
value, which the shared verdict frame reads off the outcome.
"""

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .analytic_center import CONIC_RESIDUAL_SCALE, Cut
from .bodies import BodySpec, HullWitness, TOL_POLAR, TOL_ZERO, _as_vector, support
from .cutting_plane import (CutAnswer, FeasibilityOutcome, FeasibilityProblem, Member,
                            Witness, solve_feasibility)
from .errors import DegenerateCut, SepoptError
from .heuristic import HeuristicConfig, run_heuristic
from .traces import RunTrace, TraceRow

logger = logging.getLogger(__name__)

@dataclass(frozen=True)
class ReductionConfig:
    """The iteration budget shared by every mode (None picks the engine's
    default); delta alone sets the size floor (default_r_min)."""

    max_iterations: int | None = None


def default_r_min(delta: float, outer_radius: float, n: int) -> float:
    """Size floor of both feasibility runs at accuracy delta: a region whose
    inscribed-radius estimate falls under it is declared empty."""
    return delta / (4.0 * outer_radius * math.sqrt(n))


@dataclass(eq=False)
class SeparationVerdict:
    """Either a separating direction (max-norm 1, positive margin) or an
    in-body declaration at accuracy delta.

    ``margin`` is c.p minus the support value in direction c, recomputed
    from the oracle answer that triggered the verdict; ``oracle_calls``
    counts the support queries the run itself made (verification queries by
    tests or harnesses are not included)."""

    separated: bool
    separator: np.ndarray | None
    margin: float | None
    oracle_calls: int
    iterations: int
    reason: str
    trace: RunTrace
    region: object | None = None  # final search region (OuterApprox)
    witness: np.ndarray | None = None  # on reason "witness": a point of the body within delta of p


def correction_cut(c, p, k_c) -> Cut:
    """Halfspace cut from a failed test direction.

    Given unit c with c.(p - k_c) <= 0 (the support point k_c dominates p in
    direction c), every still-viable separating direction m with m.c >= 0
    satisfies m.a > 0 for a = (p - k_c) minus its projection on c.  The
    returned cut keeps {x : a.x >= 0}, and its hyperplane passes through c.
    Raises DegenerateCut when p - k_c is parallel to c.
    """
    c = np.asarray(c, dtype=float)
    p = np.asarray(p, dtype=float)
    k_c = np.asarray(k_c, dtype=float)
    diff = p - k_c
    along = float(c @ diff)
    if along > 1e-7:
        raise ValueError("direction already separates; no correction cut applies")
    a_bar = diff - along * c
    norm = float(np.linalg.norm(a_bar))
    if norm < TOL_ZERO:
        raise DegenerateCut("p - k_c is parallel to the test direction")
    return Cut(a_bar / norm, 0.0)


def _verify_conic_rows(trace: RunTrace):
    for row in trace.rows:
        if row.conic_residual is not None and row.center is not None:
            bound = CONIC_RESIDUAL_SCALE * (1.0 + float(np.linalg.norm(row.center)))
            if row.conic_residual > bound:
                exc = SepoptError(f"conic certificate failed at iteration {row.iteration}: "
                                  f"residual {row.conic_residual:.3e} > {bound:.3e}")
                exc.trace = trace
                raise exc


def _reduce(mode, label, body: BodySpec, p, delta: float, cfg: ReductionConfig,
            search) -> SeparationVerdict:
    """The verdict frame of both routes and the correction heuristic.

    Checks the query point, fixes the size floor, stamps the trace and logs
    one INFO line.  A p in the inner ball B(0, inner_radius), which lies in
    the body, is its own witness: no search runs and the trace has no rows.
    Otherwise ``search(body, p, r_min, cfg, hull)`` runs the mode's search,
    handing the run's HullWitness (built at delta) each support maximizer
    that did not separate, and returns its FeasibilityOutcome; every support
    call is reported in a trace row, so the rows' ``support_calls`` sum to
    the verdict's ``oracle_calls``.  On a member, the final answer's query h
    is the separating functional and its value v the support value, so the
    verdict is h in max-norm with margin (h.p - v) / max|h|; reason
    "iteration_budget" makes the verdict "inconclusive", and every other stop
    is "in_body".  A SepoptError raised with a trace has it stamped with
    verdict "error".  On reason "witness" the verdict keeps the Witness's
    point.
    """
    start_time = time.perf_counter()

    def stamp(trace, verdict):
        trace.mode, trace.verdict = mode, verdict
        trace.oracle_calls = sum(row.support_calls for row in trace.rows)
        trace.wall_time = time.perf_counter() - start_time
        return trace.oracle_calls

    p = _as_vector(p, body.dimension, "query point")
    if float(np.linalg.norm(p)) <= body.inner_radius:
        outcome = FeasibilityOutcome(False, None, 0, "witness", RunTrace(mode),
                                     answer=Witness(p))
    else:
        r_min = default_r_min(delta, body.outer_radius, body.dimension)
        try:
            outcome = search(body, p, r_min, cfg, HullWitness(p, delta, body.inner_radius))
        except SepoptError as exc:
            if exc.trace is not None:
                stamp(exc.trace, "error")
            raise

    trace = outcome.trace
    verdict = ("separated" if outcome.feasible
               else "inconclusive" if outcome.reason == "iteration_budget" else "in_body")
    calls = stamp(trace, verdict)
    logger.info("%s: %s after %d support calls", label, verdict.replace("_", "-"), calls)
    separator = margin = None
    if outcome.feasible:
        h, v = outcome.answer.query, outcome.answer.value
        linf = float(np.abs(h).max())
        separator = h / linf
        margin = (float(h @ p) - v) / linf
    witness = outcome.answer.point if outcome.reason == "witness" else None
    return SeparationVerdict(outcome.feasible, separator, margin,
                             calls, outcome.iterations,
                             "separator" if outcome.feasible else outcome.reason,
                             trace, outcome.region, witness)


def heuristic_reduction(body: BodySpec, p, delta: float,
                        cfg: ReductionConfig = ReductionConfig()) -> SeparationVerdict:
    """Direction-space separation search driven by correction cuts.

    The search region starts as the unit ball intersected with
    {x : (p/|p|).x >= 0} (every separating direction has positive inner
    product with p, since the body contains the origin strictly); each failed
    support query adds a correction cut.  Success means the queried direction
    c = center/|center| satisfies c.k_c < c.p, which is certified back to the
    caller with max-norm normalization.  The in-body declaration fires on a
    witness or at the size floor r_min(delta); out of budget the verdict is
    inconclusive.
    """
    return _reduce("heuristic_reduction", "direction search", body, p, delta, cfg,
                   _direction_search)


def _direction_search(body: BodySpec, p, r_min, cfg, hull):
    axis = p / float(np.linalg.norm(p))

    def adapter(omega):
        # the engine queries only when its radius estimate est >= r_min > 0,
        # and est counts the axis cut's slack axis.omega <= |omega|, so
        # omega is never the origin
        c = omega / float(np.linalg.norm(omega))
        res = support(body, c)
        k = res.maximizer
        d = float(c @ k - c @ p)
        if d < 0.0:
            return Member(query=c, value=res.value, support_point=k, support_gap=d,
                          support_calls=1)
        x = hull.add(k)
        if x is not None:
            return Witness(x, query=c, support_point=k, support_gap=d, support_calls=1)
        # the certified halfspace passes through the origin (offset 0) and,
        # its normal being orthogonal to c, through the center: a central
        # cut.  The hull holds the segment [0, k], so it answers a degenerate
        # row (p - k parallel to c) whose segment point is within delta of p;
        # correction_cut raises DegenerateCut on any other
        return CutAnswer(correction_cut(c, p, k).normal, query=c, support_point=k,
                         support_gap=d, support_calls=1)

    outcome = solve_feasibility(FeasibilityProblem(
        dimension=body.dimension,
        oracle=adapter,
        initial_radius=1.0,
        r_min=r_min,
        max_iterations=cfg.max_iterations,
        initial_cuts=(Cut(axis, 0.0, protected=True),),
    ))
    _verify_conic_rows(outcome.trace)
    return outcome


def correction_heuristic(body: BodySpec, p, delta: float,
                         cfg: ReductionConfig = ReductionConfig()) -> SeparationVerdict:
    """The correction heuristic (``heuristic.run_heuristic``) in the verdict frame.

    At most ``cfg.max_iterations`` support queries (1000 when None), one
    trace row each, and no size floor, so delta leaves the answer unchanged.
    Out of budget it stops with reason "iteration_budget", verdict
    "inconclusive", as both routes do.
    """
    return _reduce("heuristic", "correction heuristic", body, p, delta, cfg,
                   _correction_search)


def _correction_search(body: BodySpec, p, r_min, cfg, hull):
    outcome = run_heuristic(body, p, HeuristicConfig(cfg.max_iterations or 1000))
    trace = RunTrace(mode="heuristic", rows=[
        TraceRow(iteration=i, query=c, oracle_answer="separator" if d < 0 else "dominated",
                 support_point=k, support_gap=d, support_calls=1)
        for i, (c, k, d) in enumerate(outcome.trace)])
    if outcome.inconclusive:
        return FeasibilityOutcome(False, None, outcome.iterations, "iteration_budget", trace)
    c, k, _ = outcome.trace[-1]
    # the value c.k, not the oracle's matrix-product value, gives the frame's
    # margin (c.p - c.k) / max|c| the bits of -d / max|c|
    return FeasibilityOutcome(True, c, outcome.iterations, "member", trace,
                              answer=Member(query=c, value=float(c @ k)))


def separate_polar(body: BodySpec, y, hull: HullWitness | None = None
                   ) -> Member | CutAnswer | Witness:
    """Separation oracle for the polar set {c : c.x <= 1 on the body}.

    One support query: y is a member iff the support value b = y.k is at most
    1 (+ tolerance), and the Member carries y and b; otherwise the maximizer
    k itself separates, because k.y = b > 1 while k.q <= 1 for every polar
    point q, so the CutAnswer keeps {c : -k.c >= -1} in unit-normal form.
    A ``hull`` gets that k first, and a witness point it returns is answered
    as a Witness.
    """
    y = np.asarray(y, dtype=float)
    if float(np.linalg.norm(y)) < TOL_ZERO:
        return Member(query=y, value=0.0)
    res = support(body, y)
    if res.value <= 1.0 + TOL_POLAR:
        return Member(query=y, value=res.value, support_calls=1)
    k = res.maximizer
    x = None if hull is None else hull.add(k)
    if x is not None:
        return Witness(x, support_point=k, support_calls=1)
    knorm = float(np.linalg.norm(k))
    return CutAnswer(-k / knorm, offset=-1.0 / knorm, support_point=k, support_calls=1)


def separate_polar_slice(body: BodySpec, p, y, hull: HullWitness | None = None
                         ) -> Member | CutAnswer | Witness:
    """Separation oracle for the polar intersected with {c : p.c >= 1}.

    Points with p.y < 1 are cut off by the slice constraint itself (no
    support query); the rest defer to the polar oracle.
    """
    p = np.asarray(p, dtype=float)
    y = np.asarray(y, dtype=float)
    if float(p @ y) < 1.0:
        pnorm = float(np.linalg.norm(p))
        return CutAnswer(p / pnorm, offset=1.0 / pnorm)
    return separate_polar(body, y, hull)


def standard_reduction(body: BodySpec, p, delta: float,
                       cfg: ReductionConfig = ReductionConfig()) -> SeparationVerdict:
    """Classical polar-route separation.

    Runs feasibility over the polar slice inside the ball of radius
    1/inner_radius (which contains the whole polar).  A feasible point y has
    p.y >= 1 and support value at most 1 + tolerance, so {x : y.x = 1}
    separates; it is reported max-norm normalized with its margin.  Every
    cut the polar oracle certifies cuts the queried centre off, and the
    engine keeps its certified depth up to the restart point (a deep cut).
    """
    return _reduce("standard_reduction", "polar route", body, p, delta, cfg, _polar_search)


def _polar_search(body: BodySpec, p, r_min, cfg, hull):
    return solve_feasibility(FeasibilityProblem(
        dimension=body.dimension,
        oracle=lambda y: separate_polar_slice(body, p, y, hull),
        initial_radius=1.0 / body.inner_radius,
        r_min=r_min,
        max_iterations=cfg.max_iterations,
    ))
