"""Two routes from separation to support-function optimization.

Both receive a query point p and a body known only through its support
oracle, and either certify a separating direction or declare p inside up to
the accuracy delta.

The direction-search route walks the unit sphere of candidate directions:
the region of separating directions, coned to the origin, is trapped inside
a shrinking ball-plus-halfspaces region whose analytic center is always a
nonnegative combination of the cut normals.  That conic property is exactly
what makes each correction cut valid, so it is checked on every iteration.

The standard route runs feasibility over the polar slice
{c : c.x <= 1 on the body} intersected with {c : p.c >= 1}: any point of that
set gives a separating plane {x : c.x = 1}, and one support query per probe
serves as its separation oracle.
"""

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .analytic_center import CONIC_RESIDUAL_SCALE, Cut
from .bodies import BodySpec, TOL_POLAR, TOL_ZERO, support
from .cutting_plane import CutAnswer, FeasibilityProblem, Member, solve_feasibility
from .errors import CenterOriginFailure, DegenerateCut, SepoptError
from .traces import RunTrace

logger = logging.getLogger(__name__)

CONIC_LAMBDA_FLOOR = -1e-9
MAX_DEGENERATE_RETRIES = 8


@dataclass(frozen=True)
class ReductionConfig:
    """Knobs shared by both reductions.

    ``cut_depth`` <= 0 selects central (0) or shallow (< 0) cuts; every
    shallow cut leaves a slack of |cut_depth| at the old center, so the
    region's inscribed radius cannot drop below roughly |cut_depth| and the
    size floor only fires when |cut_depth| < r_min (otherwise in-body
    declarations come from the iteration budget).  ``r_min`` overrides the
    size floor, which otherwise defaults to
    delta / (4 * outer_radius * sqrt(n)); ``seed`` drives only the
    perturbation used to escape degenerate cuts.
    """

    cut_depth: float = 0.0
    max_cuts: int | None = None
    max_iterations: int | None = None
    r_min: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.cut_depth > 0:
            raise ValueError("cut_depth must be <= 0")


def default_r_min(delta: float, outer_radius: float, n: int) -> float:
    """Pragmatic size floor for the feasibility runs; configurable because
    the exact floor that matches a given delta depends on the body family."""
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
    delta: float
    oracle_calls: int
    iterations: int
    reason: str
    trace: RunTrace
    region: object | None = None  # final search region (OuterApprox)

    @property
    def in_body(self) -> bool:
        return not self.separated


class _CountingSupport:
    """Support-oracle wrapper that counts invocations for the trace."""

    def __init__(self, body: BodySpec):
        self.body = body
        self.count = 0

    def __call__(self, c):
        self.count += 1
        return support(self.body, c)


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


def _perturb_orthogonal(c, rng, scale=1e-8):
    """Nudge a unit vector by ``scale`` in a random orthogonal direction."""
    n = c.shape[0]
    for _ in range(16):
        v = rng.normal(size=n)
        v = v - float(v @ c) * c
        vnorm = float(np.linalg.norm(v))
        if vnorm > 1e-6:
            out = c + scale * v / vnorm
            return out / float(np.linalg.norm(out))
    raise DegenerateCut("could not build an orthogonal perturbation")


def _verify_conic_rows(trace: RunTrace):
    for row in trace.rows:
        if row.lambda_min is not None and row.lambda_min < CONIC_LAMBDA_FLOOR:
            raise SepoptError(
                f"conic certificate failed at iteration {row.iteration}: "
                f"min lambda {row.lambda_min:.3e}")
        if row.conic_residual is not None and row.center is not None:
            bound = CONIC_RESIDUAL_SCALE * (1.0 + float(np.linalg.norm(row.center)))
            if row.conic_residual > bound:
                raise SepoptError(
                    f"conic certificate failed at iteration {row.iteration}: "
                    f"residual {row.conic_residual:.3e} > {bound:.3e}")


def _reduce(mode, label, body: BodySpec, p, delta: float, cfg: ReductionConfig,
            search) -> SeparationVerdict:
    """The verdict frame both routes share.

    Declares the origin inside, fixes the size floor, counts the support
    queries and stamps the trace.  ``search(body, p, r_min, oracle, cfg)``
    runs the route's feasibility problem and returns (outcome, h, v): on a
    member, h is the separating functional and v its support value, so the
    verdict is h in max-norm with margin (h.p - v) / max|h|.
    """
    start_time = time.perf_counter()
    p = np.asarray(p, dtype=float)
    if float(np.linalg.norm(p)) < TOL_ZERO:
        return SeparationVerdict(False, None, None, delta, 0, 0, "origin_interior",
                                 RunTrace(mode=mode, verdict="in_body"))

    r_min = cfg.r_min if cfg.r_min is not None else default_r_min(
        delta, body.outer_radius, body.dimension)
    oracle = _CountingSupport(body)
    outcome, h, v = search(body, p, r_min, oracle, cfg)

    trace = outcome.trace
    trace.mode = mode
    trace.oracle_calls = oracle.count
    logger.info("%s: %s after %d support calls", label,
                "separated" if outcome.feasible else "in-body", oracle.count)
    separator = margin = None
    if outcome.feasible:
        linf = float(np.abs(h).max())
        separator = h / linf
        margin = (float(h @ p) - v) / linf
    trace.verdict = "separated" if outcome.feasible else "in_body"
    trace.wall_time = time.perf_counter() - start_time
    return SeparationVerdict(outcome.feasible, separator, margin, delta,
                             oracle.count, outcome.iterations,
                             "separator" if outcome.feasible else outcome.reason,
                             trace, outcome.region)


def heuristic_reduction(body: BodySpec, p, delta: float,
                        cfg: ReductionConfig = ReductionConfig()) -> SeparationVerdict:
    """Direction-space separation search driven by correction cuts.

    The search region starts as the unit ball intersected with
    {x : (p/|p|).x >= 0} (every separating direction has positive inner
    product with p, since the body contains the origin strictly); each failed
    support query adds a correction cut.  Success means the queried direction
    c = center/|center| satisfies c.k_c < c.p, which is certified back to the
    caller with max-norm normalization.  The in-body declaration fires at the
    size floor r_min(delta) or on budget exhaustion.
    """
    return _reduce("heuristic_reduction", "direction search", body, p, delta, cfg,
                   _direction_search)


def _direction_search(body: BodySpec, p, r_min, oracle, cfg):
    axis = p / float(np.linalg.norm(p))
    rng = np.random.default_rng(cfg.seed)
    hit = {}

    def adapter(omega):
        onorm = float(np.linalg.norm(omega))
        if onorm < TOL_ZERO:
            raise CenterOriginFailure("search center collapsed onto the origin")
        c = omega / onorm
        calls = 0
        for _ in range(MAX_DEGENERATE_RETRIES + 1):
            res = oracle(c)
            calls += 1
            d = float(c @ res.maximizer - c @ p)
            if d < 0.0:
                hit["direction"] = c
                hit["value"] = res.value
                return Member(query=c, support_point=res.maximizer,
                              support_gap=d, support_calls=calls)
            try:
                cut = correction_cut(c, p, res.maximizer)
            except DegenerateCut:
                c = _perturb_orthogonal(c, rng)
                continue
            # the certified halfspace passes through the origin (offset 0);
            # the engine re-offsets it centrally/shallowly around the center
            return CutAnswer(cut.normal, offset=0.0, query=c,
                             support_point=res.maximizer, support_gap=d,
                             support_calls=calls)
        raise DegenerateCut(
            f"no usable cut after {MAX_DEGENERATE_RETRIES} perturbations")

    def run(initial_offset):
        problem = FeasibilityProblem(
            dimension=body.dimension,
            oracle=adapter,
            initial_radius=1.0,
            r_min=r_min,
            cut_depth=cfg.cut_depth,
            max_cuts=cfg.max_cuts,
            max_iterations=cfg.max_iterations,
            initial_cuts=(Cut(axis, initial_offset, protected=True),),
        )
        return solve_feasibility(problem)

    try:
        outcome = run(cfg.cut_depth)
    except CenterOriginFailure:
        # measure-zero event; retry once with a slightly shallow initial cut
        outcome = run(-1e-6)
    _verify_conic_rows(outcome.trace)
    return outcome, hit.get("direction"), hit.get("value")


@dataclass(frozen=True, eq=False)
class PolarReply:
    """Answer of the polar-side separation routines.

    On a cut, ``functional`` is the unit separating functional g with the
    target set inside {x : g.x <= level}; ``support_point`` is the raw
    support maximizer when one was queried, and ``support_value`` its value.
    """

    member: bool
    functional: np.ndarray | None = None
    level: float = 0.0
    support_point: np.ndarray | None = None
    support_value: float | None = None


def separate_polar(body: BodySpec, y, support_fn=None) -> PolarReply:
    """Separation oracle for the polar set {c : c.x <= 1 on the body}.

    One support query: y is a member iff the support value b = y.k is at most
    1 (+ tolerance); otherwise the maximizer k itself separates, because
    k.y = b > 1 while k.q <= 1 for every polar point q.
    """
    support_fn = support_fn or (lambda d: support(body, d))
    y = np.asarray(y, dtype=float)
    if float(np.linalg.norm(y)) < TOL_ZERO:
        return PolarReply(True, support_value=0.0)
    res = support_fn(y)
    if res.value <= 1.0 + TOL_POLAR:
        return PolarReply(True, support_value=res.value)
    k = res.maximizer
    knorm = float(np.linalg.norm(k))
    return PolarReply(False, functional=k / knorm, level=1.0 / knorm,
                      support_point=k, support_value=res.value)


def separate_polar_slice(body: BodySpec, p, y, support_fn=None) -> PolarReply:
    """Separation oracle for the polar intersected with {c : p.c >= 1}.

    Points with p.y < 1 are cut off by the slice constraint itself (no
    support query); the rest defer to the polar oracle.
    """
    p = np.asarray(p, dtype=float)
    y = np.asarray(y, dtype=float)
    if float(p @ y) < 1.0:
        pnorm = float(np.linalg.norm(p))
        return PolarReply(False, functional=-p / pnorm, level=-1.0 / pnorm)
    return separate_polar(body, y, support_fn)


def standard_reduction(body: BodySpec, p, delta: float,
                       cfg: ReductionConfig = ReductionConfig()) -> SeparationVerdict:
    """Classical polar-route separation.

    Runs feasibility over the polar slice inside the ball of radius
    1/inner_radius (which contains the whole polar).  A feasible point y has
    p.y >= 1 and support value at most 1 + tolerance, so {x : y.x = 1}
    separates; it is reported max-norm normalized with its margin.  Cuts are
    applied centrally even though the polar oracle certifies depth.
    """
    return _reduce("standard_reduction", "polar route", body, p, delta, cfg, _polar_search)


def _polar_search(body: BodySpec, p, r_min, oracle, cfg):
    hit = {}

    def adapter(y):
        before = oracle.count
        reply = separate_polar_slice(body, p, y, support_fn=oracle)
        calls = oracle.count - before
        if reply.member:
            hit["value"] = reply.support_value
            return Member(support_calls=calls)
        return CutAnswer(-reply.functional, offset=-reply.level,
                         support_point=reply.support_point, support_calls=calls)

    problem = FeasibilityProblem(
        dimension=body.dimension,
        oracle=adapter,
        initial_radius=1.0 / body.inner_radius,
        r_min=r_min,
        cut_depth=cfg.cut_depth,
        max_cuts=cfg.max_cuts,
        max_iterations=cfg.max_iterations,
    )
    outcome = solve_feasibility(problem)
    return outcome, outcome.point, hit.get("value")
