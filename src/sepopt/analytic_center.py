"""Log-barrier machinery over a ball intersected with halfspaces.

The search region is P = {x : |x| < rho} intersected with cuts {x : a_i.x >= b_i}
(unit normals).  Its barrier is

    F(x) = -sum_i log(a_i.x - b_i) - log(rho^2 - x.x)

and the analytic center is the unique minimizer of F over the interior.
Setting the gradient to zero gives

    omega = (rho^2 - omega.omega)/2 * sum_i a_i / (a_i.omega - b_i),

so the center is automatically a nonnegative (conic) combination of the cut
normals with coefficients lambda_i = (rho^2 - omega.omega) / (2 (a_i.omega - b_i)).
That conic certificate is what the direction-search reduction leans on, so it
is recomputed and exposed after every center computation.
"""

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .bodies import TOL_ZERO, _potrf, _potrs
from .errors import CannotDrop, EmptyInterior, NoConvergence, NotInterior, ZeroDirection

logger = logging.getLogger(__name__)

TOL_NEWTON = 1e-10       # gradient-norm target at the center
TOL_DECREMENT = 1e-8     # Newton-decrement fallback; see analytic_center()
CONIC_RESIDUAL_SCALE = 1e-7   # certificate: |omega - sum lambda_i a_i| <= scale*(1+|omega|)
PURE_PHASE = 0.25        # decrement below which full Newton steps are safe
ARMIJO = 0.01
MAX_NEWTON_ITERS = 200
RESTART_STEP = (math.sqrt(5.0) - 1.0) / 2.0   # t of dikin_restart: t^2 + t - 1 = 0
KIND_TOL = 1e-12         # a cut offset within this of a.omega counts as central


@dataclass(frozen=True, eq=False)
class Cut:
    """Halfspace {x : normal.x >= offset} with a unit normal.

    ``protected`` cuts are never removed by drop_least_binding.
    """

    normal: np.ndarray
    offset: float
    protected: bool = False

    def __post_init__(self):
        a = np.asarray(self.normal, dtype=float)
        norm = float(np.linalg.norm(a))
        if norm < TOL_ZERO:
            raise ZeroDirection("cut normal is numerically zero")
        offset = self.offset
        if abs(norm - 1.0) > 1e-12:
            a = a / norm
            offset = offset / norm
        a = np.array(a)
        a.setflags(write=False)
        object.__setattr__(self, "normal", a)
        object.__setattr__(self, "offset", offset)


@dataclass(eq=False)
class OuterApprox:
    """Ball-plus-cuts search region with cached center data.

    ``A`` (m x n) and ``b`` (m) stack the normals and offsets of ``cuts``
    row by row; they are built from ``cuts`` when not given, and add_cut and
    drop_least_binding carry them over row by row instead of restacking.
    ``center``, ``conic`` and ``hessian_factor`` (the lower Cholesky factor
    of the barrier Hessian at ``center``) are set by analytic_center() and
    invalidated by add_cut(); the start of the centring after a cut is the
    caller's, passed as analytic_center's warm start (see dikin_restart).
    """

    dimension: int
    ball_radius: float = 1.0
    cuts: tuple = ()
    center: np.ndarray | None = None
    conic: np.ndarray | None = None
    hessian_factor: np.ndarray | None = field(default=None, repr=False)
    A: np.ndarray | None = field(default=None, repr=False)
    b: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.A is None:
            self.A = np.array([c.normal for c in self.cuts], dtype=float).reshape(-1, self.dimension)
            self.b = np.array([c.offset for c in self.cuts], dtype=float)
        self.A.setflags(write=False)
        self.b.setflags(write=False)

    def cut_slacks(self, x):
        return self.A @ x - self.b

    def ball_slack(self, x):
        return self.ball_radius - math.sqrt(x @ x)

    def min_slack(self, x, slacks=None):
        """Smallest slack at x; ``slacks`` may pass cut_slacks(x) if known."""
        s = self.ball_slack(x)
        if slacks is None:
            slacks = self.cut_slacks(x)
        if slacks.size:
            s = min(s, float(slacks.min()))
        return s

    def is_interior(self, x, margin=0.0, slacks=None):
        return self.min_slack(x, slacks) > margin


def barrier_value(P: OuterApprox, x, slacks=None) -> float:
    """F(x); raises NotInterior (with the violated constraint index, -1 for
    the ball) when x is not strictly inside.  ``slacks``, if given, must be
    P.cut_slacks(x); the gradient and Hessian take it the same way."""
    x = np.asarray(x, dtype=float)
    q = P.ball_radius**2 - float(x @ x)
    if q <= 0.0:
        raise NotInterior("point on or outside the bounding ball", index=-1)
    if slacks is None:
        slacks = P.cut_slacks(x)
    if slacks.size and slacks.min() <= 0.0:
        raise NotInterior("point violates a cut", index=int(np.argmin(slacks)))
    return float(-np.sum(np.log(slacks)) - np.log(q))


def barrier_gradient(P: OuterApprox, x, slacks=None) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    q = P.ball_radius**2 - float(x @ x)
    if slacks is None:
        slacks = P.cut_slacks(x)
    return (2.0 / q) * x - P.A.T @ (1.0 / slacks)


def barrier_hessian(P: OuterApprox, x, slacks=None) -> np.ndarray:
    """(2/q) I + (4/q^2) x x^T + sum_i a_i a_i^T / s_i^2, summed in that
    order but built in place: the outer product, its diagonal, the cuts."""
    x = np.asarray(x, dtype=float)
    q = P.ball_radius**2 - float(x @ x)
    if slacks is None:
        slacks = P.cut_slacks(x)
    H = np.outer(x, x)
    H *= 4.0 / q**2
    H.flat[::P.dimension + 1] += 2.0 / q
    H += (P.A / slacks[:, None]**2).T @ P.A
    return H


def conic_residual(P: OuterApprox, omega, lambdas) -> float:
    """Norm of omega - sum_i lambda_i a_i (zero at an exact center)."""
    return float(np.linalg.norm(omega - lambdas @ P.A))


def _phase1(P: OuterApprox, iterations=600):
    """Maximize the minimum slack by subgradient ascent with damped steps."""
    x = np.zeros(P.dimension)
    best = x.copy()
    best_phi = P.min_slack(x)
    for k in range(iterations):
        ball = P.ball_slack(x)
        slacks = P.cut_slacks(x)
        if slacks.size and float(slacks.min()) < ball:
            idx = int(np.argmin(slacks))
            phi = float(slacks[idx])
            direction = P.cuts[idx].normal
        else:
            phi = ball
            nx = float(np.linalg.norm(x))
            direction = -x / nx if nx > TOL_ZERO else np.zeros(P.dimension)
        if phi > best_phi:
            best_phi = phi
            best = x.copy()
        if phi > 1e-9 * P.ball_radius:
            return x
        x = x + (P.ball_radius / (5.0 + k)) * direction
    if best_phi > TOL_ZERO:
        return best
    raise EmptyInterior(
        f"no interior point found (best minimum slack {best_phi:.3e})"
    )


def _newton_step(H, g):
    """Solve H step = -g through the Cholesky factor of H; returns (step, factor).

    The LAPACK calls and checks of cho_solve(cho_factor(H, lower=True), -g),
    in the same order, so the step is bitwise the same: a non-finite H or g
    raises ValueError, an H that is not positive definite NoConvergence.
    ``factor`` holds the lower factor in its lower triangle.
    """
    if not np.isfinite(H).all():
        raise ValueError("Hessian must not contain infs or NaNs")
    factor, info = _potrf(H, lower=True, clean=False)
    if info > 0:  # strict convexity should prevent this
        raise NoConvergence(f"Hessian factorization failed: {info}-th leading minor "
                            "of the array is not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of potrf")
    rhs = -g
    if not np.isfinite(rhs).all():
        raise ValueError("gradient must not contain infs or NaNs")
    step, info = _potrs(factor, rhs, lower=True)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of potrs")
    return step, factor


def analytic_center(P: OuterApprox, warm_start=None, record_iterates=None):
    """Damped-Newton minimization of the barrier; returns (omega, lambdas).

    Converges when the gradient norm drops below 1e-10 or, for thin regions
    where that absolute target is below float granularity (the Hessian norm
    scales like 1/slack^2), when the Newton decrement drops below 1e-8 and
    the conic-reconstruction residual meets its 1e-7 * (1 + |omega|) bound.
    The result is cached on P, with the Cholesky factor of the Hessian at
    the returned center (the last pass factors it, then stops).
    Determinism: same region and warm start give bitwise-identical centers.  ``record_iterates`` (a list, if given)
    receives a copy of every Newton iterate, for diagnostics.  Newton starts
    at the warm start (NotInterior unless strictly interior), else the
    origin, whichever first has every slack above 1e-12 * ball_radius, else
    at a phase-1 point (EmptyInterior when none is found).
    """
    # the slacks of the current iterate, computed once per point and shared
    # by the interior tests, gradient, Hessian, line search and certificate
    margin = 1e-12 * P.ball_radius
    if warm_start is not None:
        x = np.array(warm_start, dtype=float)
        s = P.cut_slacks(x)
        if not P.is_interior(x, slacks=s):
            raise NotInterior("warm start is not strictly interior")
    if warm_start is None or not P.is_interior(x, margin, s):
        x = np.zeros(P.dimension)
        s = P.cut_slacks(x)
        if not P.is_interior(x, margin, s):
            x = _phase1(P)
            s = P.cut_slacks(x)

    fx = None   # F at x, carried over from an accepted line-search point
    for it in range(MAX_NEWTON_ITERS):
        if record_iterates is not None:
            record_iterates.append(x.copy())
        g = barrier_gradient(P, x, s)
        gnorm = math.sqrt(g @ g)
        step, factor = _newton_step(barrier_hessian(P, x, s), g)
        decrement = float(np.sqrt(max(0.0, -g @ step)))
        # the conic reconstruction residual equals (q/2)*|grad F|, so the
        # decrement-based stop additionally requires the certificate bound
        # (with 2x margin); the absolute gradient target implies it anyway
        xx = float(x @ x)
        q = P.ball_radius**2 - xx
        residual_ok = 0.5 * q * gnorm <= 0.5 * CONIC_RESIDUAL_SCALE * (1.0 + math.sqrt(xx))
        if gnorm <= TOL_NEWTON or (decrement <= TOL_DECREMENT and residual_ok):
            break

        if decrement <= PURE_PHASE:
            # quadratic-convergence region of the self-concordant barrier:
            # take full steps; an Armijo test here would drown in the noise
            # floor of evaluating F and stall the iteration; float dust can
            # push the full step onto the boundary, so damp once if needed
            for t in (1.0, 0.5):
                candidate = x + t * step
                s_candidate = P.cut_slacks(candidate)
                if P.is_interior(candidate, slacks=s_candidate):
                    x, s, fx = candidate, s_candidate, None
                    break
            else:
                raise NoConvergence(
                    f"full Newton step left the region at iteration {it} "
                    f"(decrement {decrement:.3e})")
            continue

        if fx is None:
            fx = barrier_value(P, x, s)
        slope = float(g @ step)
        t = 1.0
        while t > 1e-18:
            candidate = x + t * step
            s_candidate = P.cut_slacks(candidate)
            if P.is_interior(candidate, slacks=s_candidate):
                f_candidate = barrier_value(P, candidate, s_candidate)
                if f_candidate <= fx + ARMIJO * t * slope:
                    break
            t *= 0.5
        else:
            raise NoConvergence(
                f"line search stalled at iteration {it} (decrement {decrement:.3e})")
        x, s, fx = candidate, s_candidate, f_candidate
    else:
        raise NoConvergence(
            f"no center after {MAX_NEWTON_ITERS} Newton iterations "
            f"(gradient norm {gnorm:.3e})")

    logger.debug("center after %d Newton steps (|grad| %.2e)", it, gnorm)
    lambdas = q / (2.0 * s)   # q, s and factor belong to the final x
    P.center = x
    P.conic = lambdas
    P.hessian_factor = factor
    return x, lambdas


def _restart_step(beta: float) -> float:
    """Positive root of t^2 + (1 - beta) t - 1 = 0; bitwise RESTART_STEP at beta = 0."""
    return (math.sqrt((1.0 - beta)**2 + 4.0) - (1.0 - beta)) / 2.0


def dikin_restart(P: OuterApprox, cut: Cut) -> tuple[Cut, np.ndarray]:
    """Place a certified cut {x : a.x >= b} on P; returns (placed cut, warm start).

    With omega = P.center, H the barrier Hessian there, d = H^-1 a and
    sigma = sqrt(a.d) (the largest a.(x - omega) over the unit Dikin
    ellipsoid), the start is y = omega + t d / sigma: a step of H-norm t
    along the new cut's Dikin direction.

    Placement.  A central or shallow cut (b <= a.omega + KIND_TOL) is placed
    at min(b, a.omega), through omega unless its certified offset lies
    below.  A deep cut (b > a.omega + KIND_TOL) keeps its certified depth in
    the local norm up to the central restart step t0 = RESTART_STEP: it is
    placed at a.omega + beta sigma with beta = min((b - a.omega)/sigma, t0),
    so never past omega + t0 d / sigma, and beta = 0 for the other two.

    Step.  Since grad F(omega) = 0, self-concordance bounds the old barrier
    by F(y) <= F(omega) - t - log(1 - t) for t < 1, and the new term is
    -log(a.y - a.omega - beta sigma) = -log((t - beta) sigma).  Minimising
    the sum -t - log(1 - t) - log(t - beta) over beta < t < 1 sets
    -1 + 1/(1 - t) - 1/(t - beta) = 0, that is t (t - beta) = 1 - t, so t
    is the positive root of t^2 + (1 - beta) t - 1 = 0 (the deep-cut restart
    of Goffin, Luo & Ye, SIAM J. Optim. 6, 1996).  It lies in (beta, 1),
    and beta = 0 gives t0 = (sqrt(5) - 1)/2 bit for bit.

    y is interior: z = omega + d / sigma lies in the unit Dikin ellipsoid,
    hence in the closure of P, so y = (1 - t) omega + t z keeps every old
    slack, the ball's too, at least (1 - t) times its value at omega, and
    the placed cut's slack is at least (t - beta) sigma > 0.  The cost is
    one pair of triangular solves with the factor analytic_center cached.
    """
    if P.hessian_factor is None:
        raise ValueError("dikin_restart needs a computed center")
    a = cut.normal
    d, info = _potrs(P.hessian_factor, a, lower=True)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of potrs")
    sigma = math.sqrt(a @ d)
    centre = float(a @ P.center)
    if cut.offset > centre + KIND_TOL:
        offset = min(cut.offset, centre + RESTART_STEP * sigma)
        beta = (offset - centre) / sigma
    else:
        offset, beta = min(cut.offset, centre), 0.0
    return Cut(a, offset), P.center + (_restart_step(beta) / sigma) * d


def add_cut(P: OuterApprox, cut: Cut) -> OuterApprox:
    """Append a cut as given; returns a new region with the center caches
    invalidated.  Where the cut sits relative to the old center is the
    caller's choice (the cutting-plane loop places each cut with
    dikin_restart: central, shallow, or deep up to the restart point)."""
    return OuterApprox(
        dimension=P.dimension,
        ball_radius=P.ball_radius,
        cuts=P.cuts + (cut,),
        A=np.vstack((P.A, cut.normal)),
        b=np.append(P.b, cut.offset),
    )


def drop_least_binding(P: OuterApprox, max_cuts: int) -> OuterApprox:
    """Discard slack cuts until at most ``max_cuts`` remain.

    The drop ranking is the barrier weight per unit slack, lambda_i / s_i
    (equivalently: largest slack first, since both lambda_i and the ratio
    decrease in s_i).  Protected cuts are never dropped.  No-op when the cut
    count is already within budget; raises CannotDrop when a drop is needed
    but at most one cut exists or only protected cuts remain.
    """
    if len(P.cuts) <= max_cuts:
        return P
    if P.center is None or P.conic is None:
        raise ValueError("drop_least_binding needs a computed center")

    region = P
    omega = P.center
    while len(region.cuts) > max_cuts:
        if len(region.cuts) <= 1:
            raise CannotDrop("refusing to drop below a single cut")
        slacks = region.cut_slacks(omega)
        lambdas = region.conic
        candidates = [i for i, c in enumerate(region.cuts) if not c.protected]
        if not candidates:
            raise CannotDrop("all remaining cuts are protected")
        victim = min(candidates, key=lambda i: lambdas[i] / slacks[i])
        region = OuterApprox(
            dimension=region.dimension,
            ball_radius=region.ball_radius,
            cuts=region.cuts[:victim] + region.cuts[victim + 1:],
            A=np.delete(region.A, victim, axis=0),
            b=np.delete(region.b, victim),
        )
        # removing constraints keeps omega interior, so it warm-starts Newton
        omega, _ = analytic_center(region, warm_start=omega)
    return region


def inscribed_radius_estimate(P: OuterApprox) -> float:
    """Lower bound on the inscribed radius: the minimum slack at the center.

    The ball centered at omega with this radius fits inside P, so the value
    never exceeds the true inscribed radius; it undershoots by at most a
    factor around sqrt(n) * (h + 1) for h cuts.  It is what the size-floor
    stop measures, and that stop is the fallback for in-body verdicts, so
    correctness claims do rest on it.
    """
    if P.center is None:
        raise ValueError("inscribed_radius_estimate needs a computed center")
    return max(0.0, P.min_slack(P.center))
