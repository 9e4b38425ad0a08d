"""Correction heuristic: walk the test direction away from the maximizer, toward p.

This is the simple baseline: start from c = p/|p|, query the support oracle,
and while the support value still dominates c.p, add the gap times the unit
vector (p - k_c)/|p - k_c| to c and renormalize.  No convergence guarantee;
it either certifies a separating direction or gives up after N queries.
"""

from dataclasses import dataclass, field

import numpy as np

from .bodies import BodySpec, TOL_ZERO, support
from .errors import DegenerateUpdate, ZeroDirection


@dataclass(frozen=True)
class HeuristicConfig:
    max_iterations: int = 100

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True, eq=False)
class HeuristicOutcome:
    """``separator`` is None iff the loop gave up (inconclusive).

    ``trace`` holds one (c, k_c, d) triple per support query, in order;
    d = c.k_c - c.p, so d < 0 exactly when c separates.
    """

    separator: np.ndarray | None
    iterations: int
    trace: list = field(default_factory=list)

    @property
    def inconclusive(self) -> bool:
        return self.separator is None


def run_heuristic(body: BodySpec, p, cfg: HeuristicConfig = HeuristicConfig()) -> HeuristicOutcome:
    """Run the correction loop from c = p/|p|.

    Raises ZeroDirection when |p| < 1e-12 (the origin is interior to every
    body here, so callers should report membership instead of calling this),
    and DegenerateUpdate when p coincides with the maximizer while d >= 0.
    """
    p = np.asarray(p, dtype=float)
    pnorm = float(np.linalg.norm(p))
    if pnorm < TOL_ZERO:
        raise ZeroDirection("query point is numerically the origin")

    c = p / pnorm
    d = 1.0
    i = 0
    trace = []
    while d > 0.0 and i < cfg.max_iterations:
        k = support(body, c).maximizer
        d = float(c @ k - c @ p)
        trace.append((c.copy(), k.copy(), d))
        if d < 0.0:
            return HeuristicOutcome(c, i + 1, trace)
        diff = p - k
        diff_norm = float(np.linalg.norm(diff))
        if diff_norm < TOL_ZERO:
            raise DegenerateUpdate("query point coincides with the support maximizer")
        c = c + d * diff / diff_norm
        cnorm = float(np.linalg.norm(c))
        if cnorm < TOL_ZERO:
            raise DegenerateUpdate("update annihilated the test direction")
        c = c / cnorm
        i += 1
    return HeuristicOutcome(None, i, trace)
