"""Separation from support-function optimization.

Given a convex body known only through a linear-optimization (support)
oracle, decide whether a query point lies in the body or produce a certified
separating direction.  Two routes are provided: a direction-space search
whose analytic centers stay inside the cone of cut normals (so every probe
direction is provably still worth testing), and the classical feasibility run
over the polar slice.  A Frank-Wolfe distance oracle built on the same
support calls serves as independent ground truth, and a comparison harness
benchmarks the two routes against it.
"""

from .analytic_center import (
    Cut,
    OuterApprox,
    add_cut,
    analytic_center,
    barrier_gradient,
    barrier_hessian,
    barrier_value,
    drop_least_binding,
    inscribed_radius_estimate,
)
from .bodies import (
    affine_image,
    ball,
    distance_to_body,
    random_instance,
    support,
    vertex_polytope,
)
from .cutting_plane import CutAnswer, FeasibilityProblem, Member, solve_feasibility
from .heuristic import HeuristicConfig, run_heuristic
from .instances import Instance, dump_instance, load_instance
from .reductions import (
    ReductionConfig,
    correction_cut,
    heuristic_reduction,
    separate_polar,
    separate_polar_slice,
    standard_reduction,
)

__version__ = "0.1.0"

__all__ = [
    "affine_image", "ball", "distance_to_body", "random_instance", "support",
    "vertex_polytope",
    "HeuristicConfig", "run_heuristic",
    "Cut", "OuterApprox", "add_cut", "analytic_center", "barrier_gradient",
    "barrier_hessian", "barrier_value", "drop_least_binding",
    "inscribed_radius_estimate",
    "CutAnswer", "FeasibilityProblem", "Member", "solve_feasibility",
    "ReductionConfig", "correction_cut", "heuristic_reduction", "separate_polar",
    "separate_polar_slice", "standard_reduction",
    "Instance", "dump_instance", "load_instance",
    "__version__",
]
