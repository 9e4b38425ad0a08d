"""The in-body witness kernel (``bodies.HullWitness``) and its screen.

Points are fed to the kernel as a run feeds it support maximizers, one at a
time.  A returned witness must be a convex combination of the kernel's own
atoms (recorded points, or ball atoms of norm r0) within delta of p, and
after every call the kept bound beta must hold for the hull: every atom lies
in {y : u.y <= u.p - beta}, so beta <= dist(p, hull), which an NNLS solve of
the distance bounds from above.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import nnls

import sepopt
import sepopt.bodies as bodies
from sepopt import affine_image, ball, heuristic_reduction, standard_reduction
from sepopt.bodies import HullWitness

from conftest import WORKED_CUTTING_INSIDE_POINT, WORKED_VERTICES

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))


def hull_distance(points, p, weight=1e4):
    """dist(p, conv(points)) from above: NNLS with a heavily weighted sum-1 row."""
    a = np.vstack([np.asarray(points).T, weight * np.ones(len(points))])
    lam, _ = nnls(a, np.append(p, weight))
    return float(np.linalg.norm(lam @ np.asarray(points) - p))


def check_state(hull, points, r0):
    # the corral's weights make x a convex combination of recorded atoms
    atoms = hull.atoms[:hull.count]
    assert len(set(hull.corral)) == len(hull.corral)
    assert (hull.weights > 0.0).all()
    assert abs(float(hull.weights.sum()) - 1.0) <= 1e-12
    recorded = {np.asarray(k).tobytes() for k in points}
    for a in atoms:
        assert a.tobytes() in recorded or np.linalg.norm(a) <= r0 * (1 + 1e-12)
    # beta's halfspace holds every atom and the inner ball
    top = max(r0, float((atoms @ hull.u).max()))
    assert abs(float(np.linalg.norm(hull.u)) - 1.0) <= 1e-12
    assert float(hull.u @ hull.p) - top >= hull.beta - 1e-12


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([2, 4, 8]), extra=st.integers(1, 12),
       seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([0.5, 0.95, 1.05, 1.5]),
       delta=st.sampled_from([1e-1, 1e-3, 1e-8]))
def test_witness_is_a_convex_combination_of_atoms_and_beta_bounds_the_distance(
        n, extra, seed, scale, delta):
    rng = np.random.default_rng(seed)
    verts = rng.normal(size=(n + extra, n))
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    u = rng.normal(size=n)
    p = scale * u / np.linalg.norm(u)
    r0 = float(rng.choice([1e-9, 0.05, 0.3]))
    hull = HullWitness(p, delta, r0)
    seen = []
    for k in verts:
        seen.append(k)
        x = hull.add(k)
        check_state(hull, seen, r0)
        # beta <= dist(p, conv(seen, B(0, r0))) <= dist(p, conv(seen, 0))
        assert hull.beta <= hull_distance(seen + [np.zeros(n)], p) + 1e-6
        if x is not None:
            assert np.array_equal(x, hull.weights @ hull.atoms[hull.corral])
            assert float(np.linalg.norm(x - p)) <= delta
            break


@pytest.mark.parametrize("delta", [1e-3, 1e-6, 1e-10, 1e-13])
@pytest.mark.parametrize("route", [heuristic_reduction, standard_reduction],
                         ids=["ours", "standard"])
def test_worked_cutting_point_stops_on_a_witness_at_every_delta(route, delta, worked_body):
    # (-0.4, 0.45) lies in the triangle of the worked polytope's first support
    # point and the inner disc, so one call settles it on both routes, even
    # where the size floor's small-delta runs used to raise NoConvergence
    verdict = route(worked_body, WORKED_CUTTING_INSIDE_POINT, delta)
    assert (verdict.trace.verdict, verdict.reason, verdict.oracle_calls) == \
        ("in_body", "witness", 1)
    assert verdict.trace.rows[-1].oracle_answer == "witness"
    x = verdict.witness
    assert float(np.linalg.norm(x - WORKED_CUTTING_INSIDE_POINT)) <= delta
    # x lies in the worked polytope: every facet inequality holds
    from scipy.spatial import ConvexHull
    eq = ConvexHull(np.array(WORKED_VERTICES)).equations
    assert (eq[:, :-1] @ x + eq[:, -1]).max() <= 1e-12


def test_separated_verdicts_carry_no_witness(worked_body):
    verdict = heuristic_reduction(worked_body, [-0.875, -0.75], 1e-3)
    assert verdict.separated and verdict.witness is None


@pytest.mark.parametrize("kind", ["poly", "ellipsoid"])
@pytest.mark.parametrize("n", [4, 8])
def test_no_witness_fires_on_certified_just_out_points(kind, n, monkeypatch):
    # perfbench's just-out points lie a certified distance > delta from the
    # body, and the hull lies in the body, so the kernel must never answer
    from families import make_case, make_shape

    answers = []
    real_add = bodies.HullWitness.add

    def add(self, k):
        answers.append(real_add(self, k))
        return answers[-1]

    monkeypatch.setattr(bodies.HullWitness, "add", add)
    delta = 1e-3
    for seed in range(3):
        rng = np.random.default_rng([seed, n])
        case = make_case(make_shape(kind, n, rng), "just-out", rng, delta)
        assert case.certified_distance > delta
        body = case.shape.build(sepopt)
        for route in (heuristic_reduction, standard_reduction):
            assert route(body, case.p, delta).separated
    assert answers and all(x is None for x in answers)


def test_ellipsoid_witness_lies_in_the_body():
    # just inside an ellipse: the witness is a point of the body by closed form
    m = np.array([[2.0, 0.5], [0.5, 0.7]])
    body = affine_image(ball(np.zeros(2), 1.0), m)
    u = np.array([0.6, -0.8])
    p = 0.99 * u / np.linalg.norm(np.linalg.solve(m, u))
    for route in (heuristic_reduction, standard_reduction):
        verdict = route(body, p, 1e-3)
        assert verdict.reason == "witness"
        assert float(np.linalg.norm(np.linalg.solve(m, verdict.witness))) <= 1.0 + 1e-12
        assert float(np.linalg.norm(verdict.witness - p)) <= 1e-3


def test_point_inside_the_inner_ball_is_a_witness_at_the_first_call():
    # p lies inside B(0, r0), which the hull holds before any point is recorded
    p = np.array([0.1, 0.05])
    x = HullWitness(p, 1e-12, 0.3).add(np.array([-1.0, 1.0]))
    assert x is not None and float(np.linalg.norm(x - p)) <= 1e-12


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize costs about 0.1 s to import; sepopt must not pull it in
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = "import sys, sepopt; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.strip() == "False"
