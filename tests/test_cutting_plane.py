import math

import numpy as np
import pytest

from sepopt import (
    Cut,
    CutAnswer,
    FeasibilityProblem,
    Member,
    Witness,
    solve_feasibility,
)


def slab_oracle(threshold):
    """Exact separation oracle for {x in B_n : x_1 >= threshold}."""
    def oracle(w):
        if w[0] >= threshold:
            return Member()
        e1 = np.zeros(len(w))
        e1[0] = 1.0
        return CutAnswer(e1, offset=threshold)
    return oracle


def test_immediate_member_returns_ball_center():
    out = solve_feasibility(FeasibilityProblem(3, lambda w: Member(), r_min=1e-3))
    assert out.feasible
    assert out.iterations == 1
    assert np.array_equal(out.point, np.zeros(3))
    assert out.reason == "member"


def test_slab_problem_finds_certified_point():
    problem = FeasibilityProblem(2, slab_oracle(0.9), r_min=1e-4)
    out = solve_feasibility(problem)
    assert out.feasible
    assert out.point[0] >= 0.9  # the feasible point is member-certified
    assert np.linalg.norm(out.point) <= 1.0
    assert out.iterations <= problem.max_iterations


def test_adversarial_oracle_drives_declared_empty():
    state = {"i": 0}

    def adversary(w):
        state["i"] += 1
        a = np.array([1.0, 0.0]) if state["i"] % 2 else np.array([-1.0, 0.0])
        return CutAnswer(a, offset=float(a @ w))

    out = solve_feasibility(FeasibilityProblem(2, adversary, r_min=1e-3))
    assert not out.feasible
    assert out.reason == "size_floor"


def test_inconsistent_initial_cuts_flagged_as_empty_interior():
    cuts = (Cut(np.array([1.0, 0.0]), 0.6), Cut(np.array([-1.0, 0.0]), 0.6))
    out = solve_feasibility(
        FeasibilityProblem(2, lambda w: Member(), r_min=1e-3, initial_cuts=cuts))
    assert not out.feasible
    assert out.reason == "empty_interior"
    assert out.iterations == 0


def test_feasible_verdict_is_member_certified_in_trace():
    out = solve_feasibility(FeasibilityProblem(2, slab_oracle(0.7), r_min=1e-4))
    last = out.trace.rows[-1]
    assert last.oracle_answer == "member"
    assert np.allclose(last.center, out.point)


def test_witness_answer_stops_the_run_without_a_cut():
    witness = np.array([0.25, 0.5])
    answers = iter([CutAnswer(np.array([1.0, 0.0])), Witness(witness, support_calls=1)])
    out = solve_feasibility(FeasibilityProblem(2, lambda w: next(answers), r_min=1e-4))
    assert not out.feasible
    assert (out.reason, out.iterations) == ("witness", 2)
    assert out.point is None and out.answer.point is witness
    assert [row.oracle_answer for row in out.trace.rows] == ["cut", "witness"]
    assert out.trace.rows[-1].cut_normal is None
    assert out.trace.rows[-1].support_calls == 1
    assert len(out.region.cuts) == 1


def test_every_queried_center_is_strictly_interior():
    out = solve_feasibility(FeasibilityProblem(2, slab_oracle(0.95), r_min=1e-5))
    assert out.feasible
    for row in out.trace.rows:
        assert row.inradius > 0.0  # minimum slack at the queried center


def test_budget_exhaustion_declares_empty():
    def stubborn(w):
        return CutAnswer(np.array([1.0, 0.0]), offset=float(w[0]))

    out = solve_feasibility(
        FeasibilityProblem(2, stubborn, r_min=1e-12, max_iterations=5))
    assert not out.feasible
    assert out.reason == "iteration_budget"
    assert out.iterations == 5


def test_cut_dropping_keeps_engine_running():
    # 30 cuts tangent to the unit ball fill the engine's 2-D cap of
    # max(30, 5n) = 30 without shrinking the region, so every slab cut
    # pushes the region past the cap and forces a drop
    angles = 2.0 * math.pi * np.arange(30) / 30
    tangent = tuple(Cut(np.array([math.cos(a), math.sin(a)]), -1.0) for a in angles)
    problem = FeasibilityProblem(2, slab_oracle(0.97), r_min=1e-5, initial_cuts=tangent)
    out = solve_feasibility(problem)
    assert out.feasible
    assert out.point[0] >= 0.97
    placed = sum(row.cut_normal is not None for row in out.trace.rows)
    assert len(tangent) + placed > 30
    assert len(out.region.cuts) <= 30


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("t", [1e-1, 1e-2])
def test_iteration_count_within_hard_cap(n, t):
    problem = FeasibilityProblem(
        n, slab_oracle(1.0 - t), r_min=t * 1e-2, initial_radius=1.0)
    out = solve_feasibility(problem)
    assert out.feasible
    assert out.iterations <= 64 * n * math.log2(1.0 / t)


def test_trace_names_a_cut_shallow_only_when_its_certified_offset_binds():
    # offsets certified below, at and above e1.center; only the first is
    # placed below the center, the other two pass through it
    shifts = iter((-0.1, 0.0, 0.1))

    def oracle(w):
        shift = next(shifts, None)
        if shift is None:
            return Member()
        return CutAnswer(np.array([1.0, 0.0]), offset=float(w[0]) + shift)

    out = solve_feasibility(FeasibilityProblem(2, oracle, r_min=1e-3))
    assert out.feasible
    assert [row.cut_kind for row in out.trace.rows] == ["shallow", "central", "central", None]


def test_problem_validation():
    with pytest.raises(ValueError):
        FeasibilityProblem(2, lambda w: Member(), r_min=0.0)
    with pytest.raises(ValueError):
        FeasibilityProblem(2, lambda w: Member(), r_min=2.0, initial_radius=1.0)


def test_oracle_exceptions_propagate():
    class Boom(RuntimeError):
        pass

    def broken(w):
        raise Boom("oracle failed")

    with pytest.raises(Boom):
        solve_feasibility(FeasibilityProblem(2, broken, r_min=1e-3))
