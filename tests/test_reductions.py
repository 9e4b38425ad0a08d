import numpy as np
import pytest

from sepopt import (
    FeasibilityProblem,
    HeuristicConfig,
    Member,
    ReductionConfig,
    ball,
    correction_cut,
    distance_to_body,
    heuristic_reduction,
    random_instance,
    run_heuristic,
    separate_polar,
    separate_polar_slice,
    solve_feasibility,
    standard_reduction,
    support,
    vertex_polytope,
)
from sepopt.errors import DegenerateCut, DegenerateUpdate, DimensionMismatch
from sepopt.reductions import correction_heuristic

from conftest import (RIM_POINT, WORKED_CUTTING_INSIDE_POINT, WORKED_INNER_RADIUS,
                      WORKED_INSIDE_POINT, WORKED_OUTSIDE_POINT, WORKED_VERTICES)


# ---------------------------------------------------------- correction cuts

def test_correction_cut_orthogonal_difference():
    cut = correction_cut(np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([0.0, -1.0]))
    assert np.allclose(cut.normal, [0.0, 1.0])


def test_correction_cut_removes_projection():
    cut = correction_cut(np.array([1.0, 0.0]), np.array([1.0, 1.0]), np.array([2.0, 0.0]))
    # (p - k) = (-1, 1); removing its component along c leaves (0, 1)
    assert np.allclose(cut.normal, [0.0, 1.0])


def test_correction_cut_degenerate_when_parallel():
    with pytest.raises(DegenerateCut):
        correction_cut(np.array([1.0, 0.0]), np.array([1.0, 0.0]), np.array([3.0, 0.0]))


def test_correction_cut_rejects_separating_direction():
    with pytest.raises(ValueError):
        correction_cut(np.array([1.0, 0.0]), np.array([2.0, 0.0]), np.array([1.0, 0.0]))


def test_correction_cut_normal_is_orthogonal_to_direction():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        c = rng.normal(size=n)
        c /= np.linalg.norm(c)
        p = rng.normal(size=n)
        k = p + rng.normal(size=n) - c * abs(rng.normal())
        if float(c @ (p - k)) > 0:
            k = k + 2 * float(c @ (p - k)) * c  # force the precondition
        try:
            cut = correction_cut(c, p, k)
        except DegenerateCut:
            continue
        assert abs(float(cut.normal @ c)) <= 1e-9
        assert abs(np.linalg.norm(cut.normal) - 1.0) <= 1e-12


def test_correction_cut_preserves_separating_directions():
    # the certified halfspace keeps every still-viable direction: for any m
    # with m.(p - k) > 0 and m.c >= 0, the cut normal satisfies m.a > 0
    rng = np.random.default_rng(18)
    checked = 0
    while checked < 300:
        n = int(rng.integers(2, 6))
        c = rng.normal(size=n)
        c /= np.linalg.norm(c)
        p = rng.normal(size=n)
        k = rng.normal(size=n)
        if float(c @ (p - k)) > 0:
            continue
        m = rng.normal(size=n)
        m /= np.linalg.norm(m)
        if float(m @ (p - k)) <= 1e-9 or float(m @ c) < 0:
            continue
        try:
            cut = correction_cut(c, p, k)
        except DegenerateCut:
            continue
        checked += 1
        assert float(m @ cut.normal) > 0


# ------------------------------------------------------ direction search

def test_direction_search_separates_worked_point_in_one_call(worked_body):
    verdict = heuristic_reduction(worked_body, WORKED_OUTSIDE_POINT, 1e-3)
    assert verdict.separated
    assert verdict.oracle_calls == 1
    assert np.abs(verdict.separator).max() == pytest.approx(1.0, abs=1e-12)
    # separator is parallel to p, max-norm scaled: (-1, -6/7)
    assert verdict.separator == pytest.approx([-1.0, -6.0 / 7.0], abs=1e-12)
    assert verdict.margin > 0
    res = support(worked_body, verdict.separator)
    assert float(verdict.separator @ WORKED_OUTSIDE_POINT) - res.value == pytest.approx(
        verdict.margin, abs=1e-12)


def test_direction_search_declares_interior_point(worked_body):
    verdict = heuristic_reduction(worked_body, WORKED_INSIDE_POINT, 1e-3)
    assert not verdict.separated
    assert verdict.reason in ("witness", "size_floor", "iteration_budget")
    dist, _ = distance_to_body(worked_body, WORKED_INSIDE_POINT, tol=1e-8)
    assert dist == 0.0


def test_direction_search_on_ball():
    verdict = heuristic_reduction(ball([0.0, 0.0], 1.0), np.array([0.0, 2.0]), 1e-6)
    assert verdict.separated
    assert verdict.oracle_calls == 1
    assert verdict.separator == pytest.approx([0.0, 1.0], abs=1e-12)
    assert verdict.margin == pytest.approx(1.0, abs=1e-9)


def test_direction_search_origin_query_is_in_body(worked_body):
    verdict = heuristic_reduction(worked_body, np.zeros(2), 1e-3)
    assert not verdict.separated
    assert verdict.reason == "origin_interior"
    assert verdict.oracle_calls == 0


def test_direction_search_conic_certificate_logged(worked_body):
    verdict = heuristic_reduction(worked_body, WORKED_CUTTING_INSIDE_POINT, 1e-3)
    rows = [r for r in verdict.trace.rows if r.lambda_min is not None]
    assert rows
    for row in rows:
        assert row.lambda_min >= -1e-9
        assert row.conic_residual <= 1e-7 * (1 + np.linalg.norm(row.center))


def test_direction_search_first_query_is_p_normalized(worked_body):
    verdict = heuristic_reduction(worked_body, WORKED_INSIDE_POINT, 1e-3)
    first = np.array(verdict.trace.rows[0].query)
    expected = WORKED_INSIDE_POINT / np.linalg.norm(WORKED_INSIDE_POINT)
    assert np.allclose(first, expected, atol=1e-9)


# ------------------------------------------------------------- polar side

def test_polar_oracle_member_on_polar_vertex(worked_body):
    assert isinstance(separate_polar(worked_body, np.array([3.0, 1.0])), Member)


def test_polar_oracle_cut_outside(worked_body):
    reply = separate_polar(worked_body, np.array([0.0, 2.0]))
    assert not isinstance(reply, Member)
    assert np.array_equal(reply.support_point, [0.0, 1.0])
    # the certified plane k.x = 1 separates: k.y = 2 > 1 >= k.q on the polar
    assert float(reply.support_point @ np.array([0.0, 2.0])) > 1.0
    assert np.allclose(-reply.normal, [0.0, 1.0])
    assert -reply.offset == pytest.approx(1.0)


def test_polar_oracle_zero_vector_is_member(worked_body):
    assert isinstance(separate_polar(worked_body, np.zeros(2)), Member)


def test_polar_slice_cut_below_plane(worked_body):
    reply = separate_polar_slice(worked_body, WORKED_OUTSIDE_POINT, np.zeros(2))
    assert not isinstance(reply, Member)
    p_unit = WORKED_OUTSIDE_POINT / np.linalg.norm(WORKED_OUTSIDE_POINT)
    assert np.allclose(-reply.normal, -p_unit)


def test_polar_slice_first_branch_precedes_polar_check(worked_body):
    # p.(0,2) = -3/2 < 1, so the slice constraint fires before the polar test
    reply = separate_polar_slice(worked_body, WORKED_OUTSIDE_POINT, np.array([0.0, 2.0]))
    assert not isinstance(reply, Member)
    assert reply.support_point is None


def test_polar_slice_member_exists_for_outside_point(worked_body):
    # scale the true separating direction into the slice: y = u/(h + m/2)
    p = WORKED_OUTSIDE_POINT
    dist, witness = distance_to_body(worked_body, p, tol=1e-9)
    u = (p - witness) / np.linalg.norm(p - witness)
    h = support(worked_body, u).value
    y = u / (h + dist / 2.0)
    reply = separate_polar_slice(worked_body, p, y)
    assert isinstance(reply, Member)


def test_polar_slice_oracle_drives_the_engine_to_a_separating_member(worked_body):
    # the slice oracle answers in the engine's own types, so the engine takes
    # it as is; the final member carries the support value at its query
    p = WORKED_OUTSIDE_POINT
    outcome = solve_feasibility(FeasibilityProblem(
        2, lambda y: separate_polar_slice(worked_body, p, y),
        initial_radius=1.0 / worked_body.inner_radius))
    assert outcome.feasible
    answer = outcome.answer
    assert isinstance(answer, Member)
    assert answer.value == support(worked_body, answer.query).value
    assert float(answer.query @ p) > answer.value  # the query separates p


def test_standard_reduction_worked_point(worked_body):
    verdict = standard_reduction(worked_body, WORKED_OUTSIDE_POINT, 1e-3)
    assert verdict.separated
    assert np.abs(verdict.separator).max() == pytest.approx(1.0, abs=1e-12)
    assert verdict.margin > 0
    # the member-certified point lives in the polar slice
    y = np.array(verdict.trace.rows[-1].center)
    assert float(WORKED_OUTSIDE_POINT @ y) >= 1.0 - 1e-9
    assert support(worked_body, y).value <= 1.0 + 1e-9


def test_standard_reduction_interior_point(worked_body):
    verdict = standard_reduction(worked_body, WORKED_INSIDE_POINT, 1e-3)
    assert not verdict.separated


def test_standard_reduction_on_ball():
    verdict = standard_reduction(ball([0.0, 0.0], 1.0), np.array([0.0, 2.0]), 1e-6)
    assert verdict.separated
    assert verdict.separator == pytest.approx([0.0, 1.0], abs=1e-12)
    assert verdict.margin == pytest.approx(1.0, abs=1e-9)


def test_standard_reduction_origin_query(worked_body):
    verdict = standard_reduction(worked_body, np.zeros(2), 1e-3)
    assert not verdict.separated
    assert verdict.reason == "origin_interior"


# ------------------------------------------------------ correction heuristic

def test_correction_heuristic_out_of_budget_is_inconclusive(worked_body):
    cfg = ReductionConfig(max_iterations=40)
    verdict = correction_heuristic(worked_body, WORKED_INSIDE_POINT, 1e-3, cfg)
    assert not verdict.separated
    assert verdict.separator is None and verdict.margin is None
    assert verdict.reason == "budget"
    assert verdict.trace.verdict == "inconclusive"
    assert verdict.oracle_calls == verdict.iterations == len(verdict.trace.rows) == 40


def test_correction_heuristic_certifies_the_last_query_bitwise(worked_body):
    verdict = correction_heuristic(worked_body, WORKED_OUTSIDE_POINT, 1e-3)
    c, _, d = run_heuristic(worked_body, WORKED_OUTSIDE_POINT, HeuristicConfig(1000)).trace[-1]
    linf = float(np.abs(c).max())
    assert verdict.separated and verdict.reason == "separator"
    assert verdict.trace.verdict == "separated"
    assert np.array_equal(verdict.separator, c / linf)
    assert verdict.margin == -d / linf


def test_correction_heuristic_origin_query(worked_body):
    verdict = correction_heuristic(worked_body, np.zeros(2), 1e-3)
    assert not verdict.separated
    assert verdict.reason == "origin_interior"
    assert verdict.oracle_calls == 0 and verdict.trace.verdict == "in_body"


def test_correction_heuristic_error_outside_a_run_carries_no_trace(worked_body):
    # at the vertex (-1, 1) the first query's maximizer is p itself
    with pytest.raises(DegenerateUpdate) as info:
        correction_heuristic(worked_body, np.array([-1.0, 1.0]), 1e-3)
    assert info.value.trace is None


# ------------------------------------------------------- cross validation

def _margin_instances(count, seed_base, n_values=(2, 3, 4)):
    out = []
    for i in range(count):
        n = n_values[i % len(n_values)]
        place = "outside" if i % 2 == 0 else "inside"
        margin = 0.25 if place == "outside" else 0.1
        body, p = random_instance(n, n + 4, seed_base + i, place=place, margin=margin)
        out.append((body, p, place))
    return out


def test_reductions_agree_with_distance_oracle():
    delta = 1e-3
    for body, p, place in _margin_instances(24, seed_base=100):
        dist, _ = distance_to_body(body, p, tol=1e-5)
        expect = dist > delta
        assert expect == (place == "outside")
        for run in (heuristic_reduction, standard_reduction):
            verdict = run(body, p, delta)
            assert verdict.separated == expect, (place, run.__name__)
            if verdict.separated:
                res = support(body, verdict.separator)
                assert float(verdict.separator @ p) - res.value > 0
                assert float(verdict.separator @ p) > 0  # separators point at p


def test_correction_cut_replay_against_brute_force_direction():
    # every cut logged on an outside run keeps the true separating direction:
    # if m*.c >= 0 held when the cut was made, then m*.a > 0
    delta = 1e-3
    for i in range(12):
        n = 2 + (i % 3)
        body, p = random_instance(n, n + 5, 300 + i, place="outside", margin=0.3)
        dist, witness = distance_to_body(body, p, tol=1e-7)
        assert dist > 0
        m_star = (p - witness) / np.linalg.norm(p - witness)
        verdict = heuristic_reduction(body, p, delta)
        assert verdict.separated
        assert float(verdict.separator @ p) > 0
        for row in verdict.trace.rows:
            if row.cut_normal is None:
                continue
            c = np.array(row.query)
            if float(m_star @ c) >= 0:
                assert float(m_star @ np.array(row.cut_normal)) >= 1e-10
        # the center's conic certificate keeps m* on the viable side
        for row in verdict.trace.rows:
            assert float(m_star @ np.array(row.center)) >= -1e-6


def test_worked_instance_polar_slice_projects_onto_direction_cone(worked_body):
    # the standard route's feasible point, radially normalized, lies in the
    # direction-search's final region for the same query point
    std = standard_reduction(worked_body, WORKED_OUTSIDE_POINT, 1e-3)
    ours = heuristic_reduction(worked_body, WORKED_OUTSIDE_POINT, 1e-3)
    y = np.array(std.trace.rows[-1].center)
    y_hat = y / np.linalg.norm(y)
    assert np.linalg.norm(y_hat) <= 1.0 + 1e-12
    a1 = WORKED_OUTSIDE_POINT / np.linalg.norm(WORKED_OUTSIDE_POINT)
    assert float(a1 @ y_hat) >= -1e-12
    for row in ours.trace.rows:
        if row.cut_normal is not None:
            assert float(np.array(row.cut_normal) @ y_hat) >= row.cut_offset - 1e-9


# ------------------------------------------------------- search-state shape

def test_direction_search_region_invariants(rim_disc):
    # the final region's first cut is the protected hemisphere cut
    # a1 = p/|p| with offset min(depth, 0); every later cut came from
    # correction_cut, hence is orthogonal to the direction queried that round
    verdict = heuristic_reduction(rim_disc, RIM_POINT, 1e-8)
    region = verdict.region
    assert region is not None
    assert (verdict.reason, len(region.cuts)) == ("witness", 14)
    p_unit = RIM_POINT / np.linalg.norm(RIM_POINT)
    first = region.cuts[0]
    assert first.protected
    assert np.allclose(first.normal, p_unit, atol=1e-15)
    assert first.offset == 0.0
    assert all(not c.protected for c in region.cuts[1:])
    # replay: every logged cut is exactly the orthogonalized correction
    # direction recomputed from its own row (same inputs, same floats), and
    # its applied offset never exceeds zero
    for row in verdict.trace.rows:
        if row.cut_normal is None:
            continue
        c = np.array(row.query)
        k = np.array(row.support_point)
        diff = RIM_POINT - k
        a_bar = diff - float(c @ diff) * c
        expected = a_bar / np.linalg.norm(a_bar)
        assert np.array_equal(np.array(row.cut_normal), expected)
        assert row.cut_offset <= 1e-15


DIAMOND = [[1.0, 0.0], [-1.0, 0.0], [0.0, 0.5], [0.0, -0.5]]


@pytest.mark.parametrize("delta", [1e-3, 1e-6, 1e-10, 1e-13])
@pytest.mark.parametrize("vertices, inner_radius, p", [
    (DIAMOND, 0.44, [0.5, 0.0]),
    (WORKED_VERTICES, WORKED_INNER_RADIUS, WORKED_INSIDE_POINT),
], ids=["diamond", "worked2d_inside"])
def test_degenerate_first_query_is_an_in_body_witness(vertices, inner_radius, p, delta):
    # p lies on the segment from the origin to the support point k of its own
    # direction, so p - k is parallel to the query and admits no correction
    # cut; the segment [0, k] lies in the body and passes through p
    body = vertex_polytope(vertices, inner_radius=inner_radius)
    p = np.asarray(p, dtype=float)
    verdict = heuristic_reduction(body, p, delta)
    assert (verdict.trace.verdict, verdict.reason) == ("in_body", "witness")
    assert verdict.oracle_calls == 1
    [row] = verdict.trace.rows
    assert row.oracle_answer == "witness"
    assert row.cut_normal is None
    assert np.allclose(row.query, p / np.linalg.norm(p), rtol=0.0, atol=1e-12)


def test_degenerate_query_beyond_delta_of_its_segment_raises(monkeypatch):
    # forced degenerate: the first query's support point is the vertex (-1, 1),
    # whose segment from the origin passes 0.025 sqrt(2) from p = (-0.4, 0.45);
    # with an inner radius of 1e-6 the hull of that vertex and the inner ball
    # is no closer, so at delta 0.03 no witness exists
    import sepopt.reductions as red

    def degenerate(c, p, k_c):
        raise DegenerateCut("forced")

    monkeypatch.setattr(red, "correction_cut", degenerate)
    body = vertex_polytope(WORKED_VERTICES, inner_radius=1e-6)
    p = WORKED_CUTTING_INSIDE_POINT
    verdict = red.heuristic_reduction(body, p, 0.05)
    assert (verdict.reason, verdict.oracle_calls) == ("witness", 1)
    assert verdict.trace.rows[0].support_point.tolist() == [-1.0, 1.0]
    with pytest.raises(DegenerateCut) as info:
        red.heuristic_reduction(body, p, 0.03)
    # the raising query is in no row
    assert (info.value.trace.verdict, info.value.trace.rows) == ("error", [])


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
@pytest.mark.parametrize("seed", range(6))
def test_degenerate_witness_is_a_certificate(n, seed):
    # p = t v for a vertex v that is its own support point in direction v/|v|:
    # the first query is degenerate, the hull holds the segment [0, v], and
    # its witness must be a point of the polytope within delta of p
    from scipy.spatial import ConvexHull

    body, _ = random_instance(n, n + 4, seed, place="inside", margin=0.1)
    verts = body.variant.vertices
    hull = ConvexHull(verts)
    own = [v for i, v in enumerate(verts) if np.argmax(verts @ v) == i]
    assert own
    for v in own:
        for t in (0.3, 0.9, 1.0):
            p = t * v
            for delta in (1e-3, 1e-13):
                verdict = heuristic_reduction(body, p, delta)
                assert (verdict.reason, verdict.oracle_calls) == ("witness", 1)
                x = verdict.witness
                assert (hull.equations[:, :-1] @ x + hull.equations[:, -1]).max() <= 1e-12
                assert float(np.linalg.norm(x - p)) <= delta


@pytest.mark.parametrize("delta", [1e-3, 1e-13])
@pytest.mark.parametrize("point", [WORKED_INSIDE_POINT, WORKED_OUTSIDE_POINT],
                         ids=["inside", "outside"])
def test_direction_search_queries_no_centre_within_r_min_of_the_origin(worked_body, point,
                                                                      delta, monkeypatch):
    # the engine queries only at a radius estimate >= r_min, and the axis
    # cut's slack bounds the estimate by |omega|; at delta = 1e-13, r_min
    # lies below TOL_ZERO, so no zero-centre check could stand in for this
    import sepopt.reductions as red
    from sepopt.bodies import TOL_ZERO
    from sepopt.errors import SepoptError

    queried = []
    real_solve = red.solve_feasibility

    def recording_solve(problem):
        oracle = problem.oracle

        def recorded(omega):
            queried.append((float(np.linalg.norm(omega)), problem.r_min))
            return oracle(omega)

        problem.oracle = recorded
        return real_solve(problem)

    monkeypatch.setattr(red, "solve_feasibility", recording_solve)
    try:
        red.heuristic_reduction(worked_body, point, delta)
    except SepoptError:
        pass  # the centres queried before a float-precision failure still count
    assert queried
    assert all(norm >= r_min > 0 for norm, r_min in queried)
    if delta == 1e-13:
        assert queried[0][1] < TOL_ZERO


@pytest.mark.parametrize("p, error", [
    (np.array([np.nan, 0.5]), ValueError),
    (np.array([-0.5, np.inf]), ValueError),
    (np.array([-0.5, 0.5, 0.0]), DimensionMismatch),
], ids=["nan", "inf", "wrong-length"])
@pytest.mark.parametrize("route", [heuristic_reduction, standard_reduction],
                         ids=["ours", "standard"])
def test_reductions_reject_a_bad_query_point_before_any_support_call(worked_body, route, p,
                                                                     error, monkeypatch):
    import sepopt.reductions as red

    def no_support(body, c):
        raise AssertionError("support called")

    monkeypatch.setattr(red, "support", no_support)
    with pytest.raises(error, match="query point"):
        route(worked_body, p, 1e-3)


def test_reductions_on_affine_image_body(worked_body):
    from sepopt import affine_image

    A = np.array([[1.4, 0.3], [-0.2, 0.9]])
    img = affine_image(worked_body, A, np.array([0.05, -0.04]))
    p_out = A @ WORKED_OUTSIDE_POINT * 1.6
    dist, _ = distance_to_body(img, p_out, tol=1e-6)
    assert dist > 1e-3
    for run in (heuristic_reduction, standard_reduction):
        verdict = run(img, p_out, 1e-3)
        assert verdict.separated
        res = support(img, verdict.separator)
        assert float(np.asarray(verdict.separator) @ p_out) - res.value > 0


def test_higher_dimensional_smoke():
    body, p = random_instance(16, 24, 3, place="outside", margin=0.3)
    ours = heuristic_reduction(body, p, 1e-3)
    std = standard_reduction(body, p, 1e-3)
    assert ours.separated and std.separated
    for verdict in (ours, std):
        res = support(body, verdict.separator)
        assert float(np.asarray(verdict.separator) @ p) - res.value > 0
