import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sepopt import (
    Member,
    affine_image,
    ball,
    distance_to_body,
    random_instance,
    separate_polar,
    support,
    vertex_polytope,
)
from sepopt.bodies import TOL_SUPPORT, TOL_ZERO
from sepopt.errors import DimensionMismatch, ZeroDirection

from conftest import (
    WORKED_OUTSIDE_POINT,
    WORKED_POLAR_VERTICES,
    WORKED_VERTICES,
    make_origin_body,
    polygon_distance_2d,
    random_convex_combination,
)


# ---------------------------------------------------------------- support

def test_support_on_unit_ball_is_scaled_direction():
    b = ball([0.0, 0.0], 1.0)
    res = support(b, np.array([3.0, 4.0]))
    assert np.allclose(res.maximizer, [0.6, 0.8])
    assert res.value == pytest.approx(5.0, abs=1e-12)


def test_support_on_worked_polytope(worked_body):
    res = support(worked_body, WORKED_OUTSIDE_POINT)
    # vertex values are -3/4, 1/8, 7/8, 5/8
    assert np.array_equal(res.maximizer, [-1.0, 0.0])
    assert res.value == 7.0 / 8.0
    assert res.index == 2


def test_support_tie_breaks_to_lowest_index(worked_body):
    res = support(worked_body, np.array([0.0, 1.0]))
    # (0,1) and (-1,1) both give value 1; the lower index wins
    assert res.index == 0
    assert np.array_equal(res.maximizer, [0.0, 1.0])
    assert res.value == 1.0


def test_support_rejects_zero_direction(worked_body):
    with pytest.raises(ZeroDirection):
        support(worked_body, np.zeros(2))


def test_support_rejects_wrong_dimension(worked_body):
    with pytest.raises(DimensionMismatch):
        support(worked_body, np.ones(3))


def test_support_matches_vertex_scan_exactly():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(2, 5))
        verts = rng.normal(size=(int(rng.integers(n + 1, 9)), n))
        body = vertex_polytope(verts, inner_radius=1e-6,
                               outer_radius=float(np.linalg.norm(verts, axis=1).max()))
        c = rng.normal(size=n)
        res = support(body, c)
        dots = verts @ c
        assert res.value == dots.max()
        assert res.index == int(np.argmax(dots))
        assert np.array_equal(res.maximizer, verts[res.index])


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2**31 - 1))
def test_support_dominates_convex_combinations(n, seed):
    rng = np.random.default_rng(seed)
    body = make_origin_body(n, rng.uniform(0.4, 2.0, size=n),
                            extras=rng.normal(size=(2, n)))
    c = rng.normal(size=n)
    res = support(body, c)
    for _ in range(20):
        x = random_convex_combination(rng, body.variant.vertices)
        assert float(c @ x) <= res.value + TOL_SUPPORT


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2**31 - 1))
def test_inner_ball_witnessed_by_support(n, seed):
    rng = np.random.default_rng(seed)
    body = make_origin_body(n, rng.uniform(0.4, 2.0, size=n))
    c = rng.normal(size=n)
    c /= np.linalg.norm(c)
    assert support(body, c).value >= body.inner_radius - 1e-9


def test_affine_image_composes_the_oracle(worked_body):
    rng = np.random.default_rng(3)
    A = rng.normal(size=(2, 2)) + 2.0 * np.eye(2)
    shift = np.array([0.05, -0.02])
    img = affine_image(worked_body, A, shift)
    verts = np.asarray(WORKED_VERTICES) @ A.T + shift
    for _ in range(50):
        c = rng.normal(size=2)
        res = support(img, c)
        assert res.value == pytest.approx((verts @ c).max(), abs=1e-10)


# ---------------------------------------------------------------- distance

def test_distance_zero_for_interior_point(worked_body):
    # (-0.5, 0.5) = midpoint of (0,1) and (-1,0); interior because (-1,1)
    # pushes the hull beyond that segment
    dist, witness = distance_to_body(worked_body, np.array([-0.5, 0.5]), tol=1e-9)
    assert dist == 0.0
    assert np.linalg.norm(witness - [-0.5, 0.5]) <= 1e-9


def test_distance_radial_for_ball():
    dist, witness = distance_to_body(ball([0.0, 0.0], 1.0), np.array([2.0, 0.0]), tol=1e-9)
    assert dist == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(witness, [1.0, 0.0], atol=1e-9)


def test_distance_on_worked_outside_point(worked_body):
    # exact value 5*sqrt(2)/16, the projection onto the bottom edge
    dist, witness = distance_to_body(worked_body, WORKED_OUTSIDE_POINT, tol=1e-9)
    expected = 5.0 * np.sqrt(2.0) / 16.0
    assert dist == pytest.approx(expected, abs=1e-9)
    assert dist > 0
    assert np.allclose(witness, [-9.0 / 16.0, -7.0 / 16.0], atol=1e-8)
    assert dist == pytest.approx(
        polygon_distance_2d(WORKED_VERTICES, WORKED_OUTSIDE_POINT), abs=1e-9)


def test_distance_matches_edge_oracle_on_random_2d_points(worked_body):
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = rng.uniform(-3, 3, size=2)
        dist, witness = distance_to_body(worked_body, p, tol=1e-8)
        assert dist == pytest.approx(polygon_distance_2d(WORKED_VERTICES, p), abs=1e-7)
        wdist, _ = distance_to_body(worked_body, witness, tol=1e-8)
        assert wdist == 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2**31 - 1))
def test_distance_zero_on_hull_points(n, seed):
    rng = np.random.default_rng(seed)
    body = make_origin_body(n, rng.uniform(0.4, 2.0, size=n),
                            extras=rng.normal(size=(2, n)))
    p = random_convex_combination(rng, body.variant.vertices)
    dist, _ = distance_to_body(body, p, tol=1e-6)
    assert dist == 0.0


def test_distance_triangle_consistency(worked_body):
    rng = np.random.default_rng(5)
    tol = 1e-6
    for _ in range(30):
        p = rng.uniform(-3, 3, size=2)
        q = rng.uniform(-3, 3, size=2)
        dp, _ = distance_to_body(worked_body, p, tol=tol)
        dq, _ = distance_to_body(worked_body, q, tol=tol)
        assert abs(dp - dq) <= np.linalg.norm(p - q) + 2 * tol


# ---------------------------------------------------------------- polar

def test_polar_membership_boundary_point(worked_body):
    res = separate_polar(worked_body, np.array([3.0, 1.0]))
    assert isinstance(res, Member)  # support value is exactly 1


def test_polar_membership_outside_with_separator(worked_body):
    res = separate_polar(worked_body, np.array([0.0, 2.0]))
    assert not isinstance(res, Member)
    assert np.array_equal(res.support_point, [0.0, 1.0])
    assert float(res.support_point @ np.array([0.0, 2.0])) > 1.0


def test_polar_membership_zero_vector(worked_body):
    assert isinstance(separate_polar(worked_body, np.zeros(2)), Member)


def test_polar_duality_between_worked_hulls(worked_body, worked_polar_body):
    # each polar vertex supports exactly 1 over the body, and vice versa
    for q in WORKED_POLAR_VERTICES:
        assert support(worked_body, np.asarray(q, dtype=float)).value == pytest.approx(1.0, abs=1e-12)
    for v in WORKED_VERTICES:
        assert support(worked_polar_body, np.asarray(v, dtype=float)).value == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------- generator

def test_random_instance_outside_margin_verified():
    body, p = random_instance(2, 4, 7, place="outside", margin=0.2)
    dist, _ = distance_to_body(body, p, tol=1e-6)
    assert dist >= 0.2


def test_distance_stops_when_the_iterate_reaches_the_point(worked_body):
    # at tol 1e-14 the iterate reaches p = (-0.5, 0.5) to within TOL_ZERO, and
    # the next support direction x - p would be numerically zero; the 0.0
    # certifies dist <= max(tol, TOL_ZERO)
    p = np.array([-0.5, 0.5])
    dist, x = distance_to_body(worked_body, p, tol=1e-14)
    assert dist == 0.0
    assert float(np.linalg.norm(x - p)) <= TOL_ZERO


def test_distance_does_not_stop_on_an_away_atom_of_zero_weight():
    # a full toward step leaves the older atoms at weight 0.0; an away step
    # from one of them has no room (gamma_max 0) and must not end the
    # iteration at an unconverged iterate
    body, p = random_instance(2, 6, 144, place="outside", margin=0.05)
    exact = polygon_distance_2d(body.variant.vertices, p)
    assert exact >= 0.05
    dist, _ = distance_to_body(body, p)
    assert dist == pytest.approx(exact, abs=1e-8)


def test_random_instance_inside_margin_verified():
    body, p = random_instance(3, 8, 1, place="inside", margin=0.1)
    rng = np.random.default_rng(99)
    for _ in range(100):
        c = rng.normal(size=3)
        c /= np.linalg.norm(c)
        assert support(body, c).value >= float(c @ p) + 0.1 * (1 - 1e-9)


def test_random_instance_deterministic_in_seed():
    body1, p1 = random_instance(4, 9, 42, place="outside", margin=0.3)
    body2, p2 = random_instance(4, 9, 42, place="outside", margin=0.3)
    assert np.array_equal(body1.variant.vertices, body2.variant.vertices)
    assert np.array_equal(p1, p2)
    assert body1.inner_radius == body2.inner_radius


def test_random_instance_matches_golden_file():
    from sepopt import load_instance

    body, p = random_instance(2, 3, 0, place="outside", margin=0.5)
    golden = load_instance("tests/data/golden_n2_m3_s0_outside.json")
    assert np.array_equal(body.variant.vertices, golden.body.variant.vertices)
    assert np.array_equal(p, golden.query_point)
    assert body.inner_radius == golden.body.inner_radius
    assert body.outer_radius == golden.body.outer_radius


def test_random_instance_inner_radius_is_exact():
    body, _ = random_instance(3, 10, 5, place="outside", margin=0.2)
    rng = np.random.default_rng(123)
    floor = min(
        support(body, u / np.linalg.norm(u)).value
        for u in rng.normal(size=(500, 3))
    )
    assert floor >= body.inner_radius - 1e-9


def test_random_instance_validates_arguments():
    with pytest.raises(ValueError):
        random_instance(1, 4, 0)
    with pytest.raises(ValueError):
        random_instance(3, 3, 0)
    with pytest.raises(ValueError):
        random_instance(2, 4, 0, place="nowhere")


def test_bodyspec_validation_rejects_bad_radii():
    with pytest.raises(ValueError):
        vertex_polytope([[0.0, 1.0], [1.0, 0.0], [-1.0, -1.0]],
                        inner_radius=2.0, outer_radius=1.0)
    with pytest.raises(ValueError):
        ball([0.9, 0.0], 0.5)  # origin outside


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_instance_serialization_roundtrips_exactly(seed):
    import json as _json

    from sepopt import Instance, dump_instance
    from sepopt.instances import parse_instance

    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    verts = rng.normal(size=(n + 2, n)) * rng.uniform(0.5, 3.0)
    body = vertex_polytope(verts, inner_radius=1e-9)
    inst = Instance(body, rng.normal(size=n) * 10, float(rng.uniform(1e-9, 1.0)))
    text = dump_instance(inst)
    again = parse_instance(_json.loads(text))
    assert np.array_equal(again.body.variant.vertices, verts)
    assert np.array_equal(again.query_point, inst.query_point)
    assert again.delta == inst.delta
    assert dump_instance(again) == text
