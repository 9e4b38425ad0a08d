import numpy as np
import pytest

from sepopt import ball, vertex_polytope

# The 2-D worked instance used throughout: a four-vertex polytope with the
# origin strictly inside (inner radius 1/sqrt(10), attained at the edge
# between the last and first vertices), and a query point just outside the
# long bottom edge.
WORKED_VERTICES = [[0.0, 1.0], [-1.0, 1.0], [-1.0, 0.0], [1.0, -2.0]]
WORKED_POLAR_VERTICES = [[0.0, 1.0], [-1.0, 0.0], [-1.0, -1.0], [3.0, 1.0]]
WORKED_OUTSIDE_POINT = np.array([-7.0 / 8.0, -3.0 / 4.0])
WORKED_INSIDE_POINT = np.array([-0.5, 0.5])
# WORKED_INSIDE_POINT lies on the segment from the origin to the vertex
# (-1, 1), so the direction search's first query certifies it in-body at once;
# this inside point makes the search cut until the size floor instead
WORKED_CUTTING_INSIDE_POINT = np.array([-0.4, 0.45])
WORKED_INNER_RADIUS = 1.0 / np.sqrt(10.0)
# Every support point is a point of the body, so an in-body run stops once
# their hull (with the inner ball) holds a point within delta of p.  A disc
# with a declared inner radius of 1e-3 and a query point 1e-9 inside its rim
# keeps the hull away from p for many cuts: ``ours`` cuts 14 times before its
# witness at delta 1e-8, and at delta 1e-13 (``ours``) or 1e-4 (``standard``)
# the run raises NoConvergence first.
RIM_DISC_CENTER = np.array([0.25, 0.0])
RIM_DISC_INNER_RADIUS = 1e-3
RIM_POINT = RIM_DISC_CENTER + (1.0 - 1e-9) * np.array([0.5, np.sqrt(3.0) / 2.0])


@pytest.fixture
def worked_body():
    return vertex_polytope(WORKED_VERTICES, inner_radius=WORKED_INNER_RADIUS)


@pytest.fixture
def rim_disc():
    return ball(RIM_DISC_CENTER, 1.0, inner_radius=RIM_DISC_INNER_RADIUS)


@pytest.fixture
def worked_polar_body():
    # polar of the worked polytope; its own inner radius is 1/sqrt(5)
    # (nearest polar facet corresponds to the primal vertex (1, -2))
    return vertex_polytope(WORKED_POLAR_VERTICES, inner_radius=1.0 / np.sqrt(5.0))


def segment_distance(p, a, b):
    """Exact point-to-segment distance."""
    d = b - a
    denom = float(d @ d)
    t = 0.0 if denom == 0.0 else float((p - a) @ d) / denom
    t = min(1.0, max(0.0, t))
    return float(np.linalg.norm(p - (a + t * d)))


def polygon_distance_2d(vertices, p):
    """Independent 2-D distance oracle: exact projection onto hull edges.

    Works by brute force over all vertex pairs (edges of the hull are a
    subset), plus an interior test via the sign pattern of cross products
    around the hull boundary.
    """
    from scipy.spatial import ConvexHull

    verts = np.asarray(vertices, dtype=float)
    p = np.asarray(p, dtype=float)
    hull = ConvexHull(verts)
    ring = verts[hull.vertices]
    m = len(ring)
    inside = True
    sign = 0.0
    for i in range(m):
        a, b = ring[i], ring[(i + 1) % m]
        cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
        if cross != 0.0:
            if sign == 0.0:
                sign = np.sign(cross)
            elif np.sign(cross) != sign:
                inside = False
                break
    if inside:
        return 0.0
    return min(segment_distance(p, ring[i], ring[(i + 1) % m]) for i in range(m))


def make_origin_body(n, scales, extras=()):
    """Cross-polytope around the origin (vertices +-s_i e_i) plus extra points.

    Always full-dimensional with the origin interior; s_min/sqrt(n) is a
    valid (possibly loose) inner radius, which keeps generated bodies honest
    without a hull computation.
    """
    scales = np.asarray(scales, dtype=float)
    assert scales.shape == (n,) and np.all(scales > 0)
    axis = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = scales[i]
        axis.append(e.copy())
        axis.append(-e)
    verts = np.array(axis + [np.asarray(v, dtype=float) for v in extras])
    r0 = float(scales.min()) / np.sqrt(n) * 0.999
    return vertex_polytope(verts, inner_radius=r0)


def random_convex_combination(rng, vertices):
    w = rng.uniform(size=len(vertices))
    w = w / w.sum()
    return w @ vertices
