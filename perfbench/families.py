"""Body families, query placements and exact ground truth.

Raw arrays come from ``numpy.random.default_rng``; the sepopt bodies are
built from them through the public factories (``vertex_polytope``,
``ball``, ``affine_image``), which is the only part of this module that the
set-up timer counts.  Ground truth never calls sepopt:

- ellipsoid ``M B``: membership |M^-1 x| <= 1, radial function
  rho(u) = 1/|M^-1 u|, support h(c) = |M c| (M is symmetric);
- cloud, a point cloud whose hull is the cube ``M [-1, 1]^n``:
  rho(u) = 1/|M^-1 u|_inf, h(c) = |M c|_1;
- ball B(z, r): rho(u) solves |rho u - z| = r, h(c) = c.z + r |c|;
- vertex polytope V: rho(u) = 1/max{u.a : V a <= 1} by ``linprog``, whose
  optimal ``a`` is the supporting hyperplane at rho(u) u; h(c) = max V c.

An outside point p = s u (s > rho) gets the certified lower bound
dist(p, K) >= (a.p - h(a)) / |a| from the supporting normal ``a`` at rho u.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

# placement name -> radius along u as a function of (rho, r0)
PLACEMENTS = {
    "far": lambda rho, r0: 1.5 * rho,
    "just-out": lambda rho, r0: 1.01 * rho,
    "just-in": lambda rho, r0: 0.99 * rho,
    "mid-in": lambda rho, r0: 0.5 * (r0 + rho),
}
OUTSIDE_PLACEMENTS = ("far", "just-out")
CLOUD_ROWS = 2 ** 19


def unit(rng, n):
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


def orthogonal(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


@dataclass(eq=False)
class Shape:
    """Raw description of one body: ``kind`` is poly, ellipsoid, cloud or ball.

    ``data`` is the vertex array for poly, the center for ball and the
    symmetric map M otherwise; ``vertices`` is the factory's input for poly
    and cloud; ``r0`` is the certified inner radius handed to the factory and
    ``radius`` the ball's radius.
    """

    kind: str
    n: int
    data: np.ndarray
    r0: float
    radius: float = 0.0
    vertices: np.ndarray | None = None

    def build(self, sepopt):
        """The sepopt body, built through the public factories."""
        if self.kind == "poly":
            return sepopt.vertex_polytope(self.vertices, inner_radius=self.r0, outer_radius=1.0)
        if self.kind == "ellipsoid":
            return sepopt.affine_image(sepopt.ball(np.zeros(self.n), 1.0), self.data)
        if self.kind == "ball":
            return sepopt.ball(self.data, self.radius)
        return sepopt.vertex_polytope(self.vertices, inner_radius=self.r0)

    @property
    def rows(self):
        """Rows one support query scans: vertices, or the map's rows."""
        if self.vertices is not None:
            return len(self.vertices)
        return self.n if self.kind == "ellipsoid" else 1

    # ---- exact ground truth -------------------------------------------

    def support_value(self, c):
        c = np.asarray(c, dtype=float)
        if self.kind == "poly":
            return float((self.data @ c).max())
        if self.kind == "ellipsoid":
            return float(np.linalg.norm(self.data @ c))
        if self.kind == "ball":
            return float(c @ self.data) + self.radius * float(np.linalg.norm(c))
        return float(np.abs(self.data @ c).sum())

    def boundary(self, u):
        """(rho(u), unit normal of a supporting hyperplane at rho(u) u)."""
        if self.kind == "poly":
            res = linprog(-u, A_ub=self.data, b_ub=np.ones(len(self.data)),
                          bounds=[(None, None)] * self.n, method="highs")
            if res.status != 0:
                raise RuntimeError(f"radial LP failed: {res.message}")
            a = res.x
            return 1.0 / float(u @ a), a / np.linalg.norm(a)
        if self.kind == "ball":
            uz = float(u @ self.data)
            rho = uz + np.sqrt(uz * uz - float(self.data @ self.data) + self.radius ** 2)
            return float(rho), (rho * u - self.data) / self.radius
        y = np.linalg.solve(self.data, u)
        if self.kind == "ellipsoid":
            rho = 1.0 / float(np.linalg.norm(y))
            a = np.linalg.solve(self.data, y)       # M^-2 u, gradient of |M^-1 x|^2
        else:
            i = int(np.argmax(np.abs(y)))
            rho = 1.0 / abs(float(y[i]))
            a = np.linalg.solve(self.data, np.sign(y[i]) * np.eye(self.n)[i])
        return rho, a / np.linalg.norm(a)


def cube_vertices(m):
    """The 2^n vertices M s, s in {-1, 1}^n, as one float array."""
    n = m.shape[0]
    signs = ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1) * 2.0 - 1.0
    return signs @ m.T


def make_shape(kind, n, rng):
    if kind == "ball":
        center = 0.5 * rng.uniform() * unit(rng, n)
        return Shape(kind, n, center, 1.0 - float(np.linalg.norm(center)), 1.0)
    if kind == "poly":
        extra = rng.normal(size=(4 * n, n))
        extra /= np.linalg.norm(extra, axis=1, keepdims=True)
        eye = np.eye(n)
        verts = np.vstack([eye, -eye, extra])
        return Shape(kind, n, verts, 0.999 / np.sqrt(n), vertices=verts)
    q = orthogonal(rng, n)
    d = rng.uniform(0.5, 2.0, size=n)
    m = (q * d) @ q.T
    if kind == "cloud":
        # the rotated cube M [-1, 1]^n as a point cloud: its 2^n vertices
        # plus interior points, CLOUD_ROWS rows in all
        inner = rng.uniform(-0.99, 0.99, size=(CLOUD_ROWS - 2 ** n, n)) @ m.T
        return Shape(kind, n, m, float(d.min()), vertices=np.vstack([cube_vertices(m), inner]))
    return Shape(kind, n, m, float(d.min()))


@dataclass(eq=False)
class Case:
    """One query: p = radius * u against ``shape``, with its exact status."""

    shape: Shape
    p: np.ndarray
    outside: bool
    certified_distance: float | None   # lower bound on dist(p, K), outside only


def make_case(shape, placement, rng, delta):
    """Place a point along a random direction; outside points are certified
    to lie farther than ``delta`` from the body (re-drawn otherwise)."""
    for _ in range(100):
        u = unit(rng, shape.n)
        rho, a = shape.boundary(u)
        p = PLACEMENTS[placement](rho, shape.r0) * u
        if placement not in OUTSIDE_PLACEMENTS:
            return Case(shape, p, False, None)
        dist = float(a @ p) - shape.support_value(a)
        if dist > delta:
            return Case(shape, p, True, dist)
    raise RuntimeError(f"no certified {placement} point for {shape.kind}({shape.n})")


# A re-computed support value differs from sepopt's by rounding, so margins
# within this of zero are "touching" separators, not wrong ones.
MARGIN_TOL = 1e-9


def exact_margin(case, separator):
    """c.p - h(c) with the closed-form or LP-free exact support value."""
    c = np.asarray(separator, dtype=float)
    return float(c @ case.p) - case.shape.support_value(c)


def judge(case, separated, separator=None):
    """None when the verdict agrees with exact ground truth, else a reason.

    A separator, when given, has its margin re-checked with an exact
    support value."""
    if separated and separator is not None:
        margin = exact_margin(case, separator)
        if margin < -MARGIN_TOL:
            return f"separator margin {margin:.3e} < 0 by exact support"
    if separated and not case.outside:
        return "separated a point inside the body"
    if not separated and case.outside:
        return f"in-body verdict at certified distance {case.certified_distance:.3e}"
    return None
