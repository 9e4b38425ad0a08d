"""Convex test bodies, their support oracles, and a brute-force distance oracle.

Every body lives in R^n, contains an origin-centered ball of radius
``inner_radius`` and is contained in the origin-centered ball of radius
``outer_radius``.  The support oracle ``support(body, c)`` (maximize c.x over
the body) is the only primitive the separation routines may call; the
Frank-Wolfe distance oracle built on top of it is the independent ground
truth used for verification and benchmarking.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .errors import (
    DegenerateInstance,
    DimensionMismatch,
    NoConvergence,
    ZeroDirection,
)

# Absolute tolerances for double-precision dense arithmetic at n <= 32.
TOL_SUPPORT = 1e-12
TOL_POLAR = 1e-9
TOL_ZERO = 1e-12


def _as_vector(x, n, name="vector"):
    v = np.asarray(x, dtype=float)
    if v.shape != (n,):
        raise DimensionMismatch(f"{name} has shape {v.shape}, expected ({n},)")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} has non-finite entries")
    return v


def _frozen(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class VertexPolytope:
    """Convex hull of an explicit vertex list, one row per vertex."""

    vertices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vertices", _frozen(self.vertices))


@dataclass(frozen=True, eq=False)
class Ball:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _frozen(self.center))


@dataclass(frozen=True, eq=False)
class AffineImage:
    """The image A*K + shift of a base body K; A must be invertible."""

    base: "BodySpec"
    matrix: np.ndarray
    shift: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen(self.matrix))
        object.__setattr__(self, "shift", _frozen(self.shift))


@dataclass(frozen=True, eq=False)
class BodySpec:
    """A convex body together with its certified radius bounds.

    ``inner_radius`` is the radius of an origin-centered ball contained in the
    body (so the origin is strictly interior); ``outer_radius`` bounds the
    body's Euclidean norm.  Both are trusted inputs: the factories below
    compute them where they can, and ``random_instance`` computes them
    exactly for generated polytopes.
    """

    dimension: int
    variant: VertexPolytope | Ball | AffineImage
    outer_radius: float
    inner_radius: float

    def __post_init__(self):
        n = self.dimension
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"dimension must be a positive integer, got {n!r}")
        if not (0.0 < self.inner_radius <= self.outer_radius):
            raise ValueError(
                f"need 0 < inner_radius <= outer_radius, got "
                f"{self.inner_radius!r}, {self.outer_radius!r}"
            )
        v = self.variant
        if isinstance(v, VertexPolytope):
            if v.vertices.ndim != 2 or v.vertices.shape[0] < 1 or v.vertices.shape[1] != n:
                raise ValueError(
                    f"vertex array must be (m, {n}) with m >= 1, got {v.vertices.shape}"
                )
            norms = np.linalg.norm(v.vertices, axis=1)
            if norms.max() > self.outer_radius + 1e-9:
                raise ValueError("a vertex lies outside the declared outer radius")
        elif isinstance(v, Ball):
            if v.center.shape != (n,):
                raise ValueError(f"ball center must have length {n}")
            if not v.radius > 0:
                raise ValueError("ball radius must be positive")
            cnorm = float(np.linalg.norm(v.center))
            if cnorm + v.radius > self.outer_radius + 1e-9:
                raise ValueError("ball exceeds the declared outer radius")
            if v.radius - cnorm < self.inner_radius - 1e-9:
                raise ValueError("ball does not contain the declared inner ball")
        elif isinstance(v, AffineImage):
            if v.matrix.shape != (n, n) or v.shift.shape != (n,):
                raise ValueError("affine map must be an n x n matrix plus an n-shift")
            if abs(np.linalg.det(v.matrix)) < 1e-14:
                raise ValueError("affine map must be invertible")
        else:
            raise TypeError(f"unknown body variant {type(v).__name__}")


def vertex_polytope(vertices, inner_radius, outer_radius=None) -> BodySpec:
    """Build a vertex-polytope body; the outer radius defaults to max |v|."""
    verts = np.asarray(vertices, dtype=float)
    if verts.ndim != 2:
        raise ValueError("vertices must be a 2-D array, one vertex per row")
    if outer_radius is None:
        outer_radius = float(np.linalg.norm(verts, axis=1).max())
    return BodySpec(verts.shape[1], VertexPolytope(verts), outer_radius, inner_radius)


def ball(center, radius, inner_radius=None, outer_radius=None) -> BodySpec:
    center = np.asarray(center, dtype=float)
    cnorm = float(np.linalg.norm(center))
    if inner_radius is None:
        inner_radius = radius - cnorm
        if inner_radius <= 0:
            raise ValueError("ball must contain the origin strictly")
    if outer_radius is None:
        outer_radius = cnorm + radius
    return BodySpec(center.shape[0], Ball(center, radius), outer_radius, inner_radius)


def affine_image(base: BodySpec, matrix, shift=None,
                 inner_radius=None, outer_radius=None) -> BodySpec:
    """Body A*K + shift, with radius bounds derived from the singular values of A."""
    n = base.dimension
    matrix = np.asarray(matrix, dtype=float)
    shift = np.zeros(n) if shift is None else np.asarray(shift, dtype=float)
    svals = np.linalg.svd(matrix, compute_uv=False)
    snorm = float(np.linalg.norm(shift))
    if outer_radius is None:
        outer_radius = float(svals[0]) * base.outer_radius + snorm
    if inner_radius is None:
        inner_radius = float(svals[-1]) * base.inner_radius - snorm
        if inner_radius <= 0:
            raise ValueError("shift moves the inner ball off the origin; pass inner_radius")
    return BodySpec(n, AffineImage(base, matrix, shift), outer_radius, inner_radius)


@dataclass(frozen=True, eq=False)
class SupportResult:
    """Maximizer and value of c.x over the body; ``index`` is the winning
    vertex index for polytopes (lowest index on ties), None otherwise."""

    maximizer: np.ndarray
    value: float
    index: int | None = None


def support(body: BodySpec, c) -> SupportResult:
    """Maximize the linear functional c.x over the body.

    Polytope ties are broken toward the lowest vertex index so traces are
    deterministic.  Raises ZeroDirection when |c| < 1e-12.
    """
    c = _as_vector(c, body.dimension, "direction")
    cnorm = float(np.linalg.norm(c))
    if cnorm < TOL_ZERO:
        raise ZeroDirection("support direction is numerically zero")
    return _support(body.variant, c)


def _support(variant, c) -> SupportResult:
    if isinstance(variant, VertexPolytope):
        dots = variant.vertices @ c
        idx = int(np.argmax(dots))
        return SupportResult(variant.vertices[idx].copy(), float(dots[idx]), idx)
    if isinstance(variant, Ball):
        u = c / np.linalg.norm(c)
        point = variant.center + variant.radius * u
        return SupportResult(point, float(c @ point), None)
    if isinstance(variant, AffineImage):
        inner = _support(variant.base.variant, variant.matrix.T @ c)
        point = variant.matrix @ inner.maximizer + variant.shift
        return SupportResult(point, float(c @ point), inner.index)
    raise TypeError(f"unknown body variant {type(variant).__name__}")


def _atom_key(result: SupportResult):
    if result.index is not None:
        return result.index
    return np.round(result.maximizer, 12).tobytes()


def distance_to_body(body: BodySpec, p, tol=1e-7, max_iterations=50000):
    """Euclidean distance from p to the body, with a witness point inside it.

    Frank-Wolfe iteration with away steps and exact line search, driven
    entirely by the support oracle (Gilbert's minimum-distance scheme).  The
    returned distance is within ``tol`` of the true distance; a returned 0.0
    certifies that p is within ``tol`` of the body.

    Returns (distance, witness).  Raises NoConvergence, carrying the last
    iterate (a point of the body) as ``last_point``, if the duality gap fails
    to close within ``max_iterations`` support queries.
    """
    p = _as_vector(p, body.dimension, "query point")
    if float(np.linalg.norm(p)) < TOL_ZERO:
        return 0.0, np.zeros(body.dimension)

    start = support(body, p)
    x = start.maximizer.copy()
    # active atoms: key -> [point, weight]
    atoms = {_atom_key(start): [start.maximizer.copy(), 1.0]}

    for it in range(max_iterations):
        g = x - p
        dist = float(np.linalg.norm(g))
        if dist <= tol:
            return 0.0, x
        fw = support(body, -g)
        s = fw.maximizer
        fw_gap = float(g @ (x - s))
        # gap <= tol*dist/2 bounds the distance error by tol (see tests)
        if fw_gap <= 0.5 * tol * max(tol, dist):
            return dist, x
        away_key = max(atoms, key=lambda k: float(g @ atoms[k][0]))
        away_point, away_weight = atoms[away_key]
        away_gap = float(g @ (away_point - x))

        toward = fw_gap >= away_gap or away_weight >= 1.0 - 1e-15
        if toward:
            step = s - x
            gamma_max = 1.0
        else:
            step = x - away_point
            gamma_max = away_weight / (1.0 - away_weight)
        denom = float(step @ step)
        if denom < TOL_ZERO**2:
            return dist, x
        gamma = min(gamma_max, max(0.0, -float(g @ step) / denom))
        if gamma <= 0.0:
            return dist, x

        if toward:
            # blend in the fresh support atom
            for entry in atoms.values():
                entry[1] *= 1.0 - gamma
            key = _atom_key(fw)
            if key in atoms:
                atoms[key][1] += gamma
            else:
                atoms[key] = [s.copy(), gamma]
            x = x + gamma * (s - x)
        else:
            # shift mass off the worst active atom
            for entry in atoms.values():
                entry[1] *= 1.0 + gamma
            atoms[away_key][1] -= gamma
            if atoms[away_key][1] <= 1e-15:
                del atoms[away_key]
            x = x + gamma * (x - away_point)

        if (it + 1) % 128 == 0:
            # rebuild x from the simplex weights to cancel float drift
            total = sum(entry[1] for entry in atoms.values())
            for entry in atoms.values():
                entry[1] /= total
            x = np.sum([entry[1] * entry[0] for entry in atoms.values()], axis=0)

    raise NoConvergence(
        f"distance iteration did not reach tol={tol} in {max_iterations} steps",
        iterations=max_iterations, last_point=x,
    )


def _unit(rng, n):
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


def random_instance(n: int, num_vertices: int, seed: int,
                    place: str = "outside", margin: float = 0.2,
                    max_retries: int = 50):
    """Generate a full-dimensional random polytope and a query point.

    The polytope's vertices are centered so the origin is interior; its exact
    inner radius comes from the hull's facet offsets.  ``place`` positions the
    query point strictly outside at distance >= margin (verified with the
    distance oracle) or inside with a ball of radius ``margin`` around it
    contained in the body (guaranteed by construction, spot-checked on
    sampled directions).  Deterministic in ``seed``.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if num_vertices < n + 1:
        raise ValueError("need at least n + 1 vertices for a full-dimensional hull")
    if place not in ("inside", "outside"):
        raise ValueError(f"place must be 'inside' or 'outside', got {place!r}")
    if margin <= 0:
        raise ValueError("margin must be positive")

    rng = np.random.default_rng(seed)
    for _ in range(max_retries):
        dirs = rng.normal(size=(num_vertices, n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = rng.uniform(0.7, 1.4, size=num_vertices)
        verts = dirs * radii[:, None]
        # anisotropic stretch: elongated bodies give outside placements whose
        # radial direction fails to separate, the interesting search regime
        axis = _unit(rng, n)
        stretch = rng.uniform(1.0, 2.5)
        verts = verts + (stretch - 1.0) * np.outer(verts @ axis, axis)
        verts = verts - verts.mean(axis=0)
        try:
            hull = ConvexHull(verts)
        except QhullError:
            continue
        # qhull facet equations have unit normals, so the negated offsets are
        # the origin-to-facet distances; their minimum is the exact inner radius
        r0 = float((-hull.equations[:, -1]).min())
        if r0 < 0.05:
            continue

        if place == "inside" and r0 < 1.2 * margin:
            scale = 1.2 * margin / r0
            verts = verts * scale
            r0 = r0 * scale
        body = vertex_polytope(verts, inner_radius=r0)

        if place == "outside":
            # prefer points pushed off a random facet at a tilt: they are
            # outside the body, but their radial direction p/|p| need not
            # separate them, which exercises the multi-cut search paths;
            # every candidate is verified against the distance oracle
            tol = min(1e-6, margin / 100.0)
            for _ in range(30):
                facet = int(rng.integers(len(hull.simplices)))
                normal = hull.equations[facet, :-1]
                weights = rng.dirichlet(np.full(n, 0.4))
                x0 = weights @ verts[hull.simplices[facet]]
                tangent = rng.normal(size=n)
                tangent -= float(tangent @ normal) * normal
                tnorm = float(np.linalg.norm(tangent))
                if tnorm < 1e-9:
                    continue
                tilt = rng.uniform(0.0, 2.0)
                direction = normal + tilt * tangent / tnorm
                direction /= np.linalg.norm(direction)
                cand = x0 + rng.uniform(1.4, 3.0) * margin * direction
                dist, _ = distance_to_body(body, cand, tol=tol)
                if dist >= margin:
                    return body, cand
            # guaranteed fallback: step radially beyond a support point
            u = _unit(rng, n)
            h = support(body, u).value
            p = (h + 1.25 * margin) * u
            dist, _ = distance_to_body(body, p, tol=tol)
            if dist >= margin:
                return body, p
        else:
            slack = r0 - 1.05 * margin
            u = _unit(rng, n)
            radius = slack * rng.uniform() ** (1.0 / n)
            p = radius * u
            if _inner_ball_holds(body, p, margin, rng):
                return body, p
    raise DegenerateInstance(
        f"no valid instance for n={n}, m={num_vertices}, seed={seed} "
        f"after {max_retries} attempts"
    )


def _inner_ball_holds(body, p, margin, rng, num_directions=64):
    """Spot-check support(c) >= c.p + margin on sampled unit directions."""
    for _ in range(num_directions):
        c = _unit(rng, body.dimension)
        if support(body, c).value < float(c @ p) + margin * (1.0 - 1e-9):
            return False
    return True
