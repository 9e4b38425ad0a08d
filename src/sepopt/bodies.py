"""Convex test bodies, their support oracles, a brute-force distance oracle
and the in-body witness kernel.

Every body lives in R^n, contains an origin-centered ball of radius
``inner_radius`` and is contained in the origin-centered ball of radius
``outer_radius``.  The support oracle ``support(body, c)`` (maximize c.x over
the body) is the only primitive the separation routines may call; the
Frank-Wolfe distance oracle built on top of it is the independent ground
truth used for verification and benchmarking.  ``HullWitness`` searches the
points of the body a run has already seen (its support maximizers and the
inner ball) for one within delta of a query point, with Wolfe's
nearest-point method; such a point certifies an in-body verdict.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs
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

# the double-precision Cholesky factor and solve behind scipy's cho_factor and
# cho_solve, called directly to skip their per-call wrapping
_potrf, _potrs = get_lapack_funcs(("potrf", "potrs"), (np.empty((1, 1)),))


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
        if not isinstance(n, int) or n < 2:
            raise ValueError(f"dimension must be an integer >= 2, got {n!r}")
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
    certifies that p is within max(tol, TOL_ZERO) of the body (closer than
    TOL_ZERO, the residual is too short to query the support oracle with).

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
        if dist <= max(tol, TOL_ZERO):
            return 0.0, x
        fw = support(body, -g)
        s = fw.maximizer
        fw_gap = float(g @ (x - s))
        # gap <= tol*dist/2 bounds the distance error by tol (see tests)
        if fw_gap <= 0.5 * tol * max(tol, dist):
            return dist, x
        # a full toward step leaves the other atoms at weight 0.0 (no room to step away)
        away_key = max((k for k in atoms if atoms[k][1] > 0.0),
                       key=lambda k: float(g @ atoms[k][0]))
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
        last_point=x)


class HullWitness:
    """Points of the body seen so far, searched for one within delta of p.

    Support maximizers are points of the body, and so is the ball B(0, r0)
    of its inner radius, so every point x of H = conv(k_1..k_m, B(0, r0))
    lies in the body, and |x - p| <= delta certifies dist(p, body) <= delta
    (an accuracy certificate in the sense of Nemirovski, Onn and Rothblum,
    Math. Oper. Res. 35, 2010).  ``add(k)`` records one more point and
    returns such an x, or None.

    The search is Wolfe's nearest-point method (Math. Programming 11, 1976)
    over the recorded atoms.  Its corral (at most n + 1 affinely independent
    atoms, with positive weights, whose affine hull's point nearest p is x)
    is kept from one call to the next, and the ball enters as an atom r0 u
    along the residual u = (p - x)/|p - x| whenever r0 > max_i u.a_i.
    Before any search, beta = u.p - max(r0, max_i u.a_i) for the last
    residual u is a lower bound on dist(p, H), since H lies in
    {y : u.y <= max(...)}; a new point k lowers it at most to u.p - u.k, and
    the search runs only once beta <= delta.  It stops at a witness, at a
    residual whose beta exceeds delta again, or after MAX_CYCLES atoms
    entered.  The witness is x = sum_i lam_i a_i over the corral (lam > 0,
    sum 1), returned only if |x - p| <= delta.
    """

    MAX_CYCLES = 64

    def __init__(self, p, delta, inner_radius):
        n = len(p)
        self.p, self.delta, self.r0 = p, delta, inner_radius
        pnorm = float(np.linalg.norm(p))
        # the residual direction u, u.p and the bound beta
        self.u, self.up, self.beta = p / pnorm, pnorm, pnorm - inner_radius
        self.atoms = np.empty((2 * n + 2, n))
        self.count = 0
        self.corral = [self._record(inner_radius * self.u)]
        self.weights = np.ones(1)
        # rows 0..k-1 of ``q`` are a_i - p over the corral's atoms, and
        # ``gram`` holds their inner products; one more row is room for an entrant
        self.q = np.empty((n + 2, n))
        self.q[0] = self.atoms[0] - p
        self.gram = np.empty((n + 2, n + 2))
        self.scale = self.gram[0, 0] = self.beta ** 2
        self.ones = np.ones(n + 2)

    def _record(self, a):
        if self.count == len(self.atoms):
            self.atoms = np.concatenate([self.atoms, np.empty_like(self.atoms)])
        self.atoms[self.count] = a
        self.count += 1
        return self.count - 1

    def add(self, k):
        """Record the point k of the body; a witness point or None."""
        j = self._record(k)
        beta = self.up - self.u @ k
        if beta >= self.beta:
            return None if self.beta > self.delta else self._search()
        # while beta > delta, u is the residual direction at x, so a k that
        # lowers beta beats every atom along u: it is the next entrant
        entrant = j if self.beta > self.delta else None
        self.beta = beta
        return None if beta > self.delta else self._search(entrant)

    def _search(self, entrant=None):
        p, delta, r0 = self.p, self.delta, self.r0
        if entrant is not None and not self._enter(entrant):
            return None
        for _ in range(self.MAX_CYCLES):
            y = self.weights @ self.q[:len(self.corral)]  # x - p
            dist = math.sqrt(y @ y)
            if dist <= delta:
                x = self.weights @ self.atoms[self.corral]
                return x if math.dist(x, p) <= delta else None
            u = y / -dist
            scores = self.atoms[:self.count] @ u
            j = scores.argmax()
            top, up = scores[j], u @ p
            self.u, self.up, self.beta = u, up, up - max(r0, top)
            if self.beta > delta:
                return None
            if r0 >= top:
                j = self._record(r0 * u)
            elif j in self.corral:
                return None  # no atom improves on x in float arithmetic
            if not self._enter(j):
                return None
        return None

    def _enter(self, j):
        """Wolfe's minor cycles once atom j joins the corral; False, with the
        corral kept, when j gets no positive weight or the atoms are
        numerically dependent."""
        k = len(self.corral)
        if k > len(self.p):
            return False
        q, gram = self.q, self.gram
        q[k] = self.atoms[j] - self.p
        row = gram[k, :k + 1] = gram[:k + 1, k] = q[:k + 1] @ q[k]
        self.scale = max(self.scale, row[k])
        corral, weights = self.corral + [j], None
        while True:
            w = self._affine_minimizer(gram, len(corral))
            if w is None:
                return False
            if w.min() > 0.0:
                self.corral, self.weights, self.q, self.gram = corral, w, q, gram
                return True
            if not w[-1] > 0.0:
                return False
            # step from the weights toward w until the first weight reaches 0,
            # and drop the atoms at 0 into fresh arrays (the stored corral's
            # rows stay intact until the minor cycles succeed)
            if weights is None:
                weights = np.append(self.weights, 0.0)
            out = np.flatnonzero(w <= 0.0)
            ratios = weights[out] / (weights[out] - w[out])
            weights = weights + ratios.min() * (w - weights)
            weights[out[ratios.argmin()]] = 0.0
            keep = weights > 0.0
            corral = [a for a, kept in zip(corral, keep) if kept]
            weights, m, k = weights[keep], len(keep), len(corral)
            old_q, old_gram = q, gram
            q, gram = np.empty_like(old_q), np.empty_like(old_gram)
            q[:k] = old_q[:m][keep]
            gram[:k, :k] = old_gram[:m, :m][keep][:, keep]

    def _affine_minimizer(self, gram, k):
        """Weights (sum 1) of the point nearest p on the affine hull of the
        first k corral atoms: with Q's rows a_i - p, w is proportional to
        the solution of (Q Q^T + c 1 1^T) w = 1 for any c > 0.  None when the
        Cholesky factor fails (the atoms are affinely dependent)."""
        factor, info = _potrf(gram[:k, :k] + self.scale, lower=True, clean=False,
                              overwrite_a=True)
        if info != 0:
            return None
        w, info = _potrs(factor, self.ones[:k], lower=True)
        return w / w.sum()


# random_instance's draws before it gives up on a degenerate or thin hull
INSTANCE_ATTEMPTS = 50


def _unit(rng, n):
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


def random_instance(n: int, num_vertices: int, seed: int,
                    place: str = "outside", margin: float = 0.2):
    """Generate a full-dimensional random polytope and a query point.

    The polytope's vertices are centered so the origin is interior; its exact
    inner radius comes from the hull's facet offsets.  ``place`` positions the
    query point strictly outside at distance >= margin (verified with the
    distance oracle) or inside with a ball of radius ``margin`` around it
    contained in the body by construction (|p| <= r0 - 1.05 margin, so the
    ball lies in B(0, r0)).  Deterministic in ``seed``.
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
    for _ in range(INSTANCE_ATTEMPTS):
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
            return body, radius * u
    raise DegenerateInstance(
        f"no valid instance for n={n}, m={num_vertices}, seed={seed} "
        f"after {INSTANCE_ATTEMPTS} attempts"
    )
