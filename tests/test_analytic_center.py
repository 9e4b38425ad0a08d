import numpy as np
import pytest

from sepopt import (
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
from sepopt.analytic_center import CENTRAL, DEEP, SHALLOW, conic_residual
from sepopt.errors import CannotDrop, EmptyInterior, NotInterior

SQRT3 = np.sqrt(3.0)


def halfspace(ax, ay, b, **kw):
    return Cut(np.array([ax, ay], dtype=float), b, **kw)


def random_region(rng, n=None, num_cuts=None, ball_radius=1.0):
    """Region with cuts tangent to a small interior ball, so it never empties."""
    n = n or int(rng.integers(2, 5))
    num_cuts = num_cuts if num_cuts is not None else int(rng.integers(0, 6))
    P = OuterApprox(n, ball_radius=ball_radius)
    for _ in range(num_cuts):
        a = rng.normal(size=n)
        a /= np.linalg.norm(a)
        b = -float(rng.uniform(0.1, 0.8)) * ball_radius
        P = add_cut(P, Cut(a, b))
    return P


# ---------------------------------------------------------------- barrier

def test_barrier_zero_at_origin_of_free_ball():
    assert barrier_value(OuterApprox(2), np.zeros(2)) == 0.0


def test_barrier_value_single_cut():
    P = add_cut(OuterApprox(2), halfspace(1, 0, 0))
    expected = -np.log(0.5) - np.log(0.75)
    assert barrier_value(P, np.array([0.5, 0.0])) == pytest.approx(expected, abs=1e-15)


def test_barrier_rejects_boundary_point():
    with pytest.raises(NotInterior) as err:
        barrier_value(OuterApprox(2), np.array([1.0, 0.0]))
    assert err.value.index == -1
    P = add_cut(OuterApprox(2), halfspace(1, 0, 0))
    with pytest.raises(NotInterior) as err:
        barrier_value(P, np.array([-0.25, 0.0]))
    assert err.value.index == 0


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 100:
        P = random_region(rng)
        omega, _ = analytic_center(P)
        x = omega + rng.normal(size=P.dimension) * 0.01
        if not P.is_interior(x, 1e-6):
            continue
        checked += 1
        g = barrier_gradient(P, x)
        fd = np.zeros_like(g)
        h = 1e-6
        for i in range(P.dimension):
            e = np.zeros(P.dimension)
            e[i] = h
            fd[i] = (barrier_value(P, x + e) - barrier_value(P, x - e)) / (2 * h)
        assert np.linalg.norm(fd - g) <= 1e-5 * (1.0 + np.linalg.norm(g))


def test_hessian_positive_definite_at_interior_points():
    rng = np.random.default_rng(22)
    for _ in range(50):
        P = random_region(rng)
        omega, _ = analytic_center(P)
        x = omega + rng.normal(size=P.dimension) * 0.005
        if not P.is_interior(x, 1e-9):
            continue
        np.linalg.cholesky(barrier_hessian(P, x))  # raises if not PD


# ---------------------------------------------------------------- centers

def test_center_of_free_ball_is_origin():
    for n in (2, 3, 6):
        omega, lam = analytic_center(OuterApprox(n))
        assert np.array_equal(omega, np.zeros(n))
        assert lam.size == 0


def test_center_single_halfspace():
    P = add_cut(OuterApprox(2), halfspace(1, 0, 0))
    omega, lam = analytic_center(P)
    assert omega == pytest.approx([1 / SQRT3, 0.0], abs=1e-6)
    assert lam == pytest.approx([1 / SQRT3], abs=1e-6)


def test_center_two_symmetric_halfspaces():
    P = add_cut(add_cut(OuterApprox(2), halfspace(1, 0, 0)), halfspace(0, 1, 0))
    omega, lam = analytic_center(P)
    assert omega == pytest.approx([0.5, 0.5], abs=1e-6)
    assert lam == pytest.approx([0.5, 0.5], abs=1e-6)


def test_center_gradient_and_certificate():
    rng = np.random.default_rng(53)
    for _ in range(60):
        P = random_region(rng)
        omega, lam = analytic_center(P)
        assert lam.min(initial=0.0) >= -1e-9
        assert conic_residual(P, omega, lam) <= 1e-7 * (1.0 + np.linalg.norm(omega))
        # stationarity identity: lambda_i recomputed from the slacks agrees
        q = P.ball_radius**2 - float(omega @ omega)
        slacks = P.cut_slacks(omega)
        assert np.allclose(lam, q / (2 * slacks), rtol=0, atol=1e-12)


def test_center_is_deterministic_bitwise():
    rng = np.random.default_rng(99)
    P1 = random_region(rng, n=3, num_cuts=4)
    P2 = OuterApprox(3, ball_radius=P1.ball_radius,
                     cuts=tuple(Cut(c.normal.copy(), c.offset) for c in P1.cuts))
    w1, l1 = analytic_center(P1)
    w2, l2 = analytic_center(P2)
    assert np.array_equal(w1, w2)
    assert np.array_equal(l1, l2)


def test_warm_start_must_be_interior():
    P = add_cut(OuterApprox(2), halfspace(1, 0, 0))
    with pytest.raises(NotInterior):
        analytic_center(P, warm_start=np.array([-0.5, 0.0]))


# ---------------------------------------------------------------- add_cut

def test_add_cut_appends_and_invalidates():
    P = OuterApprox(2)
    analytic_center(P)
    P1 = add_cut(P, halfspace(1, 0, 0))
    assert len(P1.cuts) == 1
    assert P1.center is None and P1.conic is None
    assert P.center is not None  # original untouched


def test_add_cut_normalizes_scaled_halfspace():
    cut = Cut(np.array([2.0, 0.0]), 1.0)
    assert np.allclose(cut.normal, [1.0, 0.0])
    assert cut.offset == pytest.approx(0.5)
    # halfspace {2x >= 1} is the same as {x >= 1/2}
    P = add_cut(OuterApprox(2), cut)
    assert P.min_slack(np.array([0.75, 0.0])) == pytest.approx(0.25)


def test_add_cut_inconsistent_cuts_detected_by_center():
    P = add_cut(OuterApprox(2), halfspace(1, 0, 0))
    analytic_center(P)
    P = add_cut(P, halfspace(-1, 0, 0.5))
    with pytest.raises(EmptyInterior):
        analytic_center(P)


def test_cut_kind_classification_mirrored_for_ge_constraints():
    P = add_cut(OuterApprox(2), halfspace(1, 0, 0))
    analytic_center(P)  # center (1/sqrt3, 0)
    t = 1 / SQRT3
    assert add_cut(P, halfspace(1, 0, t + 0.1)).cuts[-1].kind == DEEP
    assert add_cut(P, halfspace(1, 0, t)).cuts[-1].kind == CENTRAL
    assert add_cut(P, halfspace(1, 0, t - 0.1)).cuts[-1].kind == SHALLOW
    # with no computed center the exact ball center (origin) is the reference
    assert add_cut(OuterApprox(2), halfspace(1, 0, 0)).cuts[-1].kind == CENTRAL
    assert add_cut(OuterApprox(2), halfspace(1, 0, -0.1)).cuts[-1].kind == SHALLOW


# ---------------------------------------------------------------- dropping

def test_drop_removes_the_slackest_cut():
    P = OuterApprox(2)
    # four binding-ish cuts and one far-slack cut
    tight = [halfspace(1, 0, -0.4), halfspace(-1, 0, -0.4),
             halfspace(0, 1, -0.4), halfspace(0, -1, -0.4)]
    slack = halfspace(np.cos(0.3), np.sin(0.3), -0.95)
    for cut in tight[:2] + [slack] + tight[2:]:
        P = add_cut(P, cut)
    analytic_center(P)
    dropped = drop_least_binding(P, 4)
    assert len(dropped.cuts) == 4
    assert all(c.offset != pytest.approx(-0.95) for c in dropped.cuts)
    assert dropped.center is not None  # recomputed


def test_drop_is_noop_within_budget():
    P = random_region(np.random.default_rng(1), n=2, num_cuts=3)
    analytic_center(P)
    assert drop_least_binding(P, 8) is P


def test_drop_refuses_below_one_cut():
    P = add_cut(OuterApprox(2), halfspace(1, 0, 0))
    analytic_center(P)
    with pytest.raises(CannotDrop):
        drop_least_binding(P, 0)


def test_drop_never_removes_protected_cut():
    P = OuterApprox(2)
    P = add_cut(P, Cut(np.array([1.0, 0.0]), -0.9, protected=True))  # very slack
    P = add_cut(P, halfspace(0, 1, -0.2))
    P = add_cut(P, halfspace(0, -1, -0.2))
    analytic_center(P)
    dropped = drop_least_binding(P, 2)
    assert any(c.protected for c in dropped.cuts)


# ---------------------------------------------------------------- stacked storage

def assert_stack_matches_cuts(P, x):
    A = np.stack([c.normal for c in P.cuts]) if P.cuts else np.empty((0, P.dimension))
    b = np.array([c.offset for c in P.cuts])
    assert P.A.shape == (len(P.cuts), P.dimension)
    assert np.array_equal(P.A, A) and np.array_equal(P.b, b)
    assert np.array_equal(P.cut_slacks(x), A @ x - b)


def test_stacked_arrays_follow_mixed_add_and_drop():
    rng = np.random.default_rng(71)
    for n in (2, 3, 5):
        P = OuterApprox(n)
        assert_stack_matches_cuts(P, np.zeros(n))
        first = rng.normal(size=n)
        P = add_cut(P, Cut(first, -0.9, protected=True))
        for step in range(40):
            omega, _ = analytic_center(P)
            assert_stack_matches_cuts(P, omega)
            if step % 3 == 2:
                P = drop_least_binding(P, max(2, len(P.cuts) - int(rng.integers(1, 4))))
                assert P.cuts[0].protected
                assert_stack_matches_cuts(P, P.center)
            a = rng.normal(size=n)
            a /= np.linalg.norm(a)
            P = add_cut(P, Cut(a, float(a @ omega) - float(rng.uniform(0.0, 0.05))))
            assert_stack_matches_cuts(P, omega)
        # a region built from the same cuts stacks them identically
        rebuilt = OuterApprox(n, cuts=P.cuts)
        assert np.array_equal(rebuilt.A, P.A) and np.array_equal(rebuilt.b, P.b)


def test_barrier_functions_given_slacks_match_recomputing_path_bitwise():
    rng = np.random.default_rng(72)
    for _ in range(40):
        P = random_region(rng)
        omega, _ = analytic_center(P)
        x = omega + rng.normal(size=P.dimension) * 0.01
        if not P.is_interior(x):
            continue
        s = P.cut_slacks(x)
        assert barrier_value(P, x, s) == barrier_value(P, x)
        assert np.array_equal(barrier_gradient(P, x, s), barrier_gradient(P, x))
        assert np.array_equal(barrier_hessian(P, x, s), barrier_hessian(P, x))


def test_conic_residual_matches_loop_reference():
    # the matrix product sums in another order than the loop, so the two
    # agree to float64 rounding, scaled by the magnitudes summed
    rng = np.random.default_rng(73)
    for _ in range(40):
        P = random_region(rng, num_cuts=int(rng.integers(1, 8)))
        omega, lam = analytic_center(P)
        recon = np.zeros(P.dimension)
        for weight, cut in zip(lam, P.cuts):
            recon += weight * cut.normal
        reference = float(np.linalg.norm(omega - recon))
        scale = float(np.linalg.norm(omega) + np.abs(lam).sum())
        tol = 4 * (len(P.cuts) + 1) * np.finfo(float).eps * scale
        assert abs(conic_residual(P, omega, lam) - reference) <= tol


# ---------------------------------------------------------------- inradius

def test_inscribed_radius_free_ball():
    P = OuterApprox(2)
    analytic_center(P)
    assert inscribed_radius_estimate(P) == pytest.approx(1.0, abs=1e-9)


def test_inscribed_radius_single_cut():
    P = add_cut(OuterApprox(2), halfspace(1, 0, 0))
    analytic_center(P)
    assert inscribed_radius_estimate(P) == pytest.approx(1 - 1 / SQRT3, abs=1e-6)


def test_inscribed_radius_requires_center():
    with pytest.raises(ValueError):
        inscribed_radius_estimate(OuterApprox(2))


def true_inradius(P):
    """Independent oracle: maximize r subject to slack(x) >= r (small SOCP)."""
    from scipy.optimize import minimize

    n = P.dimension
    cons = [{"type": "ineq",
             "fun": lambda z: P.ball_radius - np.linalg.norm(z[:n]) - z[n]}]
    if P.cuts:
        A = np.stack([c.normal for c in P.cuts])
        b = np.array([c.offset for c in P.cuts])
        cons.append({"type": "ineq", "fun": lambda z: A @ z[:n] - b - z[n]})
    start = P.center if P.center is not None else np.zeros(n)
    z0 = np.append(start, 0.0)
    res = minimize(lambda z: -z[n], z0, constraints=cons, method="SLSQP",
                   options={"maxiter": 300, "ftol": 1e-12})
    return float(res.x[n])


def test_inscribed_radius_brackets_true_inradius():
    # the estimate never exceeds the true inradius, undershoots by at most
    # sqrt(n)*(h+1), and the true inradius itself shrinks monotonically along
    # engine-style cut sequences (the estimate alone is not monotone: a cut
    # can recenter omega onto a better-balanced point)
    rng = np.random.default_rng(31)
    for depth in (0.0, -0.01):
        for trial in range(10):
            P = OuterApprox(int(rng.integers(2, 5)))
            omega, _ = analytic_center(P)
            first = inscribed_radius_estimate(P)
            previous_true = true_inradius(P)
            estimate = first
            for _ in range(10):
                a = rng.normal(size=P.dimension)
                a /= np.linalg.norm(a)
                P = add_cut(P, Cut(a, float(a @ omega) + depth))
                omega, _ = analytic_center(P)
                estimate = inscribed_radius_estimate(P)
                exact = true_inradius(P)
                kappa = np.sqrt(P.dimension) * (len(P.cuts) + 1)
                assert estimate <= exact + 1e-6
                assert exact <= kappa * estimate + 1e-6
                assert exact <= previous_true + 1e-7
                previous_true = exact
            # aggregate shrinkage is what the stopping rule relies on
            assert estimate < first
