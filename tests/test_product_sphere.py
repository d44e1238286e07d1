import numpy as np
import pytest

from corrgeo import (
    AntipodalLogarithm,
    InvalidInput,
    ProductTangent,
    check_unit_rows,
    ps_dist,
    ps_exp,
    ps_frechet_fixed,
    ps_log,
    ps_metric,
    ps_project,
    sphere_dist,
    sphere_exp,
    unit_rows,
)
from corrgeo.config import DEFAULT_CONFIG
from corrgeo.kernels import procrustes, random_orthogonal
from corrgeo.product_sphere import _row_mean_model, _trust_region, angle_grad_coef
from corrgeo.quotient_space import _alignment_model

from conftest import random_point, random_rank_point, random_tangent


# validation -----------------------------------------------------------------


def test_check_unit_rows_accepts_and_rejects():
    X = np.eye(3)
    assert np.array_equal(check_unit_rows(X), X)
    with pytest.raises(InvalidInput):
        check_unit_rows(np.array([[1.0, 0.0], [2.0, 0.0]]))
    with pytest.raises(InvalidInput):
        check_unit_rows(np.ones((3, 1)))  # k must be at least 2


def test_unit_rows_normalizes():
    A = np.array([[3.0, 4.0], [0.0, 2.0]])
    X = unit_rows(A)
    assert np.allclose(np.linalg.norm(X, axis=1), 1.0)
    with pytest.raises(InvalidInput):
        unit_rows(np.array([[1.0, 0.0], [1e-15, 0.0]]))


def test_product_tangent_rejects_nontangent():
    X = np.eye(2)
    with pytest.raises(InvalidInput):
        ProductTangent(X, np.eye(2))  # radial rows


# distance --------------------------------------------------------------------


def test_ps_dist_single_moved_row():
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    Y = np.array([[0.0, 1.0], [0.0, 1.0]])
    assert abs(ps_dist(X, Y) - np.pi / 2.0) < 1e-15


def test_ps_dist_two_quarter_turns():
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    Y = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert abs(ps_dist(X, Y) - np.pi / np.sqrt(2.0)) < 1e-15


def test_ps_dist_matches_row_norm_of_sphere_dists():
    rng = np.random.default_rng(12)
    X = random_point(rng, 5, 3)
    Y = random_point(rng, 5, 3)
    rows = [sphere_dist(X[i], Y[i]) for i in range(5)]
    assert abs(ps_dist(X, Y) - np.linalg.norm(rows)) < 1e-12


# metric / projection ----------------------------------------------------------


def test_ps_metric_is_entrywise_sum():
    rng = np.random.default_rng(4)
    X = random_point(rng, 4, 3)
    U = ps_project(X, rng.standard_normal((4, 3)))
    V = ps_project(X, rng.standard_normal((4, 3)))
    assert abs(ps_metric(U, V) - float(np.sum(U.vec * V.vec))) < 1e-14
    with pytest.raises(InvalidInput):
        ps_metric(U, ps_project(random_point(rng, 4, 3), V.vec * 0.0))


def test_ps_project_idempotent_and_tangent():
    rng = np.random.default_rng(5)
    X = random_point(rng, 6, 3)
    W = rng.standard_normal((6, 3))
    V = ps_project(X, W)
    assert np.max(np.abs(np.einsum("ij,ij->i", X, V.vec))) < 1e-12
    V2 = ps_project(X, V.vec)
    assert np.linalg.norm(V2.vec - V.vec) < 1e-12


# exp / log ---------------------------------------------------------------------


def test_ps_exp_zero_time():
    rng = np.random.default_rng(6)
    X = random_point(rng, 4, 3)
    V = random_tangent(rng, X)
    assert np.allclose(ps_exp(X, V, t=0.0), X)


def test_ps_exp_single_row_reduces_to_sphere():
    rng = np.random.default_rng(7)
    X = random_point(rng, 1, 4)
    V = random_tangent(rng, X, scale=0.8)
    Y = ps_exp(X, V)
    assert np.linalg.norm(Y[0] - sphere_exp(X[0], V[0])) < 1e-14


def test_ps_exp_initial_speed_matches_velocity_norm():
    rng = np.random.default_rng(8)
    X = random_point(rng, 5, 3)
    V = random_tangent(rng, X, scale=1.3)
    h = 1e-6
    speed = ps_dist(X, ps_exp(X, V, t=h)) / h
    assert abs(speed - np.linalg.norm(V)) < 1e-6


def test_ps_log_round_trip():
    rng = np.random.default_rng(9)
    X = random_point(rng, 5, 3)
    Y = random_point(rng, 5, 3)
    V = ps_log(X, Y)
    assert np.linalg.norm(ps_exp(X, V.vec) - Y) < 1e-10
    assert abs(V.norm - ps_dist(X, Y)) < 1e-12


def test_ps_log_reports_antipodal_rows():
    X = np.eye(3)
    Y = np.array([[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]])
    with pytest.raises(AntipodalLogarithm) as exc:
        ps_log(X, Y)
    assert list(exc.value.rows) == [0, 2]


# gradient factor ----------------------------------------------------------------


def test_angle_grad_coef_limit_and_cap():
    coef, clamped = angle_grad_coef(np.array([1.0]), np.array([0.0]))
    assert coef[0] == -2.0 and not clamped[0]
    # at theta = pi/2 the factor is -2 * (pi/2) / 1 = -pi
    coef, clamped = angle_grad_coef(np.array([0.0]), np.array([np.pi / 2.0]))
    assert abs(coef[0] + np.pi) < 1e-14 and not clamped[0]
    coef, clamped = angle_grad_coef(np.array([-1.0]), np.array([np.pi]))
    assert clamped[0] and np.isfinite(coef[0])


# fixed-rotation Frechet mean ------------------------------------------------------


def test_ps_frechet_identical_points():
    rng = np.random.default_rng(10)
    X = random_point(rng, 4, 3)
    mean, report = ps_frechet_fixed([X, X, X], [1.0, 2.0, 0.5])
    assert ps_dist(mean, X) < 1e-8
    assert report.converged and report.loss < 1e-12


def test_ps_frechet_two_orthogonal_vectors():
    a = np.array([[1.0, 0.0]])
    b = np.array([[0.0, 1.0]])
    mean, report = ps_frechet_fixed([a, b], [1.0, 1.0])
    target = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert np.linalg.norm(mean[0] - target) < 1e-8
    assert report.converged


def test_ps_frechet_matches_grid_scan():
    # three points inside a small spherical cap; scan a dense tangent grid
    rng = np.random.default_rng(11)
    c = np.array([[0.0, 0.0, 1.0]])
    pts = [ps_exp(c, random_tangent(rng, c, scale=0.3)) for _ in range(3)]
    w = np.array([1.0, 1.0, 2.0])
    mean, _ = ps_frechet_fixed(pts, w)

    def loss_at(x):
        return sum(wi * sphere_dist(x, p[0]) ** 2 for wi, p in zip(w, pts))

    best = loss_at(mean[0])
    grid = np.linspace(-0.4, 0.4, 81)
    for u in grid:
        for v in grid:
            y = np.array([u, v, np.sqrt(max(0.0, 1.0 - u * u - v * v))])
            y /= np.linalg.norm(y)
            assert best <= loss_at(y) + 1e-3


def test_ps_frechet_warm_start_never_hurts():
    rng = np.random.default_rng(13)
    pts = [random_point(rng, 3, 3) for _ in range(4)]
    w = np.ones(4)
    init = pts[0]
    mean, report = ps_frechet_fixed(pts, w, init=init)
    theta = [ps_dist(init, p) for p in pts]
    init_loss = float(sum(wi * t * t for wi, t in zip(w, theta)))
    assert report.loss <= init_loss + 1e-12


def test_ps_frechet_rejects_bad_weights():
    X = np.eye(2)
    with pytest.raises(InvalidInput):
        ps_frechet_fixed([X], [-1.0])
    with pytest.raises(InvalidInput):
        ps_frechet_fixed([X], [0.0])


# lockstep trust-region stacks ---------------------------------------------------


def _check_members_solve_alone(model_of, retract, starts, tol):
    """Solve starts as one stack and each member as a stack of one; compare.

    model_of(sel) returns the model of the members selected by the slice
    sel. Returns the stack's iteration counts.
    """
    stack = _trust_region(model_of(slice(None)), retract, starts, DEFAULT_CONFIG)
    for j in range(len(starts)):
        model = model_of(slice(j, j + 1))
        alone = _trust_region(model, retract, starts[j : j + 1], DEFAULT_CONFIG)
        assert np.abs(stack[0][j] - alone[0][0]).max() <= tol
        assert abs(stack[1][j] - alone[1][0]) <= tol
        # iterations, converged, stagnated, clamped
        assert [a[j] for a in stack[3:]] == [a[0] for a in alone[3:]]
    return stack[3].tolist()


def test_trust_region_stack_member_matches_solve_alone():
    # every member of a lockstep stack follows the iterates of a stack of
    # one, so radius, floored and done must be the member's own
    rng = np.random.default_rng(44)
    iterations = set()
    for m, k in ((5, 2), (6, 3), (10, 3), (15, 5)):
        for r in sorted({1, k - 1, k}):
            X = random_rank_point(rng, m, k, r)
            Y = random_point(rng, m, k)
            starts = [procrustes(X, Y)] + [random_orthogonal(k, rng) for _ in range(5)]
            model, retract = _alignment_model(X, Y)
            iterations.update(
                _check_members_solve_alone(
                    lambda sel: model, retract, np.stack(starts), 0.0
                )
            )

    for m, n, k, spread in ((6, 4, 3, 0.2), (9, 5, 4, 1.0), (12, 3, 2, 3.0)):
        center = random_point(rng, m, k)
        clouds = np.stack(
            [unit_rows(center + spread * rng.standard_normal((m, k))) for _ in range(n)],
            axis=1,
        )
        w = rng.uniform(0.5, 2.0, n)
        _, retract = _row_mean_model(clouds, w)
        iterations.update(
            _check_members_solve_alone(
                lambda sel: _row_mean_model(clouds[sel], w)[0],
                retract,
                random_point(rng, m, k),
                1e-14,
            )
        )
    # members that stop at different iterations exercise the active set
    assert len(iterations) > 3
