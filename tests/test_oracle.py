import numpy as np
import pytest

from corrgeo import InvalidInput, orbit_dist, random_orthogonal, skew_part

from conftest import counterexample_pair, random_point
from reference import (
    DEFAULT_GRID,
    GridSpec,
    exhaustive_small_frechet,
    fd_gradient,
    o2_grid_distance,
    og_retract,
    sphere_dist,
)


# grid distance ----------------------------------------------------------------


def test_grid_spec_validation_and_bound():
    with pytest.raises(InvalidInput):
        GridSpec(resolution=4)
    b = GridSpec(resolution=100).error_bound(4)
    assert abs(b - 2.0 * np.pi * (2.0 * np.pi / 100.0)) < 1e-12


def test_grid_distance_self_is_zero():
    # the scan evaluates arccos at inner products within rounding of 1,
    # whose noise floor is ~1e-8; the identity angle is on the grid
    rng = np.random.default_rng(0)
    X = random_point(rng, 4, 2)
    assert o2_grid_distance(X, X) < 1e-7


def test_grid_distance_counterexample():
    X, Y = counterexample_pair()
    d = o2_grid_distance(X, Y)
    assert d > np.pi / np.sqrt(2.0)
    assert abs(d - np.sqrt(3.0) * np.pi / 2.0) < DEFAULT_GRID.error_bound(4)


def test_grid_upper_bounds_solver_within_resolution():
    rng = np.random.default_rng(1)
    for _ in range(5):
        X = random_point(rng, 4, 2)
        Y = random_point(rng, 4, 2)
        d_grid = o2_grid_distance(X, Y)
        d_solver = orbit_dist(X, Y)
        assert d_solver <= d_grid + 1e-9
        assert d_grid <= d_solver + DEFAULT_GRID.error_bound(4)


def test_grid_distance_requires_k2():
    rng = np.random.default_rng(2)
    X = random_point(rng, 4, 3)
    with pytest.raises(InvalidInput):
        o2_grid_distance(X, X)


# finite differences --------------------------------------------------------------


def _circle_basis(x):
    return [np.array([-x[1], x[0]])]


def _circle_retract(x, v):
    y = x + v
    return y / np.linalg.norm(y)


def test_fd_gradient_constant_loss():
    x = np.array([1.0, 0.0])
    g = fd_gradient(lambda y: 3.5, x, _circle_basis(x), _circle_retract)
    assert np.allclose(g, 0.0)


def test_fd_gradient_linear_loss():
    # loss(y) = a . y has tangent derivative a . b at x along basis b
    rng = np.random.default_rng(3)
    a = rng.standard_normal(2)
    x = np.array([0.0, 1.0])
    b = _circle_basis(x)[0]
    g = fd_gradient(lambda y: float(a @ y), x, _circle_basis(x), _circle_retract)
    assert abs(g[0] - a @ b) < 1e-9


def test_fd_gradient_on_rotation_group():
    # loss(O) = 0.5 ||O - T||^2; Riemannian gradient is the projection of O - T
    rng = np.random.default_rng(4)
    T = random_orthogonal(3, rng)
    O = random_orthogonal(3, rng)

    def loss(Q):
        return 0.5 * np.linalg.norm(Q - T) ** 2

    basis = []
    for i in range(3):
        for j in range(i + 1, 3):
            S = np.zeros((3, 3))
            S[i, j], S[j, i] = 1.0, -1.0
            S /= np.sqrt(2.0)
            basis.append(O @ S)
    g_fd = fd_gradient(loss, O, basis, og_retract)
    grad = O @ skew_part(O.T @ (O - T))
    g_exact = np.array([float(np.sum(grad * b)) for b in basis])
    assert np.max(np.abs(g_fd - g_exact)) < 1e-5


def test_fd_gradient_step_range():
    x = np.array([1.0, 0.0])
    with pytest.raises(InvalidInput):
        fd_gradient(lambda y: 0.0, x, _circle_basis(x), _circle_retract, h=1e-2)


# exhaustive circle mean ------------------------------------------------------------


def test_small_frechet_single_point():
    p = np.array([[0.6, 0.8]])
    mean = exhaustive_small_frechet(p, [1.0])
    assert sphere_dist(mean, p[0]) < 2.0 * np.pi / 200000 + 1e-12


def test_small_frechet_antipodal_pair():
    # both perpendicular bisector points are global minimizers
    pts = np.array([[1.0, 0.0], [-1.0, 0.0]])
    mean = exhaustive_small_frechet(pts, [1.0, 1.0])
    assert abs(abs(mean[1]) - 1.0) < 1e-4


def test_small_frechet_matches_weighted_average_of_angles():
    angles = np.array([0.2, 0.5, 0.9])
    w = np.array([1.0, 2.0, 1.0])
    pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    mean = exhaustive_small_frechet(pts, w)
    target = (w @ angles) / w.sum()  # clustered points: circle mean = angle mean
    got = np.arctan2(mean[1], mean[0])
    assert abs(got - target) < 2.0 * np.pi / 200000 + 1e-9
