import numpy as np
import pytest
from scipy.linalg import expm

from corrgeo import (
    InvalidInput,
    check_orthogonal,
    og_project,
    og_retract,
    random_orthogonal,
    skew_part,
)


def _skew(rng, k):
    return skew_part(rng.standard_normal((k, k)))


# validation / projection ------------------------------------------------------


def test_check_orthogonal():
    assert np.array_equal(check_orthogonal(np.eye(3)), np.eye(3))
    with pytest.raises(InvalidInput):
        check_orthogonal(np.eye(3) * 1.5)


def test_project_base_point_to_zero():
    rng = np.random.default_rng(0)
    O = random_orthogonal(3, rng)
    assert np.linalg.norm(og_project(O, O)) < 1e-14


def test_project_at_identity():
    rng = np.random.default_rng(1)
    S = _skew(rng, 4)
    # skew matrices are already tangent at the identity
    assert np.allclose(og_project(np.eye(4), S), S)
    sym = np.eye(4) + np.diag([1.0, 2.0, 3.0, 4.0])
    assert np.linalg.norm(og_project(np.eye(4), sym)) < 1e-14


def test_project_idempotent():
    rng = np.random.default_rng(2)
    O = random_orthogonal(4, rng)
    W = rng.standard_normal((4, 4))
    xi = og_project(O, W)
    assert np.linalg.norm(og_project(O, xi) - xi) < 1e-12
    # tangency: O^T xi is skew
    M = O.T @ xi
    assert np.linalg.norm(M + M.T) < 1e-12


# retraction --------------------------------------------------------------------


def test_retract_zero_direction():
    rng = np.random.default_rng(3)
    O = random_orthogonal(3, rng)
    assert np.linalg.norm(og_retract(O, np.zeros((3, 3))) - O) < 1e-12


def test_retract_stays_orthogonal():
    rng = np.random.default_rng(4)
    O = random_orthogonal(5, rng)
    xi = og_project(O, rng.standard_normal((5, 5)))
    Q = og_retract(O, xi)
    assert np.linalg.norm(Q.T @ Q - np.eye(5)) < 1e-12


def test_retract_agrees_with_exponential_to_second_order():
    rng = np.random.default_rng(5)
    O = random_orthogonal(3, rng)
    S = _skew(rng, 3)
    S /= np.linalg.norm(S)
    for eps in (1e-2, 1e-3):
        exact = O @ expm(eps * S)
        approx = og_retract(O, eps * (O @ S))
        assert np.linalg.norm(approx - exact) <= 2.0 * eps * eps


def test_retract_derivative_matches_direction():
    rng = np.random.default_rng(6)
    O = random_orthogonal(4, rng)
    xi = og_project(O, rng.standard_normal((4, 4)))
    h = 1e-7
    fd = (og_retract(O, h * xi) - og_retract(O, -h * xi)) / (2.0 * h)
    assert np.linalg.norm(fd - xi) < 1e-6 * max(1.0, np.linalg.norm(xi))
