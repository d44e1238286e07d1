import numpy as np
import pytest

from corrgeo import AntipodalLogarithm, InvalidInput

from reference import (
    great_circle_angle,
    sphere_dist,
    sphere_exp,
    sphere_log,
    sphere_project,
    sphere_retract,
)


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


# distances ------------------------------------------------------------------


def test_dist_identical_is_zero():
    x = _unit([1.0, 2.0, 2.0])
    assert sphere_dist(x, x) == 0.0


def test_dist_antipodal_is_pi():
    x = _unit([3.0, -4.0])
    assert sphere_dist(x, -x) == np.pi


def test_dist_orthogonal_is_half_pi():
    x = np.array([1.0, 0.0, 0.0])
    y = np.array([0.0, 1.0, 0.0])
    assert abs(sphere_dist(x, y) - np.pi / 2.0) < 1e-15


def test_dist_symmetry_and_nonunit_rejection():
    rng = np.random.default_rng(0)
    x = _unit(rng.standard_normal(4))
    y = _unit(rng.standard_normal(4))
    assert sphere_dist(x, y) == sphere_dist(y, x)
    with pytest.raises(InvalidInput):
        sphere_dist(2.0 * x, y)


def test_angle_accurate_near_zero():
    # a tiny rotation: arccos of the inner product would round to ~1e-8 noise
    x = np.array([1.0, 0.0])
    eps = 1e-10
    y = _unit([np.cos(eps), np.sin(eps)])
    theta = great_circle_angle(x, y)
    assert abs(theta - eps) < 1e-16


# exp / log ------------------------------------------------------------------


def test_exp_zero_velocity():
    x = _unit([1.0, 1.0, 0.0])
    assert np.allclose(sphere_exp(x, np.zeros(3)), x)


def test_exp_quarter_turn():
    x = np.array([1.0, 0.0])
    v = np.array([0.0, np.pi / 2.0])
    y = sphere_exp(x, v)
    assert np.allclose(y, [0.0, 1.0], atol=1e-15)


def test_exp_log_round_trip_s4():
    rng = np.random.default_rng(17)
    for _ in range(20):
        x = _unit(rng.standard_normal(5))
        y = _unit(rng.standard_normal(5))
        if sphere_dist(x, y) > np.pi - 1e-3:
            continue
        v = sphere_log(x, y)
        assert np.linalg.norm(sphere_exp(x, v) - y) < 1e-10
        assert abs(np.linalg.norm(v) - sphere_dist(x, y)) < 1e-12
        # the log is tangent at x
        assert abs(x @ v) < 1e-12


def test_log_antipodal_guard():
    x = np.array([0.0, 0.0, 1.0])
    with pytest.raises(AntipodalLogarithm):
        sphere_log(x, -x)


def test_log_small_angle_branch():
    x = np.array([1.0, 0.0])
    y = _unit([1.0, 1e-13])
    v = sphere_log(x, y)
    assert np.linalg.norm(v) < 1e-12
    assert np.linalg.norm(sphere_exp(x, v) - y) < 1e-15


# projection / retraction ------------------------------------------------------


def test_project_removes_radial_component():
    rng = np.random.default_rng(3)
    x = _unit(rng.standard_normal(4))
    w = rng.standard_normal(4)
    v = sphere_project(x, w)
    assert abs(x @ v) < 1e-14
    # projection is idempotent
    assert np.allclose(sphere_project(x, v), v)


def test_retract_matches_exp_to_second_order():
    rng = np.random.default_rng(8)
    x = _unit(rng.standard_normal(5))
    v = sphere_project(x, rng.standard_normal(5))
    v /= np.linalg.norm(v)
    for scale in (1e-1, 1e-2, 1e-3):
        diff = np.linalg.norm(sphere_retract(x, scale * v) - sphere_exp(x, scale * v))
        assert diff <= scale**2
