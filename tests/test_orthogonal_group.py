import numpy as np
from scipy.linalg import expm

from corrgeo import random_orthogonal, skew_part

from reference import og_retract


def _skew(rng, k):
    return skew_part(rng.standard_normal((k, k)))


# retraction --------------------------------------------------------------------


def test_retract_zero_direction():
    rng = np.random.default_rng(3)
    O = random_orthogonal(3, rng)
    assert np.linalg.norm(og_retract(O, np.zeros((3, 3))) - O) < 1e-12


def test_retract_stays_orthogonal():
    rng = np.random.default_rng(4)
    O = random_orthogonal(5, rng)
    xi = O @ skew_part(O.T @ rng.standard_normal((5, 5)))
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
    xi = O @ skew_part(O.T @ rng.standard_normal((4, 4)))
    h = 1e-7
    fd = (og_retract(O, h * xi) - og_retract(O, -h * xi)) / (2.0 * h)
    assert np.linalg.norm(fd - xi) < 1e-6 * max(1.0, np.linalg.norm(xi))
