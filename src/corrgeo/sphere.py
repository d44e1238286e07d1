"""Geometry of the unit sphere S^{k-1} in R^k.

Points are unit vectors, tangent vectors at x live in the hyperplane
orthogonal to x, and distances are great-circle angles.
"""

import numpy as np

from .config import DEFAULT_CONFIG
from .errors import AntipodalLogarithm, InvalidInput, RetractionFailure

# angles below this use the small-angle branches
SMALL_ANGLE = 1e-12


def _check_unit(x, name="x"):
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise InvalidInput(f"{name} must be a vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InvalidInput(f"{name} has non-finite entries")
    n = np.linalg.norm(x)
    if abs(n - 1.0) > 1e-8:
        raise InvalidInput(f"{name} is not unit length (norm {n:.3e})")
    return x


def great_circle_angle(x, y) -> float:
    """Angle between unit vectors via 2 atan2(||x - y||, ||x + y||).

    Equivalent to arccos of the inner product but with full relative
    accuracy at both ends: exactly 0 for identical inputs and exactly pi
    for exact antipodes, where the arccos form loses half the digits.
    """
    return float(
        2.0 * np.arctan2(np.linalg.norm(x - y), np.linalg.norm(x + y))
    )


def sphere_dist(x, y) -> float:
    """Great-circle distance between two unit vectors."""
    x = _check_unit(x, "x")
    y = _check_unit(y, "y")
    return great_circle_angle(x, y)


def sphere_project(x, w) -> np.ndarray:
    """Orthogonal projection of an ambient vector onto the tangent space at x."""
    x = _check_unit(x, "x")
    w = np.asarray(w, dtype=float)
    return w - (x @ w) * x


def sphere_exp(x, v) -> np.ndarray:
    """Exponential map: follow the great circle from x with velocity v for unit time.

    Velocities below the small-angle threshold fall back to a normalized
    first-order step. The output is renormalized to stay on the sphere.
    """
    x = _check_unit(x, "x")
    v = np.asarray(v, dtype=float)
    theta = np.linalg.norm(v)
    if theta < SMALL_ANGLE:
        y = x + v
    else:
        y = np.cos(theta) * x + (np.sin(theta) / theta) * v
    return y / np.linalg.norm(y)


def sphere_log(x, y, guard: float = DEFAULT_CONFIG.antipodal_guard) -> np.ndarray:
    """Inverse of sphere_exp: the tangent at x pointing to y with norm dist(x, y).

    Refuses within the guard band of the antipode, where the logarithm is
    not unique.
    """
    x = _check_unit(x, "x")
    y = _check_unit(y, "y")
    c = float(np.clip(x @ y, -1.0, 1.0))
    theta = great_circle_angle(x, y)
    if theta > np.pi - guard:
        raise AntipodalLogarithm(
            f"points are antipodal within guard {guard:.1e} (angle {theta:.12f})"
        )
    if theta < SMALL_ANGLE:
        return y - c * x
    return (theta / np.sin(theta)) * (y - c * x)


def sphere_retract(x, v) -> np.ndarray:
    """Metric projection retraction (x + v) / ||x + v||."""
    x = _check_unit(x, "x")
    v = np.asarray(v, dtype=float)
    y = x + v
    n = np.linalg.norm(y)
    if n < 1e-12:
        raise RetractionFailure("retraction target is the origin")
    return y / n
