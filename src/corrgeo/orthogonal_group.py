"""Optimization primitives on the orthogonal group O(k).

Tangent vectors at O have the form O W with W skew-symmetric. og_retract
is the sign-corrected Q factor; the rotation search itself steps by the
exponential O expm(W) inside its trust-region Newton solver (see
quotient_space).
"""

import numpy as np

from .errors import InvalidInput
from .kernels import qf, skew_part


def check_orthogonal(O, name="O", tol: float = 1e-8) -> np.ndarray:
    O = np.asarray(O, dtype=float)
    if O.ndim != 2 or O.shape[0] != O.shape[1]:
        raise InvalidInput(f"{name} must be square, got shape {O.shape}")
    if not np.all(np.isfinite(O)):
        raise InvalidInput(f"{name} has non-finite entries")
    defect = np.linalg.norm(O.T @ O - np.eye(O.shape[0]))
    if defect > tol:
        raise InvalidInput(f"{name} is not orthogonal (defect {defect:.3e})")
    return O


def og_project(O, V) -> np.ndarray:
    """Project an ambient k x k matrix onto the tangent space at O."""
    O = check_orthogonal(O)
    V = np.asarray(V, dtype=float)
    if V.shape != O.shape:
        raise InvalidInput(f"shape mismatch {V.shape} vs {O.shape}")
    return O @ skew_part(O.T @ V)


def og_retract(O, xi) -> np.ndarray:
    """QR retraction: sign-corrected Q factor of O + xi."""
    O = check_orthogonal(O)
    xi = np.asarray(xi, dtype=float)
    if xi.shape != O.shape:
        raise InvalidInput(f"shape mismatch {xi.shape} vs {O.shape}")
    return qf(O + xi)
