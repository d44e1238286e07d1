"""Horizontal and vertical structure over full-rank orbit representatives.

At a full-rank X the tangent space of the product of spheres splits into
the vertical space {X W : W skew} tangent to the orbit and its orthogonal
complement, the horizontal space {V : V^T X = X^T V}. Quotient-level
tangents are represented by horizontal lifts; gradients of rotation
invariant functions lift by projecting the ambient gradient.

This module is the one home of both formulas: horizontality_defect
measures |V^T X - X^T V| and _vertical_part solves for the vertical
component. The quotient log and exp in quotient_space use them, and
HORIZ_TOL, to certify and to check horizontality.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .kernels import numerical_rank, sylvester_spd
from .product_sphere import ProductTangent, _rep, _tangent_vec, ps_project

HORIZ_TOL = 1e-8  # horizontality tolerance of checked and certified tangents


@dataclass(frozen=True)
class HorizontalTangent(ProductTangent):
    """A tangent certified horizontal at construction time."""

    defect: float = 0.0


def _full_rank_rep(X) -> np.ndarray:
    X = _rep(X)
    if numerical_rank(X) < X.shape[1]:
        raise InvalidInput("base point must have full rank k")
    return X


def horizontality_defect(X, V) -> float:
    """Frobenius norm of V^T X - X^T V, zero exactly when V is horizontal."""
    X = _rep(X)
    V = _tangent_vec(X, V)
    return float(np.linalg.norm(V.T @ X - X.T @ V))


def _vertical_part(X, V) -> np.ndarray:
    """X A for the skew A with (X^T X) A + A (X^T X) = X^T V - V^T X; X full rank."""
    A = sylvester_spd(X.T @ X, X.T @ V - V.T @ X)
    A = 0.5 * (A - A.T)  # keep the solution exactly skew
    return X @ A


def vertical_project(X, W) -> ProductTangent:
    """Component of a tangent along the orbit through X.

    Solves (X^T X) A + A (X^T X) = X^T W - W^T X for the skew matrix A and
    returns X A. Fixed points are exactly the vertical vectors X Omega.
    """
    X = _full_rank_rep(X)
    return ProductTangent(X, _vertical_part(X, _tangent_vec(X, W)))


def horizontal_project(X, W) -> HorizontalTangent:
    """Horizontal component: the tangent minus its vertical projection."""
    X = _full_rank_rep(X)
    V = _tangent_vec(X, W)
    H = V - _vertical_part(X, V)
    return HorizontalTangent(base=X, vec=H, defect=horizontality_defect(X, H))


def quotient_metric(U, V, X=None) -> float:
    """Inner product of two horizontal tangents at the same full-rank point.

    Both arguments must be horizontal within HORIZ_TOL relative to
    their norms; the metric is then the Frobenius inner product of the
    lifts.
    """
    if not isinstance(U, ProductTangent) or not isinstance(V, ProductTangent):
        raise InvalidInput("quotient_metric expects tangent objects")
    if not np.allclose(U.base, V.base, rtol=0.0, atol=1e-10):
        raise InvalidInput("tangents live at different base points")
    X = _full_rank_rep(U.base if X is None else X)
    for name, T in (("first", U), ("second", V)):
        defect = horizontality_defect(X, T)
        if defect > HORIZ_TOL * max(1.0, float(np.linalg.norm(T.vec))):
            raise InvalidInput(f"{name} tangent is not horizontal (defect {defect:.3e})")
    return float(np.sum(U.vec * V.vec))


def lift_gradient(X, euclidean_grad) -> HorizontalTangent:
    """Horizontal lift of the gradient of a rotation-invariant function.

    Projects the ambient m x k gradient to the product-sphere tangent space
    and then to the horizontal space. For a function invariant under the
    common rotation the vertical component already vanishes up to rounding,
    so the second projection only certifies horizontality.
    """
    X = _full_rank_rep(X)
    G = np.asarray(euclidean_grad, dtype=float)
    if G.shape != X.shape:
        raise InvalidInput(f"gradient shape {G.shape} does not match {X.shape}")
    V = ps_project(X, G)
    return horizontal_project(X, V.vec)
