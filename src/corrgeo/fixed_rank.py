"""Horizontal and vertical structure over orbit representatives.

At X the tangent space of the product of spheres holds the vertical space
{X W : W skew} tangent to the orbit and the horizontal space
{V : V^T X = X^T V}. Quotient-level tangents are represented by horizontal
lifts; gradients of rotation invariant functions lift by projection.

This module is the one home of both formulas: the defect |V^T X - X^T V|,
defined at every rank and bounded by _check_horizontal (quotient_metric's
and orbit_exp's one check), and _vertical_part, the vertical component,
which like the projections and the metric needs full rank.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .kernels import numerical_rank, sylvester_spd
from .product_sphere import ProductTangent, _check_tangent, _rep, _tangent_part, _tangent_vec

HORIZ_TOL = 1e-8  # horizontality tolerance of checked and certified tangents


@dataclass(frozen=True)
class HorizontalTangent(ProductTangent):
    """A tangent with its defect |V^T X - X^T V|_F: measured, or orbit_log's
    search gradient norm, which equals it and which grad_tol bounds."""

    defect: float


def _full_rank_rep(X) -> np.ndarray:
    X = _rep(X)
    if numerical_rank(X) < X.shape[1]:
        raise InvalidInput("base point must have full rank k")
    return X


def _defect(X, vec) -> float:
    return float(np.linalg.norm(vec.T @ X - X.T @ vec))


def horizontality_defect(X, V) -> float:
    """Frobenius norm of V^T X - X^T V, zero exactly when V is horizontal."""
    X = _rep(X)
    return _defect(X, _tangent_vec(X, V))


def _check_horizontal(X, V, name="tangent") -> np.ndarray:
    """V's matrix at the unit-row X; InvalidInput if its defect exceeds the one
    it records (a HorizontalTangent's, else 0) by HORIZ_TOL max(1, |V|_F)."""
    vec = _tangent_vec(X, V)
    recorded = V.defect if isinstance(V, HorizontalTangent) else 0.0
    defect = _defect(X, vec)
    if defect > recorded + HORIZ_TOL * max(1.0, float(np.linalg.norm(vec))):
        raise InvalidInput(f"{name} is not horizontal (defect {defect:.3e})")
    return vec


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
    return ProductTangent._at(X, _vertical_part(X, _tangent_vec(X, W)))


def _horizontal(X, V) -> HorizontalTangent:
    """The horizontal component of the tangent matrix V at the checked full-rank X."""
    H = V - _vertical_part(X, V)
    return HorizontalTangent._at(X, H, defect=_defect(X, H))


def horizontal_project(X, W) -> HorizontalTangent:
    """Horizontal component: the tangent minus its vertical projection."""
    X = _full_rank_rep(X)
    return _horizontal(X, _tangent_vec(X, W))


def quotient_metric(U, V) -> float:
    """Inner product of two horizontal tangents at the same full-rank point.

    Both arguments must be tangents at one base point (_tangent_vec's rule)
    and pass _check_horizontal; the metric is then the Frobenius inner
    product of the lifts.
    """
    if not isinstance(U, ProductTangent) or not isinstance(V, ProductTangent):
        raise InvalidInput("quotient_metric expects tangent objects")
    _tangent_vec(U.base, V, "tangents live at different base points")
    X = _full_rank_rep(U.base)
    for name, T in (("first", U), ("second", V)):
        _check_horizontal(X, T, f"{name} tangent")
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
    return _horizontal(X, _check_tangent(X, _tangent_part(X, G)))
