"""Product-of-spheres geometry on matrices with unit rows.

A point is an m x k matrix whose rows all have unit norm, one sphere factor
per row. All maps act row by row; the product metric is the Frobenius inner
product, so the squared distance is the sum of squared row angles.

Iterative solves in the package (row means here, the rotation search in
quotient_space) share one Riemannian trust-region Newton method, fed a
closed-form model: loss, gradient and Hessian in orthonormal tangent
coordinates, plus a retraction.
"""

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG, SolverConfig, SolverReport
from .errors import AntipodalLogarithm, InvalidInput
from .sphere import SMALL_ANGLE

# magnitude cap for the angle-gradient factor as a row nears the antipode
GRAD_FACTOR_CAP = 1e8


def check_unit_rows(X, name="X") -> np.ndarray:
    """Validate an m x k matrix with unit rows and k >= 2; returns it as float."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise InvalidInput(f"{name} must be a matrix, got shape {X.shape}")
    if X.shape[1] < 2:
        raise InvalidInput(f"{name} needs at least 2 columns, got {X.shape[1]}")
    if not np.all(np.isfinite(X)):
        raise InvalidInput(f"{name} has non-finite entries")
    norms = np.linalg.norm(X, axis=1)
    bad = np.abs(norms - 1.0) > 1e-8
    if np.any(bad):
        i = int(np.argmax(bad))
        raise InvalidInput(f"row {i} of {name} has norm {norms[i]:.12f}, expected 1")
    return X


def unit_rows(A) -> np.ndarray:
    """Rescale every row of A to unit norm (rows of near-zero norm are rejected)."""
    A = np.asarray(A, dtype=float)
    norms = np.linalg.norm(A, axis=1)
    if np.any(norms < 1e-12):
        raise InvalidInput("cannot normalize a row of near-zero norm")
    return A / norms[:, None]


@dataclass(frozen=True)
class ProductTangent:
    """Tangent vector at a product-of-spheres point: rowwise orthogonal to base.

    horizontal_certified and vertical_norm are filled in only by the quotient
    logarithm, which certifies (or flags) near-horizontality of its output.
    """

    base: np.ndarray
    vec: np.ndarray
    horizontal_certified: bool | None = None
    vertical_norm: float | None = None

    def __post_init__(self):
        base = check_unit_rows(self.base, "base")
        vec = np.asarray(self.vec, dtype=float)
        if vec.shape != base.shape:
            raise InvalidInput(
                f"tangent shape {vec.shape} does not match base {base.shape}"
            )
        if not np.all(np.isfinite(vec)):
            raise InvalidInput("tangent has non-finite entries")
        resid = np.abs(np.einsum("ij,ij->i", base, vec))
        if np.any(resid > 1e-8 * max(1.0, float(np.linalg.norm(vec)))):
            i = int(np.argmax(resid))
            raise InvalidInput(
                f"row {i} is not tangent (inner product {resid[i]:.3e})"
            )
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "vec", vec)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.vec))

    def scaled(self, t: float) -> "ProductTangent":
        return ProductTangent(self.base, t * self.vec)


def _row_angles(X, Y):
    # 2 atan2(||x - y||, ||x + y||) per row: exact at 0 and pi, unlike arccos
    d = X - Y
    s = X + Y
    theta = 2.0 * np.arctan2(
        np.sqrt(np.einsum("ij,ij->i", d, d)),
        np.sqrt(np.einsum("ij,ij->i", s, s)),
    )
    return np.cos(theta), theta


def ps_dist(X, Y) -> float:
    """Product geodesic distance: sqrt of the sum of squared row angles."""
    X = check_unit_rows(X, "X")
    Y = check_unit_rows(Y, "Y")
    if X.shape != Y.shape:
        raise InvalidInput(f"shape mismatch {X.shape} vs {Y.shape}")
    _, theta = _row_angles(X, Y)
    return float(np.sqrt(theta @ theta))


def ps_project(X, W) -> ProductTangent:
    """Project an ambient m x k matrix onto the tangent space row by row."""
    X = check_unit_rows(X, "X")
    W = np.asarray(W, dtype=float)
    if W.shape != X.shape:
        raise InvalidInput(f"shape mismatch {W.shape} vs {X.shape}")
    V = W - np.einsum("ij,ij->i", X, W)[:, None] * X
    return ProductTangent(X, V)


def ps_metric(U: ProductTangent, V: ProductTangent) -> float:
    """Frobenius inner product of two tangents at the same base point."""
    if U.base.shape != V.base.shape or not np.allclose(
        U.base, V.base, rtol=0.0, atol=1e-10
    ):
        raise InvalidInput("tangents live at different base points")
    return float(np.sum(U.vec * V.vec))


def ps_exp(X, V, t: float = 1.0) -> np.ndarray:
    """Rowwise exponential map: each row follows its great circle for time t.

    Accepts a ProductTangent (base must be X) or a raw m x k matrix of
    rowwise-tangent velocities.
    """
    X = check_unit_rows(X, "X")
    if isinstance(V, ProductTangent):
        if not np.allclose(V.base, X, rtol=0.0, atol=1e-10):
            raise InvalidInput("tangent base does not match X")
        V = V.vec
    V = np.asarray(V, dtype=float)
    if V.shape != X.shape:
        raise InvalidInput(f"velocity shape {V.shape} does not match {X.shape}")
    norms = np.linalg.norm(V, axis=1)
    ang = t * norms
    small = ang < SMALL_ANGLE
    # sin(ang)/norms is t*sinc(ang); guard the zero-velocity rows
    scale = np.where(small, t, np.sin(ang) / np.where(norms > 0, norms, 1.0))
    Y = np.cos(ang)[:, None] * X + scale[:, None] * V
    return unit_rows(Y)


def ps_log(X, Y, guard: float = DEFAULT_CONFIG.antipodal_guard) -> ProductTangent:
    """Rowwise logarithm; raises AntipodalLogarithm naming the offending rows."""
    X = check_unit_rows(X, "X")
    Y = check_unit_rows(Y, "Y")
    if X.shape != Y.shape:
        raise InvalidInput(f"shape mismatch {X.shape} vs {Y.shape}")
    c, theta = _row_angles(X, Y)
    bad = theta > np.pi - guard
    if np.any(bad):
        rows = np.flatnonzero(bad)
        raise AntipodalLogarithm(
            f"rows {rows.tolist()} are antipodal within guard {guard:.1e}", rows=rows
        )
    small = theta < SMALL_ANGLE
    scale = np.where(small, 1.0, theta / np.sin(np.where(small, 1.0, theta)))
    V = scale[:, None] * (Y - c[:, None] * X)
    return ProductTangent(X, V)


def angle_grad_coef(c, theta):
    """Derivative factor of the squared row angle with respect to the cosine.

    Returns (coef, clamped) where coef = -2 theta / sin(theta), the
    derivative of theta^2 = arccos(c)^2 in c. The factor tends to -2 as
    c -> 1 (limit substituted inside a 1e-12 band) and diverges as
    c -> -1 (magnitude capped, the row flagged).
    """
    c = np.asarray(c, dtype=float)
    theta = np.asarray(theta, dtype=float)
    s = np.sin(theta)
    near_one = (1.0 - c) < 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(near_one, 1.0, theta / np.where(s > 0.0, s, np.inf))
    ratio = np.where(np.isfinite(ratio), ratio, GRAD_FACTOR_CAP)
    clamped = ratio > GRAD_FACTOR_CAP
    ratio = np.minimum(ratio, GRAD_FACTOR_CAP)
    return -2.0 * ratio, clamped


def _angle_curvature(c, theta):
    """Second derivative of the squared row angle arccos(c)^2 in c.

    2 (sin theta - theta cos theta) / sin^3 theta, which tends to 2/3 at
    theta = 0 (series substituted below 1e-2) and diverges at pi, where
    sin theta is floored as in angle_grad_coef's cap.
    """
    c = np.asarray(c, dtype=float)
    theta = np.asarray(theta, dtype=float)
    s = np.maximum(np.sin(theta), theta / GRAD_FACTOR_CAP)
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = 2.0 * (s - theta * c) / s**3
    return np.where(theta < 1e-2, 2.0 / 3.0 + (4.0 / 15.0) * theta**2, direct)


def _trust_region_step(lam, gt, radius):
    """Trust-region step in the eigenbasis of the model Hessian.

    Minimizes gt.s + s.(lam s)/2 over |s| <= radius with the shift mu >=
    max(0, -lam_min) of the exact solution; returns (s, predicted decrease).
    Components whose shifted eigenvalue lam + mu sits at rounding level
    are left at zero, so flat directions (the stabilizer of a rank-deficient
    cloud) stay untouched. Negative curvature is followed only as far as the
    gradient reaches it, as in a Krylov solve: near a degenerate minimum
    (rank-deficient clouds on both sides) the curvature along the set of
    minimizers is negative in proportion to the gradient and carries no
    gradient component, and a step along it gains nothing.
    """
    tiny = 1e-12 * max(float(np.abs(lam).max()), np.finfo(float).tiny)
    lo = -lam[0] if lam[0] < -tiny else 0.0

    def step(mu):
        d = lam + mu
        keep = d > tiny
        return np.where(keep, -gt / np.where(keep, d, 1.0), 0.0), d, keep

    mu = lo
    g_min = float(np.linalg.norm(gt[lam <= lam[0] + tiny]))
    if lo > 0.0 and g_min > 2.0 * tiny * radius:
        # the most negative curvature alone carries the step past the boundary
        mu = lo + g_min / (2.0 * radius)
    s, d, keep = step(mu)
    ns = float(np.linalg.norm(s))
    if ns > radius:
        # Newton on the concave 1/|s(mu)| - 1/radius approaches the root from
        # the left; bisection guards against a step out of the bracket
        a, b = mu, lo + float(np.linalg.norm(gt)) / radius
        for _ in range(60):
            q = float(np.sum(gt[keep] ** 2 / d[keep] ** 3))
            mu_next = mu + (ns - radius) / radius * ns * ns / q
            mu = mu_next if a < mu_next < b else 0.5 * (a + b)
            s, d, keep = step(mu)
            ns = float(np.linalg.norm(s))
            if ns > radius:
                a = mu
            else:
                b = mu
            if abs(ns - radius) <= 1e-9 * radius:
                break
        s = s * min(1.0, radius / ns)
    return s, -float(gt @ s + 0.5 * (lam * s) @ s)


def _trust_region(model, retract, x, cfg: SolverConfig):
    """Riemannian trust-region Newton method with an exact subproblem solve.

    model(x) returns (loss, g, H, clamped): the loss, its gradient and
    Hessian in orthonormal coordinates of the tangent space at x, and the
    rows whose gradient factor was clamped; retract(x, s) maps a coordinate
    step to the next point. Steps are accepted on the ratio of actual to
    predicted decrease. Once the predicted decrease is below the rounding
    level of the loss, loss differences carry no information; from there a
    step is accepted only if it lowers the gradient norm (accurate to eps),
    and the solve stops at the first step that does not, or once such a
    step has left the gradient norm at most cfg.grad_tol. Quadratic
    convergence takes the gradient to rounding level on the way.

    Returns (x, loss, grad_norm, iterations, converged, stagnated,
    clamped_any): converged means grad_norm <= cfg.grad_tol, stagnated that
    the trust region collapsed with the gradient still above it.
    """
    loss, g, H, clamped = model(x)
    gn = float(np.linalg.norm(g))
    clamped_any = bool(np.any(clamped))
    radius = 1.0
    stagnated = floored = False
    it = 0
    eig = None
    while not (floored and gn <= cfg.grad_tol) and it < cfg.max_iters:
        it += 1
        if eig is None:
            eig = np.linalg.eigh(H)
        lam, V = eig
        s, pred = _trust_region_step(lam, V.T @ g, radius)
        x_new = retract(x, V @ s)
        new = model(x_new)
        gn_new = float(np.linalg.norm(new[1]))
        floored = pred <= 100.0 * np.finfo(float).eps * max(1.0, loss)
        if floored:
            if gn_new >= gn:
                stagnated = gn > cfg.grad_tol
                break
        else:
            rho = (loss - new[0]) / pred
            ns = float(np.linalg.norm(s))
            if rho < 0.25:
                radius = 0.25 * ns
            elif rho > 0.75 and ns >= 0.99 * radius:
                radius *= 2.0
            if rho <= 0.1:
                continue
        x, (loss, g, H, clamped), gn, eig = x_new, new, gn_new, None
        clamped_any = clamped_any or bool(np.any(clamped))
    return x, loss, gn, it, gn <= cfg.grad_tol, stagnated, clamped_any


def _tangent_basis(x):
    """Orthonormal k x (k-1) basis of the tangent space at the unit vector x.

    The columns of the Householder reflection carrying e_0 to -sign(x_0) x,
    after its first.
    """
    v = x.copy()
    v[0] += np.copysign(1.0, x[0])
    return np.eye(x.size)[:, 1:] - (2.0 / (v @ v)) * np.outer(v, v[1:])


def _row_mean_model(P, w):
    """Closed-form trust-region model of one weighted spherical mean.

    P is the n x k cloud, w the weights. In coordinates of the tangent basis
    B at x, g = B^T egrad and H = (P B)^T diag(w phi'') (P B) - (x . egrad) I,
    the Riemannian Hessian of sum_i w_i arccos(p_i . x)^2; steps retract by
    normalization.
    """
    eye = np.eye(P.shape[1] - 1)

    def model(x):
        c, th = _row_angles(P, x)
        coef, clamped = angle_grad_coef(c, th)
        eg = P.T @ (w * coef)
        PB = P @ _tangent_basis(x)
        H = PB.T @ ((w * _angle_curvature(c, th))[:, None] * PB) - (x @ eg) * eye
        return float(w @ (th * th)), PB.T @ (w * coef), H, clamped

    def retract(x, s):
        y = x + _tangent_basis(x) @ s
        return y / np.linalg.norm(y)

    return model, retract


def ps_frechet_fixed(points, weights, cfg: SolverConfig = DEFAULT_CONFIG, init=None):
    """Weighted Frechet mean on the product of spheres, rotations held fixed.

    Solves the m independent weighted spherical-mean problems by
    trust-region Newton iterations. Each row starts from the
    normalized weighted Euclidean mean (first sample's row when that mean is
    near zero). When init is given and beats the default run's loss on a
    row, the solve is rerun from init and the better row kept, so the
    returned loss never exceeds the loss at init.

    Returns (mean, report).
    """
    pts = [check_unit_rows(P, f"points[{i}]") for i, P in enumerate(points)]
    if not pts:
        raise InvalidInput("need at least one sample")
    shape = pts[0].shape
    for i, P in enumerate(pts):
        if P.shape != shape:
            raise InvalidInput(f"points[{i}] has shape {P.shape}, expected {shape}")
    w = np.asarray(weights, dtype=float)
    if w.shape != (len(pts),):
        raise InvalidInput(f"weights shape {w.shape} does not match {len(pts)} samples")
    if np.any(w < 0.0) or not np.all(np.isfinite(w)) or w.sum() <= 0.0:
        raise InvalidInput("weights must be nonnegative with positive sum")
    if init is not None:
        init = check_unit_rows(init, "init")
        if init.shape != shape:
            raise InvalidInput(f"init shape {init.shape}, expected {shape}")

    m, k = shape
    stack = np.stack(pts)  # n x m x k
    mean = np.empty((m, k))
    row_losses = np.empty(m)
    max_it, max_gn = 0, 0.0
    all_conv, any_stag = True, False
    clamped_rows = []
    for j in range(m):
        P = stack[:, j, :]
        x0 = P.T @ w
        n0 = np.linalg.norm(x0)
        x0 = P[0] if n0 < 1e-8 else x0 / n0
        model, retract = _row_mean_model(P, w)
        x, loss, gn, it, conv, stag, clamped = _trust_region(model, retract, x0, cfg)
        if init is not None:
            th = _row_angles(P, init[j])[1]
            warm_loss = float(w @ (th * th))
            if warm_loss < loss:
                x, loss, gn, it2, conv, stag, cl2 = _trust_region(
                    model, retract, init[j], cfg
                )
                it = max(it, it2)
                clamped = clamped or cl2
        mean[j] = x
        row_losses[j] = loss
        max_it = max(max_it, it)
        max_gn = max(max_gn, gn)
        all_conv = all_conv and conv
        any_stag = any_stag or stag
        if clamped:
            clamped_rows.append(j)

    report = SolverReport(
        converged=all_conv,
        iterations=max_it,
        grad_norm=max_gn,
        loss=float(row_losses.sum()),
        stagnated=any_stag,
        clamped_rows=tuple(clamped_rows),
    )
    return mean, report
