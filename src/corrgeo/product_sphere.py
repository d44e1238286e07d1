"""Product-of-spheres geometry on matrices with unit rows.

A point is an m x k matrix whose rows all have unit norm, one sphere factor
per row. All maps act row by row; the product metric is the Frobenius inner
product, so the squared distance is the sum of squared row angles.

Iterative solves in the package (row means here, the rotation search in
quotient_space) share one Riemannian trust-region Newton method, fed a
closed-form model: loss, gradient and Hessian in orthonormal tangent
coordinates, plus a retraction. It solves a stack of independent problems
in lockstep (all rows of a row mean, all starts of an alignment), one
batched eigendecomposition, step, retraction and model evaluation per
iteration; a member that finishes drops out of the stack.
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
    # rows along the last axis; leading axes broadcast
    d = X - Y
    s = X + Y
    theta = 2.0 * np.arctan2(
        np.sqrt(np.einsum("...j,...j->...", d, d)),
        np.sqrt(np.einsum("...j,...j->...", s, s)),
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
    """Trust-region steps in the eigenbases of a stack of model Hessians.

    Row r minimizes gt[r].s + s.(lam[r] s)/2 over |s| <= radius[r] with the
    shift mu >= max(0, -lam_min) of the exact solution; returns the steps
    and their predicted decreases. Components whose shifted eigenvalue
    lam + mu sits at rounding level are left at zero, so flat directions
    (the stabilizer of a rank-deficient cloud) stay untouched. Negative
    curvature is followed only as far as the gradient reaches it, as in a
    Krylov solve: near a degenerate minimum (rank-deficient clouds on both
    sides) the curvature along the set of minimizers is negative in
    proportion to the gradient and carries no gradient component, and a
    step along it gains nothing. Each row runs its own secular-equation
    iteration until its own tolerance is met.
    """
    tiny = 1e-12 * np.maximum(np.abs(lam).max(axis=1), np.finfo(float).tiny)
    lo = np.where(lam[:, 0] < -tiny, -lam[:, 0], 0.0)

    def step(rows, mu):
        d = lam[rows] + mu[:, None]
        keep = d > tiny[rows, None]
        return np.where(keep, -gt[rows] / np.where(keep, d, 1.0), 0.0), d, keep

    flat = lam <= lam[:, :1] + tiny[:, None]
    g_min = np.sqrt(np.sum(np.where(flat, gt * gt, 0.0), axis=1))
    # the most negative curvature alone carries the step past the boundary
    push = (lo > 0.0) & (g_min > 2.0 * tiny * radius)
    mu = np.where(push, lo + g_min / (2.0 * radius), lo)
    s, d, keep = step(slice(None), mu)
    ns = np.linalg.norm(s, axis=1)
    clip = live = np.flatnonzero(ns > radius)
    # Newton on the concave 1/|s(mu)| - 1/radius approaches the root from
    # the left; bisection guards against a step out of the bracket [a, b]
    a = mu.copy()
    b = lo + np.linalg.norm(gt, axis=1) / radius
    for _ in range(60):
        if not live.size:
            break
        r, n, kl = radius[live], ns[live], keep[live]
        dk = np.where(kl, d[live], 1.0)
        q = np.sum(np.where(kl, gt[live] ** 2 / dk**3, 0.0), axis=1)
        mu_next = mu[live] + (n - r) / r * n * n / q
        inside = (a[live] < mu_next) & (mu_next < b[live])
        mu[live] = np.where(inside, mu_next, 0.5 * (a[live] + b[live]))
        s[live], d[live], keep[live] = step(live, mu[live])
        n = ns[live] = np.linalg.norm(s[live], axis=1)
        a[live] = np.where(n > r, mu[live], a[live])
        b[live] = np.where(n > r, b[live], mu[live])
        live = live[np.abs(n - r) > 1e-9 * r]
    s[clip] *= np.minimum(1.0, radius[clip] / ns[clip])[:, None]
    return s, -(np.sum(gt * s, axis=1) + 0.5 * np.sum(lam * s * s, axis=1))


def _trust_region(model, retract, x, cfg: SolverConfig):
    """Riemannian trust-region Newton method with an exact subproblem solve.

    Solves a stack of independent problems in lockstep: x holds one
    starting point per member along its first axis. model(x, members)
    returns (loss, g, H, clamped) for the points x of the listed members
    (indices into the stack): per member the loss, its gradient and
    Hessian in orthonormal coordinates of the tangent space, and which rows
    had their gradient factor clamped; retract(x, s) maps coordinate steps
    to the next points. Each iteration factors the Hessians of the active
    members with one eigh and takes their steps, retractions and model
    evaluations as one stack; radius and stopping state are each member's
    own, and a member that stops leaves the active set, so every member
    follows the iterates it would follow alone.

    Steps are accepted on the ratio of actual to predicted decrease. Once
    the predicted decrease is below the rounding level of the loss, loss
    differences carry no information; from there a step is accepted only if
    it lowers the gradient norm (accurate to eps), and the member stops at
    the first step that does not, or once such a step has left the gradient
    norm at most cfg.grad_tol. Quadratic convergence takes the gradient to
    rounding level on the way.

    Returns per-member arrays (x, loss, grad_norm, iterations, converged,
    stagnated, clamped_any): converged means grad_norm <= cfg.grad_tol,
    stagnated that the trust region collapsed with the gradient still above
    it.
    """
    x = np.array(x, dtype=float)
    size = x.shape[0]
    loss, g, H, clamped = model(x, np.arange(size))
    gn = np.linalg.norm(g, axis=1)
    clamped_any = np.any(clamped, axis=1)
    radius = np.ones(size)
    stagnated = np.zeros(size, dtype=bool)
    done = np.full(size, cfg.max_iters < 1)
    it = np.zeros(size, dtype=int)
    floor = 100.0 * np.finfo(float).eps
    while not done.all():
        act = np.flatnonzero(~done)
        it[act] += 1
        lam, V = np.linalg.eigh(H[act])
        s, pred = _trust_region_step(
            lam, np.einsum("rpq,rp->rq", V, g[act]), radius[act]
        )
        x_new = retract(x[act], np.einsum("rpq,rq->rp", V, s))
        loss_new, g_new, H_new, clamped_new = model(x_new, act)
        gn_new = np.linalg.norm(g_new, axis=1)
        floored = pred <= floor * np.maximum(1.0, loss[act])
        stop = floored & (gn_new >= gn[act])
        stagnated[act[stop]] = gn[act[stop]] > cfg.grad_tol
        rho = (loss[act] - loss_new) / np.where(floored, 1.0, pred)
        ns = np.linalg.norm(s, axis=1)
        r = radius[act]
        shrink = ~floored & (rho < 0.25)
        grow = ~floored & (rho > 0.75) & (ns >= 0.99 * r)
        radius[act] = np.where(shrink, 0.25 * ns, np.where(grow, 2.0 * r, r))
        take = ~stop & (floored | (rho > 0.1))
        acc = act[take]
        x[acc], loss[acc], gn[acc] = x_new[take], loss_new[take], gn_new[take]
        g[acc], H[acc] = g_new[take], H_new[take]
        clamped_any[acc] |= np.any(clamped_new[take], axis=1)
        done[act] = stop | (floored & (gn[act] <= cfg.grad_tol))
        done[act] |= it[act] >= cfg.max_iters
    return x, loss, gn, it, gn <= cfg.grad_tol, stagnated, clamped_any


def _tangent_basis(x):
    """Orthonormal k x (k-1) bases of the tangent spaces at unit vectors x.

    x is a k-vector or a stack (..., k). The columns of the Householder
    reflection carrying e_0 to -sign(x_0) x, after its first.
    """
    v = np.array(x, dtype=float)
    v[..., 0] += np.copysign(1.0, v[..., 0])
    vv = np.einsum("...i,...i->...", v, v)
    outer = v[..., :, None] * v[..., None, 1:]
    return np.eye(v.shape[-1])[:, 1:] - (2.0 / vv)[..., None, None] * outer


def _row_mean_model(P, w):
    """Closed-form trust-region model of weighted spherical means.

    P is one n x k cloud or an (m, n, k) stack of clouds, w the weights.
    model(x, members) evaluates the clouds of the listed members (all of P
    when members is None) at the points x. In coordinates of the tangent
    basis B at x, g = B^T egrad and H = (P B)^T diag(w phi'') (P B) -
    (x . egrad) I, the Riemannian Hessian of sum_i w_i arccos(p_i . x)^2;
    steps retract by normalization.
    """
    eye = np.eye(P.shape[-1] - 1)

    def model(x, members=None):
        Q = P if members is None else P[members]
        c, th = _row_angles(Q, x[..., None, :])
        coef, clamped = angle_grad_coef(c, th)
        wc = w * coef
        PB = Q @ _tangent_basis(x)
        xeg = np.einsum("...k,...k->...", (wc[..., None, :] @ Q)[..., 0, :], x)
        H = np.swapaxes(PB, -1, -2) @ ((w * _angle_curvature(c, th))[..., None] * PB)
        H -= xeg[..., None, None] * eye
        return (th * th) @ w, (wc[..., None, :] @ PB)[..., 0, :], H, clamped

    def retract(x, s):
        y = x + (_tangent_basis(x) @ s[..., None])[..., 0]
        return y / np.linalg.norm(y, axis=-1, keepdims=True)

    return model, retract


def ps_frechet_fixed(points, weights, cfg: SolverConfig = DEFAULT_CONFIG, init=None):
    """Weighted Frechet mean on the product of spheres, rotations held fixed.

    Solves the m independent weighted spherical-mean problems as one stack
    of trust-region Newton iterations. Each row starts from the normalized
    weighted Euclidean mean (first sample's row when that mean is near
    zero). When init is given and beats that solve's loss on some rows,
    those rows are solved again from init as a second stack and the rerun
    kept, so the returned loss never exceeds the loss at init.

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

    clouds = np.stack(pts, axis=1)  # m x n x k, the samples of each row
    x0 = w @ clouds
    n0 = np.linalg.norm(x0, axis=1)[:, None]
    x0 = np.where(n0 < 1e-8, clouds[:, 0], x0 / np.maximum(n0, 1e-8))
    model, retract = _row_mean_model(clouds, w)
    mean, loss, gn, it, conv, stag, clamped = _trust_region(model, retract, x0, cfg)
    if init is not None:
        th = _row_angles(clouds, init[:, None, :])[1]
        redo = np.flatnonzero((th * th) @ w < loss)
        if redo.size:
            model, retract = _row_mean_model(clouds[redo], w)
            x, loss[redo], gn[redo], it2, conv[redo], stag[redo], cl2 = _trust_region(
                model, retract, init[redo], cfg
            )
            mean[redo] = x
            it[redo] = np.maximum(it[redo], it2)
            clamped[redo] |= cl2

    report = SolverReport(
        converged=bool(conv.all()),
        iterations=int(it.max()),
        grad_norm=float(gn.max()),
        loss=float(loss.sum()),
        stagnated=bool(stag.any()),
        clamped_rows=tuple(int(j) for j in np.flatnonzero(clamped)),
    )
    return mean, report
