"""Product-of-spheres geometry on matrices with unit rows.

A point is an m x k matrix whose rows all have unit norm, one sphere factor
per row. All maps act row by row; the product metric is the Frobenius inner
product, so the squared distance is the sum of squared row angles. A
single sphere is the case m = 1: a 1 x k matrix.

Iterative solves in the package (row means here, the rotation search in
quotient_space, the joint Frechet mean in frechet) share one Riemannian
trust-region Newton method, fed a closed-form model: loss, gradient and
Hessian-vector products on ambient tangent vectors (a k-vector orthogonal
to its row, a flattened k x k skew matrix per rotation), plus a
retraction. It solves a stack of independent problems in lockstep (all
rows of a row mean, all starts of all pairs of a stack of alignments): per
iteration one truncated-CG solve of the trust-region subproblems, one
retraction and one model evaluation for the whole stack; a member that
finishes drops out of the stack, and so does one that its caller's rule
holds idle. No Hessian matrix is formed: a member holds its model's data,
never a matrix as large as its tangent space squared.
"""

import math
import sys
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG, SolverConfig, SolverReport, is_number
from .errors import AntipodalLogarithm, InvalidInput

# angles below this use the small-angle branches
SMALL_ANGLE = 1e-12
# magnitude cap for the angle-gradient factor as a row nears the antipode
GRAD_FACTOR_CAP = 1e8
# cut-locus band: ps_log refuses rows within this angle of the antipode
ANTIPODAL_GUARD = 1e-6
# iteration cap of every trust-region solve
MAX_ITERS = 500
# inexact-Newton floor of every trust-region solve, as a fraction of
# grad_tol: truncated CG stops once its residual is at most CG_FLOOR *
# grad_tol, and a member stops once its gradient is. After a step that
# solves the model to residual r the new gradient is r + O(|s|^2), so a
# residual of grad_tol / 100 keeps the next gradient well inside grad_tol;
# anything below it is polish that no caller reads
CG_FLOOR = 1e-2
# largest |t| max_i |v_i| of a time t along a velocity V (_check_time): the
# squared row norms of t V, which a path forms, stay finite
TIME_BOUND = math.sqrt(sys.float_info.max)


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


def _rep(X, name="X") -> np.ndarray:
    """The unit-row matrix of an argument: an orbit point's stored rep, else check_unit_rows."""
    return X.rep if hasattr(X, "rep") else check_unit_rows(X, name)


def unit_rows(A) -> np.ndarray:
    """Rescale every row (last axis) of A to unit norm (rows of near-zero norm are rejected)."""
    A = np.asarray(A, dtype=float)
    norms = np.linalg.norm(A, axis=-1)
    if np.any(norms < 1e-12):
        raise InvalidInput("cannot normalize a row of near-zero norm")
    return A / norms[..., None]


def _check_tangent(X, V) -> np.ndarray:
    """V, unless it is non-finite or a row has |<x_i, v_i>| > 1e-8 max(1, |V|_F):
    the tangency rule of every tangent, built or raw; raises InvalidInput."""
    if not np.all(np.isfinite(V)):
        raise InvalidInput("tangent has non-finite entries")
    resid = np.abs(np.einsum("ij,ij->i", X, V))
    if np.any(resid > 1e-8 * max(1.0, float(np.linalg.norm(V)))):
        i = int(np.argmax(resid))
        raise InvalidInput(f"row {i} is not tangent (inner product {resid[i]:.3e})")
    return V


@dataclass(frozen=True)
class ProductTangent:
    """Tangent vector at a product-of-spheres point: rowwise orthogonal to base.

    Construction checks the shape and _check_tangent's rule.
    """

    base: np.ndarray
    vec: np.ndarray

    def __post_init__(self):
        base = check_unit_rows(self.base, "base")
        vec = np.asarray(self.vec, dtype=float)
        if vec.shape != base.shape:
            raise InvalidInput(
                f"tangent shape {vec.shape} does not match base {base.shape}"
            )
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "vec", _check_tangent(base, vec))

    @classmethod
    def _at(cls, base, vec, **fields):
        """cls(base, vec, **fields) for a base that passed check_unit_rows and
        a float vec of its shape: of the checks only _check_tangent runs."""
        tangent = object.__new__(cls)
        for name, value in (("base", base), ("vec", _check_tangent(base, vec)), *fields.items()):
            object.__setattr__(tangent, name, value)
        return tangent

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.vec))


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
    return ProductTangent(X, _tangent_part(X, W))


def _tangent_part(x, v):
    """v minus its components along the unit vectors x (last axis): the rowwise tangent projection.

    Projected twice: one pass leaves a component along x of order eps |v|,
    large against the result when v is nearly parallel to x (a gradient
    near a mean, a product's sum of samples); the second pass takes it to
    order eps times the result.
    """
    for _ in range(2):
        v = v - np.einsum("...k,...k->...", x, v)[..., None] * x
    return v


def ps_metric(U: ProductTangent, V: ProductTangent) -> float:
    """Frobenius inner product of two tangents at the same base point (_tangent_vec's rule)."""
    if not isinstance(U, ProductTangent) or not isinstance(V, ProductTangent):
        raise InvalidInput("ps_metric expects tangent objects")
    return float(np.sum(U.vec * _tangent_vec(U.base, V, "tangents live at different base points")))


def _tangent_vec(X, V, mismatch="tangent base does not match X") -> np.ndarray:
    """The matrix of a tangent at X: a ProductTangent based at X or a raw X-shaped matrix.

    The base-point rule of every map that takes a tangent: a ProductTangent
    is at X when its base is X itself or has X's shape and lies within
    1e-10 of it, else InvalidInput(mismatch); a raw matrix must pass
    _check_tangent at X.
    """
    if isinstance(V, ProductTangent):
        if V.base is X:  # the tangent's own base, checked at its construction
            return V.vec
        if V.base.shape != X.shape or not np.allclose(V.base, X, rtol=0.0, atol=1e-10):
            raise InvalidInput(mismatch)
        return V.vec
    V = np.asarray(V, dtype=float)
    if V.shape != X.shape:
        raise InvalidInput(f"velocity shape {V.shape} does not match {X.shape}")
    return _check_tangent(X, V)


def ps_exp(X, V, t: float = 1.0) -> np.ndarray:
    """Rowwise exponential map: each row follows its great circle for time t.

    Accepts a ProductTangent (base must be X) or a raw m x k matrix of
    rowwise-tangent velocities (else InvalidInput); t must pass _check_time.
    """
    X = check_unit_rows(X, "X")
    V = _tangent_vec(X, V)
    _check_time(t, V)
    return unit_rows(_great_circles(X, V, t))


def _check_time(t, V, name="t"):
    """InvalidInput unless t is a finite real number with |t| max_i |v_i| <= TIME_BOUND.

    The time rule of every exponential and path, checked before any
    arithmetic on t: beyond the bound a row's angle t |v_i| or the squared
    norm of t v_i overflows, and the point would be NaN.
    """
    if not (
        is_number(t, -math.inf)
        and abs(t) <= sys.float_info.max
        and abs(float(t)) * float(np.hypot.reduce(V, axis=-1).max(initial=0.0)) <= TIME_BOUND
    ):
        raise InvalidInput(
            f"{name} must be a finite real number with |{name}| max_i |v_i| <= "
            f"{TIME_BOUND:.4g}, got {t!r}"
        )


def _great_circles(X, V, t):
    """The rows of X moved for time t along the rows of V, before renormalization.

    ps_exp's row arithmetic without its checks, for callers whose X and V
    are already validated. Rows lie along the last axis, and a stack of
    velocities V broadcasts against one X.
    """
    norms = np.linalg.norm(V, axis=-1)
    ang = t * norms
    small = np.abs(ang) < SMALL_ANGLE
    # sin(ang)/norms is t*sinc(ang); guard the zero-velocity rows
    scale = np.where(small, t, np.sin(ang) / np.where(norms > 0, norms, 1.0))
    return np.cos(ang)[..., None] * X + scale[..., None] * V


def ps_log(X, Y) -> ProductTangent:
    """Rowwise logarithm; raises AntipodalLogarithm naming the offending rows."""
    X = check_unit_rows(X, "X")
    Y = check_unit_rows(Y, "Y")
    if X.shape != Y.shape:
        raise InvalidInput(f"shape mismatch {X.shape} vs {Y.shape}")
    return ProductTangent._at(X, _log_rows(X, Y))


def _log_rows(X, Y) -> np.ndarray:
    """ps_log's matrix for checked X and Y of one shape; raises AntipodalLogarithm."""
    c, theta = _row_angles(X, Y)
    bad = theta > np.pi - ANTIPODAL_GUARD
    if np.any(bad):
        rows = np.flatnonzero(bad)
        raise AntipodalLogarithm(
            f"rows {rows.tolist()} are antipodal within guard {ANTIPODAL_GUARD:.1e}",
            rows=rows,
        )
    small = theta < SMALL_ANGLE
    scale = np.where(small, 1.0, theta / np.sin(np.where(small, 1.0, theta)))
    return scale[:, None] * (Y - c[:, None] * X)


def _angle_factors(c, theta):
    """First and second derivatives of the squared row angle arccos(c)^2 in c.

    Returns (coef, curv, clamped) from one sine. coef = -2 theta /
    sin(theta) tends to -2 as c -> 1 (limit substituted inside a 1e-12
    band) and diverges as c -> -1 (magnitude capped at GRAD_FACTOR_CAP, the
    row flagged clamped). curv = 2 (sin theta - theta cos theta) / sin^3
    theta tends to 2/3 at theta = 0 (series substituted below 1e-2) and
    diverges at pi, where sin theta is floored as in the cap.
    """
    c = np.asarray(c, dtype=float)
    theta = np.asarray(theta, dtype=float)
    s = np.sin(theta)
    near_one = (1.0 - c) < 1e-12
    s_floor = np.maximum(s, theta / GRAD_FACTOR_CAP)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(near_one, 1.0, theta / np.where(s > 0.0, s, np.inf))
        direct = 2.0 * (s_floor - theta * c) / s_floor**3
    ratio = np.where(np.isfinite(ratio), ratio, GRAD_FACTOR_CAP)
    clamped = ratio > GRAD_FACTOR_CAP
    ratio = np.minimum(ratio, GRAD_FACTOR_CAP)
    curv = np.where(theta < 1e-2, 2.0 / 3.0 + (4.0 / 15.0) * theta**2, direct)
    return -2.0 * ratio, curv, clamped


class _HessianOp:
    """The model Hessians of a stack of members, applied as products.

    state holds per-member arrays along the first axis (no member axis for
    a single evaluation). Vectors are ambient, of length size, and the
    tangent space has dim dimensions: project(*state, d) projects each
    member's vector d[..., :] onto its tangent space, and product(*state,
    d) applies each member's Hessian to its tangent vector d and returns a
    tangent vector. Indexing selects members and assignment overwrites them,
    as for an array of Hessians. np.asarray densifies the product after the
    projection, one per ambient coordinate: a symmetric size x size matrix,
    the Hessian on the tangent space and zero across it.
    """

    def __init__(self, product, project, size, dim, *state):
        self.product, self.project, self.size, self.dim = product, project, size, dim
        self.state = state

    def __matmul__(self, d):
        return self.product(*self.state, d)

    def tangent(self, d):
        return self.project(*self.state, d)

    def __getitem__(self, members):
        state = (a[members] for a in self.state)
        return _HessianOp(self.product, self.project, self.size, self.dim, *state)

    def __setitem__(self, members, other):
        for a, b in zip(self.state, other.state):
            a[members] = b

    def __array__(self, dtype=None, copy=None):
        dense = [self @ self.tangent(e) for e in np.eye(self.size)]
        return np.stack(dense, axis=-1).astype(dtype)


def _truncated_cg(H, g, gn, radius, floor=0.0):
    """Steihaug-Toint truncated CG steps on a stack of trust-region models.

    Member r approximately minimizes g[r].s + s.(H[r] s)/2 over |s| <=
    radius[r], starting from s = 0: conjugate gradients until the residual
    is at most max(|g| min(|g|, 0.1), floor), a direction of nonpositive
    curvature is met, or the step reaches the boundary (then the step ends
    on it), and at most H.dim iterations, the dimension of the tangent
    space (not the length of the ambient vectors, which exact CG would
    never need). g and the products are tangent, but rounding leaves the
    search directions a component across the tangent space of order eps
    |g|, which is large against a direction once the residual has fallen
    far below g (a boundary step can follow such a direction), so the steps
    are projected once more (H.tangent) on return. The iterates stay in the
    Krylov space of g, so a zero gradient, or one at most the floor, gives
    s = 0. Flat directions (the stabilizer of a rank-deficient factor) are
    not left untouched: rounding gives g a component of order eps |G| along
    them. Without a floor, once |g| is below about 1.5e-8 CG can follow it
    to the boundary where its computed curvature is nonpositive; the floor
    _trust_region passes (CG_FLOOR * grad_tol) stops CG far above that
    rounding. Members iterate in lockstep; a member that stops stays in the
    stack with step length zero, so its step stays as it stopped and its
    products are still taken. Returns the steps and their predicted
    decreases.
    """
    s, Hs, r, p = np.zeros_like(g), np.zeros_like(g), g.copy(), -g
    # s.s, s.p and p.p follow the CG recurrences, three row sums fewer per
    # iteration. Rows are C-contiguous (the models return them so), so a
    # member's row sums do not depend on its place in the stack
    rr = pp = gn * gn
    ss = sp = np.zeros_like(gn)
    tol2 = np.maximum(rr * np.minimum(gn, 0.1) ** 2, floor * floor)
    live = rr > tol2
    r2 = radius * radius
    tiny = np.finfo(float).tiny
    for _ in range(H.dim):
        if not live.any():
            break
        Hp = H @ p
        pHp = (p * Hp).sum(axis=1)
        # the step length that reaches the boundary from s along p
        tau = (np.sqrt(np.maximum(sp * sp + pp * (r2 - ss), 0.0)) - sp) / np.maximum(pp, tiny)
        # positive curvature and the CG step rr / pHp stays inside; else
        # the step ends on the boundary at tau; zero once stopped
        inside = tau * pHp > rr
        alpha = np.divide(rr, pHp, out=tau, where=inside)
        alpha *= live
        s += alpha[:, None] * p
        aHp = alpha[:, None] * Hp
        Hs += aHp
        r += aHp
        rr_new = (r * r).sum(axis=1)
        live &= inside & (rr_new > tol2)
        beta = rr_new / np.maximum(rr, tiny)
        p *= beta[:, None]
        p -= r
        apP = alpha * pp
        ss = ss + alpha * (2.0 * sp + apP)
        sp = beta * (sp + apP)
        pp = rr_new + beta * beta * pp
        rr = rr_new
    s = H.tangent(s)
    return s, -((g * s).sum(axis=1) + 0.5 * (s * Hs).sum(axis=1))


# The per-member arrays of one _trust_region solve, read by name
Solve = namedtuple("Solve", "x loss grad_norm iterations converged stagnated clamped")


def _trust_region(model, retract, x, cfg: SolverConfig, idle=None):
    """Riemannian trust-region Newton method with truncated-CG steps.

    Solves a stack of independent problems in lockstep: x holds one
    starting point per member along its first axis. model(x, members)
    returns (loss, g, H, clamped) for the points x of the listed members
    (indices into the stack): per member the loss, its Riemannian gradient
    as a flattened ambient tangent vector, its Hessian as a _HessianOp
    (Hessian-vector products only), and which rows had their gradient
    factor clamped; retract(x, s) maps ambient tangent steps to the next
    points. The metric is the Frobenius product of the ambient vectors.
    Each iteration takes the steps of the active members from one lockstep
    Steihaug-Toint truncated CG (_truncated_cg) and their retractions and
    model evaluations as one stack; radius and stopping state are each
    member's own, and a member that stops leaves the active set, so every
    member follows the iterates it would follow alone.

    idle, when given, holds members that have not stopped: idle(stopped,
    loss, g, H, clamped, done) runs after the initial evaluation (stopped
    empty) and after each iteration in which members stopped, with the
    indices of those that stopped converged, the stack's arrays and the
    mask of the stopped members, and returns the mask of the members that
    take no step. The solve ends once every member has stopped or idles.

    Steps are accepted on the ratio of actual to predicted decrease. Once
    the predicted decrease is below the rounding level of the loss, loss
    differences carry no information; from there a step is accepted only if
    it lowers the gradient norm (accurate to eps), and the member stops at
    the first step that does not, or once such a step has left the gradient
    norm at most cfg.grad_tol. The truncated CG solves each model to a
    residual no smaller than the inexact-Newton floor CG_FLOOR *
    cfg.grad_tol, and a member whose accepted gradient is at most that
    floor stops in that iteration, converged, and is never stepped again (a
    start already there takes one zero step). No member runs more than
    MAX_ITERS iterations.

    Returns a Solve of per-member arrays: x the points, loss, grad_norm,
    iterations, converged (grad_norm <= cfg.grad_tol with no clamped row: a
    zero gradient on the cut locus is not a minimum), stagnated (the trust
    region collapsed with the gradient still above it) and clamped (the
    model's clamped rows at the returned point); a member that idles at the
    end holds the point of its last step (if it never stepped: its start, 0
    iterations). _report_fields turns members of it into SolverReport
    fields.
    """
    x = np.array(x, dtype=float)
    size = x.shape[0]
    loss, g, H, clamped = model(x, np.arange(size))
    gn = np.sqrt((g * g).sum(axis=1))
    radius = np.ones(size)
    stagnated = np.zeros(size, dtype=bool)
    done = np.zeros(size, dtype=bool)
    # the members that take no step: stopped, or idle by the caller's rule
    halted = done if idle is None else idle(np.arange(0), loss, g, H, clamped, done)
    it = np.zeros(size, dtype=int)
    floor = 100.0 * np.finfo(float).eps
    cg_floor = CG_FLOOR * cfg.grad_tol
    while not halted.all():
        act = np.flatnonzero(~halted)
        it[act] += 1
        # while every member is active, the stack's own arrays are its active set
        if act.size == size:
            xa, la, ga, gna, ra, Ha = x, loss, g, gn, radius, H
        else:
            xa, la, ga, gna, ra, Ha = x[act], loss[act], g[act], gn[act], radius[act], H[act]
        s, pred = _truncated_cg(Ha, ga, gna, ra, cg_floor)
        x_new = retract(xa, s)
        loss_new, g_new, H_new, clamped_new = model(x_new, act)
        gn_new = np.sqrt((g_new * g_new).sum(axis=1))
        floored = pred <= floor * np.maximum(1.0, la)
        stop = floored & (gn_new >= gna)
        stagnated[act] = stop & (gna > cfg.grad_tol)
        rho = (la - loss_new) / np.where(floored, 1.0, pred)
        ns = np.sqrt((s * s).sum(axis=1))
        shrink = ~floored & (rho < 0.25)
        grow = ~floored & (rho > 0.75) & (ns >= 0.99 * ra)
        radius[act] = np.where(shrink, 0.25 * ns, np.where(grow, 2.0 * ra, ra))
        take = ~stop & (floored | (rho > 0.1))
        acc = act[take]
        if acc.size == size:
            x, loss, gn, g, H, clamped = x_new, loss_new, gn_new, g_new, H_new, clamped_new
        elif acc.size:
            x[acc], loss[acc], gn[acc] = x_new[take], loss_new[take], gn_new[take]
            g[acc], H[acc], clamped[acc] = g_new[take], H_new[take], clamped_new[take]
        conv = gn[act] <= cfg.grad_tol
        stopped = stop | (floored & conv) | (gn[act] <= cg_floor) | (it[act] >= MAX_ITERS)
        done[act] = stopped
        if idle is not None and stopped.any():
            halted = done | idle(act[stopped & conv], loss, g, H, clamped, done)
    return Solve(x, loss, gn, it, (gn <= cfg.grad_tol) & ~clamped.any(axis=1), stagnated, clamped)


def _report_fields(solve, members, clamped_rows):
    """The SolverReport fields of members of a Solve, as keywords.

    members indexes the solve's arrays: one member, or every row of a row
    mean (converged when all rows are, the largest iterations and gradient
    norm, the summed loss); clamped_rows is a boolean mask over the rows
    of the result.
    """
    return dict(
        converged=bool(solve.converged[members].all()),
        iterations=int(solve.iterations[members].max()),
        grad_norm=float(solve.grad_norm[members].max()),
        loss=float(solve.loss[members].sum()),
        stagnated=bool(solve.stagnated[members].any()),
        clamped_rows=tuple(int(j) for j in np.flatnonzero(clamped_rows)),
    )


def _row_mean_model(P, w):
    """Closed-form trust-region model of weighted spherical means.

    P is one n x k cloud or an (m, n, k) stack of clouds, w the weights.
    model(x, members) evaluates the clouds of the listed members (all of P
    when members is None) at the points x. Tangent vectors at x are
    k-vectors orthogonal to x. With c_i = p_i . x, v_i = p_i - c_i x the
    tangent parts of the samples and e = P^T (w phi') the Euclidean gradient
    of sum_i w_i arccos(c_i)^2, g = e - (x . e) x and, for d projected onto
    the tangent space, H d = proj_x(V^T (w phi'' * V d)) - (x . e) d, the
    Riemannian Hessian applied to d. Through V the product is symmetric as
    written, and it does not cancel the large normal part of a sample near
    the antipode of x. Steps retract by normalize(x + s).
    """

    def project(V, wcurv, x, xeg, d):
        return _tangent_part(x, d)

    def product(V, wcurv, x, xeg, d):
        Vd = wcurv * (V @ d[..., None])[..., 0]
        return _tangent_part(x, (Vd[..., None, :] @ V)[..., 0, :]) - xeg[..., None] * d

    def model(x, members=None):
        Q = P if members is None else P[members]
        c, th = _row_angles(Q, x[..., None, :])
        coef, curv, clamped = _angle_factors(c, th)
        e = ((w * coef)[..., None, :] @ Q)[..., 0, :]
        xeg = np.einsum("...k,...k->...", e, x)
        V = Q - c[..., None] * x[..., None, :]
        k = x.shape[-1]
        H = _HessianOp(product, project, k, k - 1, V, w * curv, x, xeg)
        return (th * th) @ w, _tangent_part(x, e), H, clamped

    return model, lambda x, s: unit_rows(x + s)


def ps_frechet_fixed(points, weights, cfg: SolverConfig = DEFAULT_CONFIG):
    """Weighted Frechet mean on the product of spheres, rotations held fixed.

    Solves the m independent weighted spherical-mean problems as one stack
    of trust-region Newton iterations. Each row starts from the normalized
    weighted Euclidean mean (first sample's row when that mean is near
    zero).

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
    return _row_means(np.stack(pts, axis=1), w, cfg)


def _row_means(clouds, w, cfg: SolverConfig):
    """ps_frechet_fixed of checked inputs: clouds (m, n, k) holds the n samples of each row."""
    x0 = w @ clouds
    n0 = np.linalg.norm(x0, axis=1)[:, None]
    x0 = np.where(n0 < 1e-8, clouds[:, 0], x0 / np.maximum(n0, 1e-8))
    model, retract = _row_mean_model(clouds, w)
    solve = _trust_region(model, retract, x0, cfg)
    return solve.x, SolverReport(**_report_fields(solve, slice(None), solve.clamped.any(axis=1)))
