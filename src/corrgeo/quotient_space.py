"""The quotient of the product of spheres by a common rotation of all rows.

Two unit-row matrices are identified when one is the other times a single
orthogonal k x k matrix; orbits correspond one-to-one with correlation
matrices of rank at most k. The quotient distance is the product-sphere
distance after the best aligning rotation, found by Riemannian
trust-region Newton iterations on O(k) (closed-form gradient and Hessian)
from a Procrustes start plus random restarts.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.optimize import minimize_scalar

from .config import DEFAULT_CONFIG, SolverConfig
from .errors import AlignmentStagnation, InvalidInput
from .kernels import (
    DEFAULT_RANK_TOL,
    RankTolerance,
    numerical_rank,
    procrustes,
    random_orthogonal,
)
from .product_sphere import (
    ProductTangent,
    _angle_curvature,
    _row_angles,
    _trust_region,
    angle_grad_coef,
    check_unit_rows,
    ps_exp,
    ps_log,
)


@dataclass(frozen=True)
class OrbitPoint:
    """An orbit, stored through one unit-row representative."""

    rep: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rep", check_unit_rows(self.rep, "rep"))

    @property
    def m(self) -> int:
        return self.rep.shape[0]

    @property
    def k(self) -> int:
        return self.rep.shape[1]


def as_orbit(X) -> OrbitPoint:
    """Coerce a unit-row matrix (or pass through an OrbitPoint)."""
    return X if isinstance(X, OrbitPoint) else OrbitPoint(np.asarray(X, dtype=float))


def _rep(X) -> np.ndarray:
    return X.rep if isinstance(X, OrbitPoint) else check_unit_rows(X)


@dataclass(frozen=True)
class AlignmentResult:
    """Outcome of the rotation search between two orbit representatives.

    rotation is the minimizing O, aligned the equivalent second
    representative Y O^T, so the product-sphere distance from X to aligned
    is sqrt(loss).
    """

    rotation: np.ndarray
    aligned: np.ndarray
    loss: float
    grad_norm: float
    iterations: int
    converged: bool
    restarts_used: int
    stagnated: bool = False
    clamped_rows: tuple = ()


def _alignment_model(X, Y):
    """Closed-form trust-region model of the alignment loss on O(k).

    Coordinates w of the skew W = sum_p w_p E_p, with E_p = (e_a e_b^T -
    e_b e_a^T)/sqrt(2) orthonormal for a < b, and the retraction O expm(W).
    With u_i the rows of X O and phi(c) = arccos(c)^2:
    g_p = sum_i phi'(c_i) u_i^T E_p y_i and
    H = A^T diag(phi'') A + [tr(E_p E_q S)] with A_ip = u_i^T E_p y_i and S
    the symmetric part of sum_i phi'(c_i) y_i u_i^T. |g| is the Riemannian
    gradient norm |O skew(O^T G)|_F.
    """
    k = X.shape[1]
    ia, ib = np.triu_indices(k, 1)
    E = np.zeros((ia.size, k, k))
    E[np.arange(ia.size), ia, ib] = 1.0 / np.sqrt(2.0)
    E[np.arange(ia.size), ib, ia] = -1.0 / np.sqrt(2.0)
    E_flat = E.reshape(ia.size, -1)

    def model(O):
        U = X @ O
        c, th = _row_angles(U, Y)
        coef, clamped = angle_grad_coef(c, th)
        A = (U[:, ia] * Y[:, ib] - U[:, ib] * Y[:, ia]) / np.sqrt(2.0)
        S = (Y * coef[:, None]).T @ U
        ES = (E @ (0.5 * (S + S.T))).transpose(0, 2, 1).reshape(ia.size, -1)
        H = A.T @ (_angle_curvature(c, th)[:, None] * A) + E_flat @ ES.T
        return float(th @ th), A.T @ coef, H, clamped

    def retract(O, w):
        return O @ expm(np.tensordot(w, E, axes=1))

    return model, retract


def align(X, Y, cfg: SolverConfig = DEFAULT_CONFIG, extra_inits=()) -> AlignmentResult:
    """Best common rotation carrying X onto Y's orbit representative.

    Trust-region Newton iterations on O(k) for the sum of squared row
    angles between X O and Y, initialized at the Procrustes rotation plus
    cfg.restarts - 1 seeded random orthogonal starts (and any
    caller-supplied extra_inits). The lowest loss over all starts wins.
    """
    X = _rep(X)
    Y = _rep(Y)
    if X.shape != Y.shape:
        raise InvalidInput(f"shape mismatch {X.shape} vs {Y.shape}")
    k = X.shape[1]
    rng = np.random.default_rng(cfg.seed)
    starts = [procrustes(X, Y)]
    starts += [random_orthogonal(k, rng) for _ in range(max(0, cfg.restarts - 1))]
    starts += [np.asarray(O, dtype=float) for O in extra_inits]

    model, retract = _alignment_model(X, Y)
    best = None
    used = 0
    for O0 in starts:
        result = _trust_region(model, retract, O0, cfg)
        used += 1
        if best is None or result[1] < best[1]:
            best = result
        if best[1] <= 1e-28:
            # the loss cannot go below zero; skip the remaining starts
            break
    O, val, gn, it, conv, stag, clamped = best
    clamped_rows = ()
    if clamped:
        c, th = _row_angles(X @ O, Y)
        clamped_rows = tuple(np.flatnonzero(angle_grad_coef(c, th)[1]))
    return AlignmentResult(
        rotation=O,
        aligned=Y @ O.T,
        loss=val,
        grad_norm=gn,
        iterations=it,
        converged=conv,
        restarts_used=used,
        stagnated=stag,
        clamped_rows=clamped_rows,
    )


def orbit_dist(X, Y, cfg: SolverConfig = DEFAULT_CONFIG, extra_inits=()) -> float:
    """Quotient distance: aligned product-sphere distance.

    With cfg.symmetrize the rotation search runs in both orders and the
    smaller loss wins, which enforces exact symmetry of the reported value.
    """
    a = align(X, Y, cfg, extra_inits)
    best = a.loss
    if cfg.symmetrize:
        b = align(Y, X, cfg, [np.asarray(O, dtype=float).T for O in extra_inits])
        best = min(best, b.loss)
    return float(np.sqrt(max(best, 0.0)))


def orbit_equal(X, Y, cfg: SolverConfig = DEFAULT_CONFIG) -> bool:
    """Whether two representatives lie on the same orbit within cfg.equality_tol."""
    return orbit_dist(X, Y, cfg) <= cfg.equality_tol


def _vertical_coefficient(X, V):
    """Skew A with X A the vertical component of the tangent V at X."""
    from .kernels import sylvester_spd

    A = sylvester_spd(X.T @ X, X.T @ V - V.T @ X)
    return 0.5 * (A - A.T)


def orbit_log(X, Y, cfg: SolverConfig = DEFAULT_CONFIG) -> ProductTangent:
    """Logarithm in the quotient: rowwise log toward the aligned representative.

    Aligns Y to X first, then takes the product-sphere logarithm. First-order
    optimality of the alignment is exactly horizontality of the log, so when
    X has full rank the vertical component of the log is measured and the
    tangent carries the certificate (horizontal_certified, vertical_norm:
    at most cfg.horiz_tol); rank-deficient base points skip the certificate.
    """
    Xp = as_orbit(X)
    Yp = _rep(Y)
    r = align(Xp, Yp, cfg)
    if r.stagnated and r.grad_norm > cfg.stagnation_tol:
        raise AlignmentStagnation(
            f"rotation search stagnated at gradient norm {r.grad_norm:.3e}"
        )
    V = ps_log(Xp.rep, r.aligned, guard=cfg.antipodal_guard)
    certified = None
    vnorm = None
    if numerical_rank(Xp.rep) == Xp.k:
        vnorm = float(np.linalg.norm(Xp.rep @ _vertical_coefficient(Xp.rep, V.vec)))
        certified = vnorm <= cfg.horiz_tol
    return ProductTangent(
        base=V.base, vec=V.vec, horizontal_certified=certified, vertical_norm=vnorm
    )


def horizontality_defect(X, V) -> float:
    """Frobenius norm of V^T X - X^T V, zero exactly when V is horizontal."""
    X = _rep(X)
    V = V.vec if isinstance(V, ProductTangent) else np.asarray(V, dtype=float)
    return float(np.linalg.norm(V.T @ X - X.T @ V))


def orbit_exp(X, V, t: float = 1.0, cfg: SolverConfig = DEFAULT_CONFIG) -> OrbitPoint:
    """Exponential in the quotient: rowwise exponential of a horizontal tangent.

    Horizontality is the caller's responsibility by default; set
    cfg.require_horizontal to have the defect checked against cfg.horiz_tol
    (relative to the tangent norm).
    """
    Xp = as_orbit(X)
    vec = V.vec if isinstance(V, ProductTangent) else np.asarray(V, dtype=float)
    if cfg.require_horizontal:
        defect = horizontality_defect(Xp.rep, vec)
        if defect > cfg.horiz_tol * max(1.0, float(np.linalg.norm(vec))):
            raise InvalidInput(f"tangent is not horizontal (defect {defect:.3e})")
    return OrbitPoint(ps_exp(Xp.rep, vec, t))


@dataclass(frozen=True)
class GeodesicSegment:
    """A constant-speed geodesic t -> exp(start, t * velocity), t in [0, duration]."""

    start: np.ndarray
    velocity: ProductTangent
    duration: float

    def __post_init__(self):
        start = check_unit_rows(self.start, "start")
        if not np.allclose(self.velocity.base, start, rtol=0.0, atol=1e-10):
            raise InvalidInput("velocity is not based at the start point")
        if not (self.duration > 0.0 and np.isfinite(self.duration)):
            raise InvalidInput(f"duration must be positive, got {self.duration}")
        object.__setattr__(self, "start", start)

    def point(self, t: float) -> np.ndarray:
        return ps_exp(self.start, self.velocity.vec, t)


def geodesic_rank_profile(
    seg: GeodesicSegment, samples: int, tol: RankTolerance = DEFAULT_RANK_TOL
):
    """Ranks along a geodesic: both endpoints plus `samples` interior points.

    Returns a list of (t, rank) pairs in increasing t.
    """
    if samples < 1:
        raise InvalidInput("need at least one interior sample")
    ts = np.linspace(0.0, seg.duration, samples + 2)
    return [(float(t), numerical_rank(seg.point(t), tol)) for t in ts]


def _min_gap(X, V, t, tol: RankTolerance) -> float:
    """Smallest singular value minus the effective rank threshold at time t."""
    sigma = np.linalg.svd(ps_exp(X, V, t), compute_uv=False)
    return float(sigma[-1] - tol.threshold(sigma[0]))


def _first_drop(X, V, T: float, tol: RankTolerance, grid: int = 1024):
    """Smallest t in (0, T] where the rank drops, or None. Resolved to 1e-7."""
    ts = np.linspace(0.0, T, grid + 1)
    # batched singular values along the whole path
    pts = np.stack([ps_exp(X, V, t) for t in ts])
    sig = np.linalg.svd(pts, compute_uv=False)
    gaps = sig[:, -1] - np.maximum(tol.absolute_floor, tol.relative * sig[:, 0])

    def refine_edge(a: float, b: float) -> float:
        # invariant: gap(a) > 0 >= gap(b)
        while b - a > 1e-7:
            mid = 0.5 * (a + b)
            if _min_gap(X, V, mid, tol) > 0.0:
                a = mid
            else:
                b = mid
        return a

    # candidate dips: grid crossings and interior local minima of the gap
    for i in range(1, grid + 1):
        if gaps[i] <= 0.0:
            return refine_edge(ts[i - 1], ts[i])
        is_min = gaps[i] <= gaps[i - 1] and (i == grid or gaps[i] <= gaps[i + 1])
        if not is_min:
            continue
        lo, hi = ts[i - 1], ts[min(i + 1, grid)]
        res = minimize_scalar(
            lambda t: _min_gap(X, V, t, tol),
            bounds=(lo, hi),
            method="bounded",
            options={"xatol": 1e-10},
        )
        if res.fun <= 0.0:
            return refine_edge(lo, float(res.x))
    return None


def max_full_rank_interval(
    X,
    V,
    t_max_search: float = 10.0,
    tol: RankTolerance = DEFAULT_RANK_TOL,
    cfg: SolverConfig = DEFAULT_CONFIG,
):
    """Largest interval around 0 on which t -> exp(X, t V) keeps full rank.

    Scans (-t_max_search, t_max_search) with a dense grid of smallest
    singular values, refines every candidate dip with a bounded scalar
    minimization (rank drops may touch zero without crossing), and bisects
    the first certified drop to 1e-7 in t. Returns (t_min, t_max), using
    -t_max_search or t_max_search when no drop is found on that side.
    """
    Xp = _rep(X)
    vec = V.vec if isinstance(V, ProductTangent) else np.asarray(V, dtype=float)
    if vec.shape != Xp.shape:
        raise InvalidInput(f"velocity shape {vec.shape} does not match {Xp.shape}")
    if not (t_max_search > 0.0 and np.isfinite(t_max_search)):
        raise InvalidInput("t_max_search must be positive and finite")
    k = Xp.shape[1]
    if numerical_rank(Xp, tol) < k:
        raise InvalidInput("base point is rank deficient")
    if np.linalg.norm(vec) == 0.0:
        return (-t_max_search, t_max_search)
    up = _first_drop(Xp, vec, t_max_search, tol)
    down = _first_drop(Xp, -vec, t_max_search, tol)
    t_max = t_max_search if up is None else up
    t_min = -t_max_search if down is None else -down
    return (float(t_min), float(t_max))


def k_embedding(X, k2: int) -> OrbitPoint:
    """Embed into a wider quotient by zero-padding columns to width k2."""
    Xp = _rep(X)
    k = Xp.shape[1]
    if k2 < k:
        raise InvalidInput(f"target width {k2} is below current width {k}")
    pad = np.zeros((Xp.shape[0], k2 - k))
    return OrbitPoint(np.hstack([Xp, pad]))
