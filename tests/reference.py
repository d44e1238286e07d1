"""Reference computations the tests compare the package against.

Single-vector sphere maps (the m = 1 case of the product_sphere maps,
written without sharing their code), the sign-corrected QR factor and the
QR retraction on O(k), the Procrustes rotation, and slow
independent oracles: the k = 2 distance as a dense scan of the whole
orthogonal group, gradients from central finite differences, the tiny
circle mean as an exhaustive angle grid, the points of a geodesic at many
times as one tiled matrix of rows, and the escape-time scan with the gap
taken at every time of its dense grid. The trust-region models'
Hessians are kept as dense matrices in orthonormal coordinates (the K
basis matrices of so(k), Householder bases of the row tangent spaces), for
the models' ambient Hessian-vector products to be checked against through
those bases. The Frechet
mean is also kept in its alternating per-pair form (Gower's generalized
Procrustes loop: one rotation search per pair and per sample, then the
rotations-fixed row means), which the package's joint solve must match or
beat, and the rotation search in its form without early retirement, every
start iterated to its own stop. A work counter tallies the trust-region
iterations and Hessian-vector products of the package's solves.
"""

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from corrgeo import frechet, product_sphere, quotient_space
from corrgeo.config import DEFAULT_CONFIG
from corrgeo.errors import AntipodalLogarithm, InvalidInput
from corrgeo.kernels import RANK_RELATIVE, rank_threshold
from corrgeo.product_sphere import (
    ANTIPODAL_GUARD,
    SMALL_ANGLE,
    _HessianOp,
    _angle_factors,
    _great_circles,
    _row_angles,
    _row_mean_model,
    _trust_region,
    check_unit_rows,
    ps_frechet_fixed,
    unit_rows,
)
from corrgeo.quotient_space import (
    CERTIFY_TOL,
    _align_pairs,
    _alignment_model,
    _gaps,
    _stays_positive,
    _unordered_starts,
    _zoom,
)

# sphere S^{k-1} in R^k ---------------------------------------------------------


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


def sphere_log(x, y, guard: float = ANTIPODAL_GUARD) -> np.ndarray:
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
        raise InvalidInput("retraction target is the origin")
    return y / n


# orthogonal group O(k) ----------------------------------------------------------


def qf(A) -> np.ndarray:
    """Q factor of the QR decomposition with positive diagonal of R.

    The sign correction makes the factor unique, so qf is idempotent on
    orthogonal inputs. Raises InvalidInput when A is numerically singular
    (a diagonal entry of R below the rank threshold).
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise InvalidInput(f"qf expects a matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise InvalidInput("qf input has non-finite entries")
    Q, R = np.linalg.qr(A)
    diag = R.diagonal()
    d = np.abs(diag)
    if d.size == 0 or d.min() <= rank_threshold(d.max()):
        raise InvalidInput("qf target is numerically singular")
    return Q * np.where(diag < 0.0, -1.0, 1.0)


def procrustes(X, Y) -> np.ndarray:
    """Orthogonal O minimizing ||X O - Y||_F over the full orthogonal group.

    Computed as U V^T from the SVD of X^T Y. Reflections are allowed, so the
    result may have determinant -1.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.shape != Y.shape:
        raise InvalidInput(f"shape mismatch {X.shape} vs {Y.shape}")
    M = X.T @ Y
    if not np.all(np.isfinite(M)):
        raise InvalidInput("procrustes input has non-finite entries")
    U, _, Vt = np.linalg.svd(M)
    return U @ Vt


def og_retract(O, xi) -> np.ndarray:
    """QR retraction: sign-corrected Q factor of O + xi."""
    return qf(O + xi)


# oracles ------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """Resolution of a dense scan over rotation angles."""

    resolution: int = 10000

    def __post_init__(self):
        if self.resolution < 8:
            raise InvalidInput("grid resolution below 8 is meaningless")

    def error_bound(self, m: int) -> float:
        """Worst-case scan error from the Lipschitz bound sqrt(m) * pi."""
        return float(np.sqrt(m) * np.pi * (2.0 * np.pi / self.resolution))


DEFAULT_GRID = GridSpec()


def o2_grid_distance(X, Y, grid: GridSpec = DEFAULT_GRID) -> float:
    """Quotient distance for k = 2 by scanning all of O(2).

    Evaluates the aligned product-sphere distance at grid.resolution
    equally spaced rotation angles and again at the same number of
    reflection angles, and returns the smallest value. Upper-bounds the
    true distance; the gap is at most grid.error_bound(m).
    """
    X = check_unit_rows(X, "X")
    Y = check_unit_rows(Y, "Y")
    if X.shape != Y.shape or X.shape[1] != 2:
        raise InvalidInput("o2_grid_distance needs two matrices of matching shape with k = 2")
    phi = np.linspace(0.0, 2.0 * np.pi, grid.resolution, endpoint=False)
    c, s = np.cos(phi), np.sin(phi)
    # rows of X O for every angle at once; O = [[c, -s], [s, c]]
    a, b = X[:, 0], X[:, 1]
    rot0 = np.outer(a, c) + np.outer(b, s)  # first coordinate of each rotated row
    rot1 = np.outer(-a, s) + np.outer(b, c)
    # reflections: O = [[c, s], [s, -c]]
    ref0 = np.outer(a, c) + np.outer(b, s)
    ref1 = np.outer(a, s) - np.outer(b, c)
    best = np.inf
    for u0, u1 in ((rot0, rot1), (ref0, ref1)):
        inner = np.clip(u0 * Y[:, [0]] + u1 * Y[:, [1]], -1.0, 1.0)
        th = np.arccos(inner)
        best = min(best, float(np.min(np.sum(th * th, axis=0))))
    return float(np.sqrt(best))


def fd_gradient(loss, point, tangent_basis, retract, h: float = 1e-5):
    """Gradient coordinates by central finite differences along a basis.

    For each basis direction b the derivative is estimated from
    loss(retract(point, t b)) at t = +-h and +-h/2 and the two central
    differences are Richardson-combined, cancelling the h^2 error term.
    """
    if not 1e-8 <= h <= 1e-3:
        raise InvalidInput(f"step {h} outside the supported range [1e-8, 1e-3]")
    coords = []
    for b in tangent_basis:
        d_h = (loss(retract(point, h * b)) - loss(retract(point, -h * b))) / (2.0 * h)
        d_half = (
            loss(retract(point, 0.5 * h * b)) - loss(retract(point, -0.5 * h * b))
        ) / h
        val = (4.0 * d_half - d_h) / 3.0
        if not np.isfinite(val):
            raise InvalidInput("loss returned a non-finite value near the base point")
        coords.append(float(val))
    return np.asarray(coords)


def exhaustive_small_frechet(points, weights, resolution: int = 200000) -> np.ndarray:
    """Weighted Frechet mean on the circle by exhaustive angle scan.

    points is an n x 2 array of unit vectors. Returns the unit vector
    minimizing the weighted sum of squared angles over a dense grid of
    candidate angles.
    """
    P = np.asarray(points, dtype=float)
    if P.ndim != 2 or P.shape[1] != 2:
        raise InvalidInput("points must be an n x 2 array of circle points")
    norms = np.linalg.norm(P, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-8):
        raise InvalidInput("points must have unit norm")
    w = np.asarray(weights, dtype=float)
    if w.shape != (P.shape[0],) or np.any(w < 0.0) or w.sum() <= 0.0:
        raise InvalidInput("weights must be nonnegative with positive sum")
    ang = np.linspace(0.0, 2.0 * np.pi, resolution, endpoint=False)
    cand = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    inner = np.clip(cand @ P.T, -1.0, 1.0)
    th = np.arccos(inner)
    obj = (th * th) @ w
    return cand[int(np.argmin(obj))]


# escape times, dense grid ---------------------------------------------------------


def tiled_path(X, V, ts):
    """quotient_space._path with X tiled and the velocities t V built by np.kron.

    Every time's rows are stacked into one (len(ts) m) x k matrix for
    ps_exp's row arithmetic at time 1, then split into one matrix per time.
    """
    rows = unit_rows(_great_circles(np.tile(X, (ts.size, 1)), np.kron(ts[:, None], V), 1.0))
    return rows.reshape(-1, *X.shape)


def dense_first_drop(X, V, T: float):
    """quotient_space._first_drop with the gap taken at all 1025 grid times.

    Candidate dips are the grid crossings and interior local minima of the
    gap, zoomed into unless the Lipschitz bound certifies them.
    """
    grid = 1024  # intervals of the dense scan over (0, T]
    ts = np.linspace(0.0, T, grid + 1)
    gaps = _gaps(X, V, ts)
    lipschitz = (1.0 + RANK_RELATIVE) * np.linalg.norm(V)
    for i in range(1, grid + 1):
        if gaps[i] <= 0.0:
            return _zoom(X, V, ts[i - 1], ts[i], lipschitz)
        is_min = gaps[i] <= gaps[i - 1] and (i == grid or gaps[i] <= gaps[i + 1])
        if is_min and not _stays_positive(gaps[i - 1 : i + 2], ts[1] - ts[0], lipschitz):
            t = _zoom(X, V, ts[i - 1], ts[min(i + 1, grid)], lipschitz)
            if t is not None:
                return t
    return None


# dense trust-region Hessians ------------------------------------------------------


def so_basis(k):
    """The orthonormal basis E_p = (e_a e_b^T - e_b e_a^T)/sqrt(2), a < b, of so(k), as K x k x k."""
    ia, ib = np.triu_indices(k, 1)
    E = np.zeros((ia.size, k, k))
    E[np.arange(ia.size), ia, ib] = 1.0 / np.sqrt(2.0)
    E[np.arange(ia.size), ib, ia] = -1.0 / np.sqrt(2.0)
    return E


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


def dense_alignment_hessian(X, Y, O):
    """Hessian of the alignment loss at O on O(k) as a dense K x K matrix.

    Coordinates of the skew W = sum_p w_p E_p, E_p = (e_a e_b^T - e_b
    e_a^T)/sqrt(2) for a < b. With u_i the rows of X O and phi(c) =
    arccos(c)^2: H = A^T diag(phi'') A + [tr(E_p E_q S)], A_ip = u_i^T E_p
    y_i and S the symmetric part of sum_i phi'(c_i) y_i u_i^T.
    """
    E = so_basis(X.shape[1])
    U = X @ O
    c, th = _row_angles(U, Y)
    coef, curv, _ = _angle_factors(c, th)
    A = np.einsum("ia,pab,ib->ip", U, E, Y)
    S = (Y * coef[:, None]).T @ U
    S = 0.5 * (S + S.T)
    H = A.T @ (curv[:, None] * A)
    return H + np.einsum("pab,qbc,ca->pq", E, E, S)


def dense_row_mean_hessian(P, w, x):
    """Hessian of sum_i w_i arccos(p_i . x)^2 at x in the tangent basis _tangent_basis(x).

    (P B)^T diag(w phi'') (P B) - (x . egrad) I, as a dense (k-1) x (k-1)
    matrix, with B = _tangent_basis(x).
    """
    c, th = _row_angles(P, x)
    coef, curv, _ = _angle_factors(c, th)
    PB = P @ _tangent_basis(x)
    egrad = P.T @ (w * coef)
    H = PB.T @ ((w * curv)[:, None] * PB)
    return H - (x @ egrad) * np.eye(x.size - 1)


# rotation search, every start to its own stop ------------------------------------


def align_every_start(X, Y, cfg=DEFAULT_CONFIG):
    """The rotation search of the unordered pair (X, Y) with no start retired.

    The starts of quotient_space.align in its order (the pair searched in
    the order of the representatives' bytes: the Procrustes rotation, the
    seeded random rotations, then their transposes), solved as one
    trust-region stack without pair blocks, so every start iterates to its own
    stop; the first lowest loss wins. Returns (loss, rotation carrying X
    onto Y's orbit, lockstep iterations of the stack).
    """
    swap = Y.tobytes() < X.tobytes()
    A, B = (Y, X) if swap else (X, Y)
    rand = _unordered_starts(A.shape[1], cfg.restarts, cfg.seed)
    starts = np.concatenate([procrustes(A, B)[None], rand])
    model, retract = _alignment_model(np.stack([A] * len(starts)), np.stack([B] * len(starts)))
    O, loss, _, it, *_ = _trust_region(model, retract, starts, cfg)
    b = int(np.argmin(loss))
    return float(loss[b]), O[b].T if swap else O[b], int(it.max())


def align_random_starts(X, Y, starts, cfg=DEFAULT_CONFIG):
    """The lowest alignment loss of X onto Y from the given rotations, each iterated to its own stop.

    One trust-region stack without pair blocks, so no start is retired.
    """
    n = len(starts)
    model, retract = _alignment_model(np.stack([X] * n), np.stack([Y] * n))
    return float(_trust_region(model, retract, np.asarray(starts), cfg)[1].min())


# alignment certificate, from the factors and the rotation alone -----------------


def alignment_gap(X, Y, O):
    """Alignment loss at the rotation O and the duality gap of its convex relaxation.

    phi(c) = arccos(c)^2 is convex on [-1, 1], so f(P) = sum_i phi(x_i P
    y_i^T) is convex on the spectral ball |P|_2 <= 1 (the convex hull of
    O(k)) and lies above its linearization at O there: min over O(k) of f
    is at least f(O) - gap, gap = tr G + |G|_*, G = (X O)^T diag(phi') Y.
    Computed from X, Y and O alone, with phi'(c) = -2 arccos(c) / sqrt(1 -
    c^2) (-2 at c = 1) and no solver state. Returns (loss, gap); the gap is
    inf when a row is antipodal, where phi' is unbounded.
    """
    U = X @ O
    c = np.clip(np.einsum("ij,ij->i", U, Y), -1.0, 1.0)
    th = np.arccos(c)
    sin = np.sqrt(1.0 - c * c)
    loss = float(th @ th)
    if np.any((sin == 0.0) & (c < 0.0)):
        return loss, np.inf
    dphi = -2.0 * np.divide(th, sin, out=np.ones_like(th), where=sin > 0.0)
    G = (U * dphi[:, None]).T @ Y
    return loss, float(np.trace(G) + np.linalg.svd(G, compute_uv=False).sum())


def alignment_certified(X, Y, O) -> bool:
    """Whether alignment_gap certifies O as the global minimum, within CERTIFY_TOL relative."""
    loss, gap = alignment_gap(X, Y, O)
    return gap <= CERTIFY_TOL * max(1.0, loss)


# Frechet mean, one rotation search at a time ------------------------------------

# the alternating loop stops once the loss changes by at most MEAN_TOL
# relative to max(1, loss), or after MAX_OUTER iterations
MEAN_TOL = 1e-10
MAX_OUTER = 200


def _row_means_from(rotated, w, init, cfg):
    """ps_frechet_fixed, with the rows that init beats solved again from init.

    The returned loss never exceeds the loss at init. Returns (mean, loss).
    """
    mean, _ = ps_frechet_fixed(rotated, w, cfg)
    clouds = np.stack(rotated, axis=1)
    model, _ = _row_mean_model(clouds, w)
    loss = model(mean)[0]
    th = _row_angles(clouds, init[:, None, :])[1]
    redo = np.flatnonzero((th * th) @ w < loss)
    if redo.size:
        model, retract = _row_mean_model(clouds[redo], w)
        mean[redo], loss[redo] = _trust_region(model, retract, init[redo], cfg)[:2]
    return mean, float(loss.sum())


def frechet_mean_per_pair(reps, weights, cfg=DEFAULT_CONFIG):
    """The alternating Frechet mean with every rotation search solved alone.

    The initializer searches each unordered pair in a stack of its own, and
    each outer iteration runs the pair search of every sample and the
    current mean (quotient_space._align_pairs, orbit_dist's search),
    warm-started from the sample's rotation, in a stack of its own, then
    the rotations-fixed row means warm-started from the current mean.
    Returns (mean, loss_history, outer_iterations, converged, per-sample
    alignments of the last outer iteration).
    """
    n = len(reps)
    w = np.asarray(weights, dtype=float)
    rot = np.tile(np.eye(reps[0].shape[1]), (n, n, 1, 1))
    losses = np.zeros((n, n))
    for i, j in zip(*np.triu_indices(n, 1)):
        (r,) = _align_pairs([reps[i]], [reps[j]], cfg)
        rot[i, j], rot[j, i] = r.rotation, r.rotation.T
        losses[i, j] = losses[j, i] = r.loss
    variances = w @ losses
    best_j = int(np.argmin(variances))
    mean = reps[best_j]
    rotations = list(rot[:, best_j])
    loss_history = [float(variances[best_j])]
    converged = False
    results = []
    outer = 0
    for outer in range(1, MAX_OUTER + 1):
        results = [next(_align_pairs([reps[i]], [mean], cfg, [[rotations[i]]])) for i in range(n)]
        rotations = [r.rotation for r in results]
        rotated = [reps[i] @ rotations[i] for i in range(n)]
        mean, loss = _row_means_from(rotated, w, mean, cfg)
        prev = loss_history[-1]
        loss_history.append(loss)
        if abs(prev - loss) <= MEAN_TOL * max(1.0, abs(prev)):
            converged = True
            break
    return mean, loss_history, outer, converged, results


# trust-region work --------------------------------------------------------------


@dataclass
class SolverWork:
    """Work of the trust-region solves run inside one solver_work block.

    iterations sums each solve's lockstep iterations (the most any of its
    members ran), calls counts the stacked Hessian-vector product calls (one
    per lockstep CG iteration) and products the member products in them.
    """

    iterations: int = 0
    calls: int = 0
    products: int = 0


@contextmanager
def solver_work():
    """Count the package's trust-region work inside the block; yields a SolverWork.

    Wraps _trust_region where the package calls it (product_sphere,
    quotient_space and frechet) and _HessianOp.__matmul__, and restores
    both on exit. Blocks nest: an inner block's work counts in the outer.
    """
    work = SolverWork()
    solve, matmul = product_sphere._trust_region, _HessianOp.__matmul__
    callers = (product_sphere, quotient_space, frechet)

    def counted_solve(*args, **kwargs):
        out = solve(*args, **kwargs)
        work.iterations += int(out[3].max(initial=0))
        return out

    def counted_matmul(self, d):
        work.calls += 1
        work.products += len(d) if d.ndim > 1 else 1
        return matmul(self, d)

    for module in callers:
        module._trust_region = counted_solve
    _HessianOp.__matmul__ = counted_matmul
    try:
        yield work
    finally:
        for module in callers:
            module._trust_region = solve
        _HessianOp.__matmul__ = matmul
