"""Weighted Frechet means on the quotient space.

The mean minimizes sum_i w_i sum_rows theta(X_i O_i, M)^2 jointly over
the mean's representative M and one rotation O_i per sample; the joint
minimum is the Frechet mean. It is one trust-region Newton solve of the
package's solver (closed-form gradient and Hessian-vector products), with
the rotation of the initializer's sample held fixed to remove the
common-rotation gauge (M Q, O_i Q). It starts at the sample of smallest
weighted variance, from one stack of the pair searches that bounds on
their losses cannot rule out, takes one alternating step (row means, then
a stack of alignments) to pick each sample's basin, and ends with one
stack aligning every sample to the mean; frechet_variance's distances are
one stack as well. Every stack is the pair search of orbit_dist.
"""

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_CONFIG, RESULT, SolverConfig, SolverReport
from .errors import InvalidInput
from .kernels import cayley, skew_part
from .product_sphere import (
    _HessianOp,
    _angle_factors,
    _report_fields,
    _row_angles,
    _row_means,
    _tangent_part,
    _trust_region,
    unit_rows,
)
from .quotient_space import OrbitPoint, _align_pairs, _dist, as_orbit

# relative loss drop of the final alignment stack below the joint solve's
# loss beyond which a sample changed basin and the joint solve runs again
BASIN_TOL = 1e-12


@dataclass(frozen=True)
class WeightedSampleSet:
    """Orbit samples with positive weights, normalized to sum to one."""

    points: tuple
    weights: np.ndarray

    def __post_init__(self):
        pts = tuple(as_orbit(P, f"points[{i}]") for i, P in enumerate(self.points))
        if not pts:
            raise InvalidInput("need at least one sample")
        shape = pts[0].rep.shape
        for i, P in enumerate(pts):
            if P.rep.shape != shape:
                raise InvalidInput(
                    f"sample {i} has shape {P.rep.shape}, expected {shape}"
                )
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (len(pts),):
            raise InvalidInput(
                f"weights shape {w.shape} does not match {len(pts)} samples"
            )
        if np.any(w <= 0.0) or not np.all(np.isfinite(w)):
            raise InvalidInput("weights must be positive and finite")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w / w.sum())

    def __len__(self) -> int:
        return len(self.points)


def _as_sample_set(samples, weights=None) -> WeightedSampleSet:
    """samples as a WeightedSampleSet (equal weights unless given); a set
    carries its own weights, so weights beside one raise InvalidInput."""
    if isinstance(samples, WeightedSampleSet):
        if weights is not None:
            raise InvalidInput("a WeightedSampleSet holds its own weights; pass no weights")
        return samples
    pts = list(samples)
    if weights is None:
        weights = np.full(len(pts), 1.0 / max(len(pts), 1))
    return WeightedSampleSet(points=tuple(pts), weights=weights)


@dataclass(frozen=True, kw_only=True)
class MeanReport(SolverReport):
    """Result of the joint mean solve, and its record.

    The SolverReport fields are the last joint solve's (converged: gradient
    norm at most cfg.grad_tol). loss_history[0] is the weighted variance of
    the best sample used as the initializer; each later entry is the loss
    after one joint solve (a second one only when the final alignments
    found a lower basin), so the sequence is non-increasing up to
    floating-point noise. outer_iterations counts the trust-region
    iterations of the joint solves. alignments holds every sample's
    AlignmentResult to the mean from the final alignment stack (empty for a
    single sample, which is its own mean).
    """

    mean: OrbitPoint = field(metadata=RESULT)
    loss_history: list
    outer_iterations: int
    alignments: tuple = field(default=(), metadata=RESULT)


def frechet_variance(
    samples, candidate, cfg: SolverConfig = DEFAULT_CONFIG, weights=None
) -> float:
    """Weighted sum of squared quotient distances to a candidate point.

    The n distances are one stack of pair searches, each equal to its
    orbit_dist.
    """
    ss = _as_sample_set(samples, weights)
    cand = as_orbit(candidate, "candidate").rep
    shape = ss.points[0].rep.shape
    if cand.shape != shape:
        raise InvalidInput(f"shape mismatch {shape} vs {cand.shape}")
    results = _align_pairs([P.rep for P in ss.points], [cand] * len(ss), cfg)
    return float(sum(w * _dist(r) ** 2 for r, w in zip(results, ss.weights)))


def _initializer_candidates(reps, w):
    """The samples that can have the smallest weighted variance of the pair searches.

    Brackets every pair's search loss without searching: below by the
    chordal bound 2 m - 2 |X_i^T X_j|_* (theta^2 >= 2 - 2 cos theta, and
    the trace is at most the nuclear norm), above by the loss at the
    Procrustes rotation, one of the search's starts, from one batched SVD.
    A sample whose weighted lower bound exceeds the least weighted upper
    bound cannot be the initializer; the slack of 1e-9 relative covers the
    loss the search may gain on its rounding-floor steps and the SVD's
    rounding. Returns a boolean mask over the samples.
    """
    n, m, _ = reps.shape
    iu, ju = np.triu_indices(n, 1)
    U, sig, Vt = np.linalg.svd(np.swapaxes(reps[iu], -1, -2) @ reps[ju])
    _, th = _row_angles(reps[iu] @ (U @ Vt), reps[ju])
    lower, upper = np.zeros((n, n)), np.zeros((n, n))
    lower[iu, ju] = lower[ju, iu] = 2.0 * m - 2.0 * sig.sum(axis=-1)
    upper[iu, ju] = upper[ju, iu] = np.einsum("pr,pr->p", th, th)
    best = (w @ upper).min()
    return w @ lower <= best + 1e-9 * max(1.0, best)


def _joint_model(reps, w, pin):
    """Closed-form trust-region model of the Frechet loss over (M, O_1...O_n).

    reps holds the n samples (n, m, k), w their weights. A point is one
    (m + n k) x k matrix, the rows of M above the n rotations, in a stack of
    one member; the rotation of sample pin is held fixed. A tangent vector
    has the same layout, flattened: a row a_r orthogonal to M_r per row of
    the mean (as the row means), then a k x k skew W_i per rotation (as the
    rotation search), with W_pin = 0; the space has m (k-1) + (n-1) K
    dimensions. Steps retract rows by normalize(M_r + a_r) and rotations by
    O_i cay(W_i) (kernels.cayley).

    With U_i = X_i O_i, u_ir its rows, phi(c) = arccos(c)^2 and v_ir = u_ir
    - c_ir M_r the tangent part of u_ir at M_r, a direction (a, W) moves
    c_ir = u_ir . M_r at first order by t_ir = v_ir . a_r + (U_i W_i)_r .
    M_r. With e_r = sum_i w_i phi' u_ir, the gradient is e_r - (M_r . e_r)
    M_r on row r and skew(G_i), G_i = w_i U_i^T diag(phi') M, on O_i, and
    H (a, W) is
      row r:  proj_r(sum_i w_i (phi'' t_ir v_ir + phi' (U_i W_i)_r)) - (M_r . e_r) a_r,
      O_i:    skew(w_i U_i^T diag(phi'' t_i) M + w_i U_i^T diag(phi') a - W_i S_i),
    with proj_r the projection orthogonal to M_r and S_i = sym(G_i): the
    row-mean and alignment Hessians plus their cross terms, O(n m k^2) per
    product from O(n m k + n k^2) floats. A row of the mean counts as
    clamped when any sample's gradient factor is clamped on it.
    """
    n, m, k = reps.shape
    size, dim = (m + n * k) * k, m * (k - 1) + (n - 1) * (k * (k - 1) // 2)
    free = np.flatnonzero(np.arange(n) != pin)

    def unpack(x):
        return x[:m], x[m:].reshape(n, k, k)

    def project(U, M, V, wcoef, wU, wcurv, xeg, wS, d):
        # the stack's one member, its axis dropped and restored as in product
        a, W = unpack(d.reshape(-1, k))
        W = skew_part(W)
        W[pin] = 0.0
        return np.concatenate([_tangent_part(M[0], a).ravel(), W.ravel()])[None]

    def product(U, M, V, wcoef, wU, wcurv, xeg, wS, d):
        # one member: drop the stack axis (d may come without it), restore it
        U, M, V, wcoef, wU, wcurv, xeg, wS = (
            v[0] for v in (U, M, V, wcoef, wU, wcurv, xeg, wS)
        )
        a, W = unpack(d.reshape(-1, k))
        UW = U @ W
        ct = wcurv * (np.einsum("irk,rk->ir", V, a) + np.einsum("irk,rk->ir", UW, M))
        hM = np.einsum("ir,irk->rk", ct, V) + np.einsum("ir,irk->rk", wcoef, UW)
        hM = _tangent_part(M, hM) - xeg[:, None] * a
        G = np.swapaxes(U * ct[..., None], -1, -2) @ M
        G += np.swapaxes(wU, -1, -2) @ a
        hO = skew_part(G - W @ wS)
        hO[pin] = 0.0
        return np.concatenate([hM.ravel(), hO.ravel()])[None]

    def model(x, members):  # members: the stack's one member
        M, O = unpack(x[0])
        U = reps @ O
        c, th = _row_angles(U, M)
        coef, curv, clamped = _angle_factors(c, th)
        wcoef = w[:, None] * coef
        wU = U * wcoef[..., None]
        e = wU.sum(axis=0)
        xeg = np.einsum("rk,rk->r", e, M)
        G = np.swapaxes(wU, -1, -2) @ M
        wS = 0.5 * (G + np.swapaxes(G, -1, -2))
        gO = skew_part(G)
        gO[pin] = 0.0
        # the samples' tangent parts V and weighted rows wU, formed once per evaluation
        V = U - c[..., None] * M
        state = (v[None] for v in (U, M, V, wcoef, wU, w[:, None] * curv, xeg, wS))
        H = _HessianOp(product, project, size, dim, *state)
        g = np.concatenate([_tangent_part(M, e).ravel(), gO.ravel()])
        loss = w @ np.einsum("ir,ir->i", th, th)
        return np.array([loss]), g[None], H, clamped.any(axis=0)[None]

    def retract(x, s):
        M, O = unpack(x[0])
        a, W = unpack(s[0].reshape(-1, k))
        O = O.copy()
        O[free] = O[free] @ cayley(W[free])
        return np.concatenate([unit_rows(M + a), O.reshape(n * k, k)])[None]

    return model, retract


def _joint_solve(reps, w, pin, mean, rotations, cfg):
    """One trust-region solve of the joint model from (mean, rotations).

    Returns the mean, the rotations and the solve's SolverReport.
    """
    n, m, k = reps.shape
    model, retract = _joint_model(reps, w, pin)
    x0 = np.concatenate([mean, rotations.reshape(n * k, k)])[None]
    solve = _trust_region(model, retract, x0, cfg)
    report = SolverReport(**_report_fields(solve, 0, solve.clamped[0]))
    return solve.x[0, :m], solve.x[0, m:].reshape(n, k, k), report


def frechet_mean(
    samples, cfg: SolverConfig = DEFAULT_CONFIG, weights=None
) -> MeanReport:
    """Weighted Frechet mean of orbit samples.

    Initialized at the sample with the smallest weighted variance, from one
    stack of pair searches, with each sample's rotation onto it; only the
    pairs that touch a sample _initializer_candidates cannot rule out are
    searched (n - 1 of the n(n-1)/2 on tight sets).
    One alternating step follows, kept when it lowers the loss: the
    rotations-fixed row means, then one stack aligning every sample to them
    from its Procrustes start and its current rotation. Without it the
    joint solve lands in a worse local minimum than the alternating loop on
    about 1 in 70 widely spread sets. One joint trust-region solve over the
    mean and the rotations (_joint_model) follows, with the initializer
    sample's rotation held fixed; it stops at product_sphere.MAX_ITERS
    iterations, and converged means its gradient norm is at most
    cfg.grad_tol. Then every sample is aligned to the mean by one stack of
    orbit_dist's pair searches, each warm-started from its joint rotation,
    so alignments[i] is align(sample_i, mean, extra_inits=[O_i]). When a
    converged solve's alignments lower the loss by more than BASIN_TOL
    relative (a sample changed basin), the joint solve runs again from
    them, so each repeat strictly lowers the loss.
    """
    ss = _as_sample_set(samples, weights)
    n = len(ss)
    reps = np.stack([P.rep for P in ss.points])
    w = ss.weights

    if n == 1:
        # its own mean: converged, 0 iterations, gradient norm 0 and loss 0
        return MeanReport(
            True, 0, 0.0, 0.0, mean=ss.points[0], loss_history=[0.0], outer_iterations=0
        )

    # pick the sample with the smallest weighted variance as the initializer;
    # rot[i, j] carries sample i onto sample j, one search per unordered pair
    # that touches a candidate
    cand = _initializer_candidates(reps, w)
    rot = np.tile(np.eye(reps.shape[2]), (n, n, 1, 1))
    losses = np.zeros((n, n))
    iu, ju = np.triu_indices(n, 1)
    touch = cand[iu] | cand[ju]
    iu, ju = iu[touch], ju[touch]
    for i, j, r in zip(iu, ju, _align_pairs(reps[iu], reps[ju], cfg)):
        rot[i, j], rot[j, i] = r.rotation, r.rotation.T
        losses[i, j] = losses[j, i] = r.loss
    variances = np.where(cand, w @ losses, np.inf)
    best_j = int(np.argmin(variances))

    mean = reps[best_j]
    rotations = rot[:, best_j]
    loss_history = [float(variances[best_j])]
    # one alternating step picks each sample's basin: the row means of the
    # aligned samples, then every sample aligned to them from its Procrustes
    # and its current rotation; kept when it lowers the loss
    row_means, _ = _row_means(np.stack(reps @ rotations, axis=1), w, cfg)
    step = list(_align_pairs(reps, [row_means] * n, cfg.with_(restarts=1), rotations[:, None]))
    if w @ [r.loss for r in step] < loss_history[0]:
        mean, rotations = row_means, np.stack([r.rotation for r in step])
    iterations = 0
    while True:
        mean, rotations, inner = _joint_solve(reps, w, best_j, mean, rotations, cfg)
        iterations += inner.iterations
        loss_history.append(inner.loss)
        results = list(_align_pairs(reps, [mean] * n, cfg, rotations[:, None]))
        aligned = float(w @ [r.loss for r in results])
        if not inner.converged or aligned >= inner.loss - BASIN_TOL * max(1.0, inner.loss):
            break
        rotations = np.stack([r.rotation for r in results])

    return MeanReport(
        mean=OrbitPoint(mean.copy()),
        loss_history=loss_history,
        outer_iterations=iterations,
        alignments=tuple(results),
        **inner.summary(),
    )
