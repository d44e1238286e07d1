"""Weighted Frechet means on the quotient space.

Alternates two descent phases: re-aligning every sample to the current
mean by the rotation search, then re-solving the product-sphere mean with
rotations held fixed. Both phases are warm-started from the previous
iterate, so the weighted loss never increases along the outer iterations.
"""

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG, SolverConfig, SolverReport
from .errors import InvalidInput
from .product_sphere import ps_frechet_fixed
from .quotient_space import OrbitPoint, _align_pair, align, as_orbit, orbit_dist


@dataclass(frozen=True)
class WeightedSampleSet:
    """Orbit samples with positive weights, normalized to sum to one."""

    points: tuple
    weights: np.ndarray

    def __post_init__(self):
        pts = tuple(as_orbit(P) for P in self.points)
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
    if isinstance(samples, WeightedSampleSet):
        return samples
    pts = list(samples)
    if weights is None:
        weights = np.full(len(pts), 1.0 / max(len(pts), 1))
    return WeightedSampleSet(points=tuple(pts), weights=weights)


@dataclass
class MeanReport:
    """Result of the alternating mean solver.

    loss_history[0] is the weighted variance of the best sample used as the
    initializer; each later entry is the loss after one outer iteration.
    The sequence is non-increasing up to floating-point noise.
    """

    mean: OrbitPoint
    loss_history: list
    outer_iterations: int
    converged: bool
    inner: SolverReport | None = None


def frechet_variance(
    samples, candidate, cfg: SolverConfig = DEFAULT_CONFIG, weights=None
) -> float:
    """Weighted sum of squared quotient distances to a candidate point."""
    ss = _as_sample_set(samples, weights)
    cand = as_orbit(candidate)
    return float(
        sum(
            w * orbit_dist(P, cand, cfg) ** 2
            for P, w in zip(ss.points, ss.weights)
        )
    )


def frechet_mean(
    samples, cfg: SolverConfig = DEFAULT_CONFIG, weights=None
) -> MeanReport:
    """Weighted Frechet mean of orbit samples.

    Initialized at the sample with the smallest weighted variance. Each
    outer iteration aligns every sample to the current mean (warm-started
    from its previous rotation) and then re-solves the rotations-fixed
    product-sphere mean (warm-started from the current mean). Stops when
    the relative loss change drops below cfg.mean_tol or after
    cfg.max_outer iterations.
    """
    ss = _as_sample_set(samples, weights)
    n = len(ss)
    reps = [P.rep for P in ss.points]
    w = ss.weights

    if n == 1:
        return MeanReport(
            mean=ss.points[0], loss_history=[0.0], outer_iterations=0, converged=True
        )

    # pick the sample with the smallest weighted variance as the initializer;
    # rot[i, j] carries sample i onto sample j, one search per unordered pair
    rot = np.tile(np.eye(reps[0].shape[1]), (n, n, 1, 1))
    losses = np.zeros((n, n))
    for i, j in zip(*np.triu_indices(n, 1)):
        r = _align_pair(reps[i], reps[j], cfg)
        rot[i, j], rot[j, i] = r.rotation, r.rotation.T
        losses[i, j] = losses[j, i] = r.loss
    variances = w @ losses
    best_j = int(np.argmin(variances))

    mean = reps[best_j]
    rotations = list(rot[:, best_j])
    loss_history = [float(variances[best_j])]
    converged = False
    inner = None
    outer = 0
    for outer in range(1, cfg.max_outer + 1):
        results = [
            align(reps[i], mean, cfg, extra_inits=[rotations[i]]) for i in range(n)
        ]
        rotations = [r.rotation for r in results]
        rotated = [reps[i] @ rotations[i] for i in range(n)]
        mean, inner = ps_frechet_fixed(rotated, w, cfg, init=mean)
        loss = inner.loss
        prev = loss_history[-1]
        loss_history.append(float(loss))
        if abs(prev - loss) <= cfg.mean_tol * max(1.0, abs(prev)):
            converged = True
            break

    return MeanReport(
        mean=OrbitPoint(mean),
        loss_history=loss_history,
        outer_iterations=outer,
        converged=converged,
        inner=inner,
    )
