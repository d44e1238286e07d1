"""Weighted Frechet means on the quotient space.

Alternates two descent phases: re-aligning every sample to the current
mean by the rotation search, then re-solving the product-sphere mean with
rotations held fixed. Both phases are warm-started from the previous
iterate, so the weighted loss never increases along the outer iterations.
Each phase is one lockstep trust-region stack: all starts of all samples'
alignments, then all rows of the mean; the initializer's pair searches and
frechet_variance's distances are one stack each as well.
"""

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG, SolverConfig, SolverReport
from .errors import InvalidInput
from .product_sphere import ps_frechet_fixed
from .quotient_space import (
    OrbitPoint,
    _align_batch,
    _align_pairs,
    _dist,
    as_orbit,
)

# the outer loop stops once the loss changes by at most MEAN_TOL relative to
# max(1, loss), or after MAX_OUTER iterations
MEAN_TOL = 1e-10
MAX_OUTER = 200


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
    The sequence is non-increasing up to floating-point noise. alignments
    holds the final outer iteration's AlignmentResult of every sample
    (empty for a single sample, which is its own mean).
    """

    mean: OrbitPoint
    loss_history: list
    outer_iterations: int
    converged: bool
    inner: SolverReport | None = None
    alignments: tuple = ()


def frechet_variance(
    samples, candidate, cfg: SolverConfig = DEFAULT_CONFIG, weights=None
) -> float:
    """Weighted sum of squared quotient distances to a candidate point.

    The n distances are one stack of pair searches, each equal to its
    orbit_dist.
    """
    ss = _as_sample_set(samples, weights)
    cand = as_orbit(candidate, "candidate").rep
    results = _align_pairs([P.rep for P in ss.points], [cand] * len(ss), cfg)
    return float(sum(w * _dist(r) ** 2 for r, w in zip(results, ss.weights)))


def frechet_mean(
    samples, cfg: SolverConfig = DEFAULT_CONFIG, weights=None
) -> MeanReport:
    """Weighted Frechet mean of orbit samples.

    Initialized at the sample with the smallest weighted variance, from one
    stack of n(n-1)/2 pair searches. Each outer iteration aligns every
    sample to the current mean as one stack of ordered searches (the
    Procrustes and seeded random starts), each warm-started from the
    sample's previous rotation, and then re-solves the
    rotations-fixed product-sphere mean (warm-started from the current
    mean). Stops when the relative loss change drops below MEAN_TOL
    (converged) or after MAX_OUTER iterations (not converged).
    """
    ss = _as_sample_set(samples, weights)
    n = len(ss)
    reps = np.stack([P.rep for P in ss.points])
    w = ss.weights

    if n == 1:
        return MeanReport(
            mean=ss.points[0], loss_history=[0.0], outer_iterations=0, converged=True
        )

    # pick the sample with the smallest weighted variance as the initializer;
    # rot[i, j] carries sample i onto sample j, one search per unordered pair
    rot = np.tile(np.eye(reps.shape[2]), (n, n, 1, 1))
    losses = np.zeros((n, n))
    iu, ju = np.triu_indices(n, 1)
    for i, j, r in zip(iu, ju, _align_pairs(reps[iu], reps[ju], cfg)):
        rot[i, j], rot[j, i] = r.rotation, r.rotation.T
        losses[i, j] = losses[j, i] = r.loss
    variances = w @ losses
    best_j = int(np.argmin(variances))

    mean = reps[best_j]
    rotations = rot[:, best_j]
    loss_history = [float(variances[best_j])]
    converged = False
    inner = None
    results = []
    outer = 0
    for outer in range(1, MAX_OUTER + 1):
        means = np.broadcast_to(mean, reps.shape)
        results = _align_batch(reps, means, cfg, rotations[:, None])
        rotations = np.stack([r.rotation for r in results])
        mean, inner = ps_frechet_fixed(reps @ rotations, w, cfg, init=mean)
        loss = inner.loss
        prev = loss_history[-1]
        loss_history.append(float(loss))
        if abs(prev - loss) <= MEAN_TOL * max(1.0, abs(prev)):
            converged = True
            break

    return MeanReport(
        mean=OrbitPoint(mean),
        loss_history=loss_history,
        outer_iterations=outer,
        converged=converged,
        inner=inner,
        alignments=tuple(results),
    )
