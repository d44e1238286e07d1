"""Solver configuration and convergence reporting.

Every iterative routine in the package reads its tolerances, iteration caps,
restart counts, and seeds from a single :class:`SolverConfig` so that runs
are reproducible given the config alone.
"""

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the rotation search, row means, and outer mean loop.

    grad_tol / max_iters govern each trust-region Newton solve (rotation
    search and row means): it converges when the Riemannian gradient norm
    is at most grad_tol. Once the predicted decrease of a step is below the
    rounding level of the loss, steps are judged by the gradient norm
    instead, and the solve stops when that no longer falls or has fallen
    to grad_tol, so converged solves end with the gradient near rounding
    level.
    restarts counts total initializations of the rotation search
    (one Procrustes start plus restarts - 1 seeded random starts).
    mean_tol / max_outer stop the alternating Frechet-mean loop on the
    relative change of its loss.
    antipodal_guard is the cut-locus band within which logarithms refuse.
    horiz_tol certifies near-horizontality of emitted quotient tangents.
    equality_tol is the orbit-distance threshold for "same point".
    stagnation_tol separates harmless stops at the rounding floor from
    genuine failures: a stagnated solve with gradient norm above it is an
    error for consumers that need a converged alignment.
    """

    grad_tol: float = 1e-8
    max_iters: int = 500
    restarts: int = 5
    seed: int = 0
    symmetrize: bool = True
    mean_tol: float = 1e-10
    max_outer: int = 200
    antipodal_guard: float = 1e-6
    horiz_tol: float = 1e-8
    require_horizontal: bool = False
    equality_tol: float = 1e-8
    stagnation_tol: float = 1e-6

    def with_(self, **kwargs) -> "SolverConfig":
        """Copy with selected fields replaced."""
        return replace(self, **kwargs)


DEFAULT_CONFIG = SolverConfig()


@dataclass
class SolverReport:
    """Diagnostics of one iterative solve.

    iterations is the count actually used (max over rows for row-wise
    solvers), grad_norm the final Riemannian gradient norm (max over rows),
    loss the final objective value.  stagnated marks a collapsed trust
    region with the gradient still above tolerance.  clamped_rows lists rows where the
    near-antipodal gradient factor had to be clamped.
    """

    converged: bool
    iterations: int
    grad_norm: float
    loss: float
    stagnated: bool = False
    clamped_rows: tuple = ()
    restarts_used: int = 1
