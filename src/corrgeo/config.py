"""Solver configuration and convergence reporting.

A SolverConfig holds the settings callers set; iteration caps and other
tolerances are constants next to the code that reads them. Runs are
reproducible given the config alone.
"""

import math
from dataclasses import dataclass, fields, replace
from numbers import Integral, Real

from .errors import InvalidInput


def is_number(v, low, kind=Real) -> bool:
    """Whether v is a finite number of type kind and at least low; bools excluded."""
    return isinstance(v, kind) and not isinstance(v, bool) and low <= v < math.inf


@dataclass(frozen=True)
class SolverConfig:
    """Settings of the rotation search, row means and Frechet means.

    grad_tol governs each trust-region Newton solve (rotation search, row
    means and the joint Frechet mean): it converges when the Riemannian
    gradient norm is at most grad_tol. Once the predicted decrease of a step is below the rounding
    level of the loss, steps are judged by the gradient norm instead, and
    the solve stops when that no longer falls or has fallen to grad_tol.
    It also stops once the gradient is at most CG_FLOOR * grad_tol
    (product_sphere's inexact-Newton floor, 1e-2 * grad_tol, to which its
    Newton steps are solved), so a converged solve ends with the gradient
    at most grad_tol, and at most CG_FLOOR * grad_tol once the floor stops it.
    restarts / seed: a pair search (align, orbit_dist, orbit_log, the
    cohort distances and a Frechet mean's alignments alike) starts from
    Procrustes, restarts - 1 random rotations drawn from seed and their
    transposes, all solved as one stack under quotient_space's start
    policy; restarts_used is the number of starts, 2 * restarts - 1 (9 at
    the default) plus any extra starts (align's extra_inits, a mean
    sample's joint rotation), and retired the number of them the search
    dropped early or never ran as redundant.
    Horizontality is no setting: orbit_exp always checks it, against the
    defect a tangent records (orbit_log's is its search's grad_norm).
    stagnation_tol separates harmless stops at the rounding floor from
    failures: SolverReport.failed(stagnation_tol) is the verdict orbit_log
    raises on and the CLI's exit code 3 reads.
    Construction raises InvalidInput unless grad_tol is finite and > 0,
    restarts an integer >= 1, seed an integer >= 0 and stagnation_tol
    finite and >= 0.
    """

    grad_tol: float = 1e-8
    restarts: int = 5
    seed: int = 0
    stagnation_tol: float = 1e-6

    def __post_init__(self):
        for name, ok, wants in (
            ("grad_tol", is_number(self.grad_tol, 0) and self.grad_tol > 0, "a finite number > 0"),
            ("restarts", is_number(self.restarts, 1, Integral), "an integer >= 1"),
            ("seed", is_number(self.seed, 0, Integral), "an integer >= 0"),
            ("stagnation_tol", is_number(self.stagnation_tol, 0), "a finite number >= 0"),
        ):
            if not ok:
                raise InvalidInput(f"{name} must be {wants}, got {getattr(self, name)!r}")

    def with_(self, **kwargs) -> "SolverConfig":
        """Copy with selected fields replaced."""
        return replace(self, **kwargs)


DEFAULT_CONFIG = SolverConfig()


# metadata of the results and labels a report adds beside its solve record
RESULT = {"result": True}


@dataclass(frozen=True)
class SolverReport:
    """Diagnostics of one iterative solve.

    iterations is the count actually used (max over rows for row-wise
    solvers), grad_norm the final Riemannian gradient norm (max over rows),
    loss the final objective value.  stagnated marks a collapsed trust
    region with the gradient still above tolerance.  clamped_rows lists, as
    ints, the rows whose near-antipodal gradient factor is clamped at the
    returned point (rows of the mean, for the row means and the joint
    Frechet mean alike).
    """

    converged: bool
    iterations: int
    grad_norm: float
    loss: float
    stagnated: bool = False
    clamped_rows: tuple = ()

    def failed(self, tol) -> bool:
        """Failed unless converged, or stagnated at grad_norm <= tol with no row clamped."""
        floor = self.stagnated and self.grad_norm <= tol and not self.clamped_rows
        return not (self.converged or floor)

    def summary(self) -> dict:
        """The record as keywords, without the fields declared with metadata RESULT."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.metadata != RESULT}
