"""Correlation matrices and their unit-row factorizations.

A correlation matrix of rank at most k is exactly a Gram matrix X X^T of a
unit-row m x k matrix, unique up to a common rotation of the rows. This
module validates candidate matrices, factorizes them deterministically, and
rebuilds them from representatives. A validated matrix carries its
spectrum: validate decomposes it once for the PSD check, and factorize and
detected_rank read that decomposition.
"""

from dataclasses import dataclass
from functools import cached_property
from numbers import Integral

import numpy as np

from .config import is_number
from .errors import InvalidCorrelation, InvalidInput, RankExceedsK
from .kernels import SymEig, rank_threshold, sym_eig
from .product_sphere import _rep


# acceptance bands for the correlation-matrix invariants
SYMMETRY_TOL = 1e-10
UNIT_DIAGONAL_TOL = 1e-10
ENTRY_RANGE_TOL = 1e-10
PSD_TOL = 1e-8  # smallest eigenvalue may dip this far below zero


@dataclass(frozen=True)
class Violation:
    """One failed invariant with the magnitude of the failure."""

    magnitude: float


class NonFiniteViolation(Violation):
    pass


class SymmetryViolation(Violation):
    pass


class UnitDiagonalViolation(Violation):
    pass


class EntryRangeViolation(Violation):
    pass


class PSDViolation(Violation):
    pass


@dataclass(frozen=True)
class CorrelationMatrix:
    """A validated correlation matrix."""

    entries: np.ndarray

    def __post_init__(self):
        Z = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", Z)

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def eig(self) -> SymEig:
        """sym_eig of the entries, computed on first read and kept."""
        return sym_eig(self.entries)

    def detected_rank(self) -> int:
        lam = self.eig.values
        return int(np.count_nonzero(lam > rank_threshold(abs(float(lam[0])))))


def validate(Z):
    """Check the correlation-matrix invariants.

    Returns a CorrelationMatrix when all hold, otherwise the list of
    violations (symmetry, unit diagonal, entry range, positive
    semidefiniteness, finiteness), each carrying its magnitude.
    """
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[0] != Z.shape[1] or Z.size == 0:
        raise InvalidInput(f"expected a nonempty square matrix, got shape {Z.shape}")
    violations = []
    if not np.all(np.isfinite(Z)):
        violations.append(NonFiniteViolation(float(np.count_nonzero(~np.isfinite(Z)))))
        return violations
    sym_defect = float(np.max(np.abs(Z - Z.T)))
    if sym_defect > SYMMETRY_TOL:
        violations.append(SymmetryViolation(sym_defect))
    diag_defect = float(np.max(np.abs(np.diag(Z) - 1.0)))
    if diag_defect > UNIT_DIAGONAL_TOL:
        violations.append(UnitDiagonalViolation(diag_defect))
    range_defect = float(np.max(np.abs(Z)) - 1.0)
    if range_defect > ENTRY_RANGE_TOL:
        violations.append(EntryRangeViolation(range_defect))
    C = CorrelationMatrix(entries=Z)
    lam_min = float(C.eig.values[-1])
    if lam_min < -PSD_TOL:
        violations.append(PSDViolation(-lam_min))
    return violations or C


def as_correlation(Z) -> CorrelationMatrix:
    """Validate and wrap, raising InvalidCorrelation naming the violations."""
    if isinstance(Z, CorrelationMatrix):
        return Z
    result = validate(Z)
    if isinstance(result, list):
        names = ", ".join(f"{type(v).__name__}({v.magnitude:.3e})" for v in result)
        raise InvalidCorrelation(f"invalid correlation matrix: {names}", result)
    return result


def factorize(Z, k: int) -> np.ndarray:
    """Unit-row factor X with X X^T = Z and at most k columns.

    Takes the detected_rank eigenpairs of the matrix's own decomposition,
    scales eigenvectors by square-root eigenvalues, zero-pads to k columns,
    and renormalizes each row. The eigendecomposition's deterministic
    ordering and sign convention make the output reproducible. Raises
    InvalidCorrelation when Z fails validation, InvalidInput unless k is an
    integer >= 2 or when a row of the factor is zero, and RankExceedsK when
    the detected rank is above k.
    """
    C = as_correlation(Z)
    if not is_number(k, 2, Integral):
        raise InvalidInput(f"need k >= 2, got {k!r}")
    r = C.detected_rank()
    if r > k:
        raise RankExceedsK(f"detected rank {r} exceeds requested width {k}")
    X = C.eig.vectors[:, :r] * np.sqrt(C.eig.values[:r])
    X = np.hstack([X, np.zeros((C.m, k - r))])
    norms = np.linalg.norm(X, axis=1)
    if np.any(norms < 1e-8):
        raise InvalidInput("a row of the factor collapsed to zero norm")
    return X / norms[:, None]


def _finish(Z) -> CorrelationMatrix:
    """Validated correlation of a computed product: symmetrized, clipped, unit diagonal.

    Z is clipped to [-1, 1] and its diagonal set to exactly 1 before
    as_correlation checks it.
    """
    Z = np.clip(0.5 * (Z + Z.T), -1.0, 1.0)
    np.fill_diagonal(Z, 1.0)
    return as_correlation(Z)


def gram(X) -> CorrelationMatrix:
    """Correlation matrix X X^T of a unit-row representative, finished by _finish."""
    X = _rep(X)
    return _finish(X @ X.T)
