"""Dense matrix kernels the geometry is built on.

Thin, deterministic wrappers around LAPACK via numpy: symmetric
eigendecomposition with a fixed ordering and sign convention, the
sign-corrected thin QR factor, the Procrustes rotation, a spectral solver
for the symmetric Sylvester system E A + A E = W, and tolerance-based
numerical rank.
"""

import numpy as np

from .errors import InvalidInput, RetractionFailure, SingularSylvester
from dataclasses import dataclass


@dataclass(frozen=True)
class RankTolerance:
    """Relative singular-value cutoff with an absolute floor.

    A singular value counts toward the rank when it exceeds
    max(absolute_floor, relative * sigma_max), elementwise over an array of
    largest singular values.
    """

    relative: float = 1e-8
    absolute_floor: float = 1e-12

    def threshold(self, sigma_max):
        return np.maximum(self.absolute_floor, self.relative * sigma_max)


DEFAULT_RANK_TOL = RankTolerance()


@dataclass(frozen=True)
class SymEig:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending."""

    values: np.ndarray
    vectors: np.ndarray


def _as_square(A, name="A"):
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidInput(f"{name} must be square, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise InvalidInput(f"{name} has non-finite entries")
    return A


def sym_eig(E) -> SymEig:
    """Eigendecomposition of a (nearly) symmetric matrix.

    The input is symmetrized before factorization, eigenvalues are returned
    in descending order, and each eigenvector's largest-magnitude entry is
    made positive so the output is deterministic.
    """
    E = _as_square(E, "E")
    E = 0.5 * (E + E.T)
    w, V = np.linalg.eigh(E)
    order = np.argsort(w)[::-1]
    w = w[order]
    V = V[:, order]
    # fix signs: largest-|entry| of each eigenvector positive
    idx = np.argmax(np.abs(V), axis=0)
    signs = np.sign(V[idx, np.arange(V.shape[1])])
    signs[signs == 0] = 1.0
    V = V * signs
    return SymEig(values=w, vectors=V)


def qf(A) -> np.ndarray:
    """Q factor of the QR decomposition with positive diagonal of R.

    The sign correction makes the factor unique, so qf is idempotent on
    orthogonal inputs. Raises RetractionFailure when A is numerically
    singular (a diagonal entry of R below the rank threshold).
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise InvalidInput(f"qf expects a matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise InvalidInput("qf input has non-finite entries")
    Q, R = np.linalg.qr(A)
    diag = R.diagonal()
    d = np.abs(diag)
    if d.size == 0 or d.min() <= DEFAULT_RANK_TOL.threshold(d.max()):
        raise RetractionFailure("qf target is numerically singular")
    s = np.where(diag < 0.0, -1.0, 1.0)
    return Q * s


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


def sylvester_spd(E, W) -> np.ndarray:
    """Solve E A + A E = W for A, with E symmetric positive definite.

    Solved in the eigenbasis of E, where the system is the entrywise
    division A'_ij = W'_ij / (lambda_i + lambda_j). Skew-symmetric right
    hand sides give skew-symmetric solutions. Raises SingularSylvester
    when E is not definite enough (smallest eigenvalue at or below the
    rank threshold).
    """
    W = _as_square(W, "W")
    eig = sym_eig(E)
    lam = eig.values
    if lam[-1] <= DEFAULT_RANK_TOL.threshold(abs(lam[0])):
        raise SingularSylvester(
            f"coefficient matrix has eigenvalue {lam[-1]:.3e}; system is singular"
        )
    Q = eig.vectors
    Wp = Q.T @ W @ Q
    A = Q @ (Wp / np.add.outer(lam, lam)) @ Q.T
    return A


def numerical_rank(A, tol: RankTolerance = DEFAULT_RANK_TOL):
    """Number of singular values above the effective threshold.

    A stack (..., m, k) of matrices gives an integer array of their ranks.
    """
    A = np.asarray(A, dtype=float)
    if not np.all(np.isfinite(A)):
        raise InvalidInput("rank of a non-finite matrix is undefined")
    if A.size == 0:
        return 0
    sigma = np.linalg.svd(A, compute_uv=False)
    ranks = np.count_nonzero(sigma > tol.threshold(sigma[..., :1]), axis=-1)
    return int(ranks) if A.ndim == 2 else ranks


def skew_part(M) -> np.ndarray:
    """Skew-symmetric part (M - M^T)/2."""
    M = np.asarray(M, dtype=float)
    return 0.5 * (M - M.T)


def random_orthogonal(k: int, rng: np.random.Generator) -> np.ndarray:
    """Random orthogonal matrix: sign-corrected QR of a Gaussian draw."""
    return qf(rng.standard_normal((k, k)))
