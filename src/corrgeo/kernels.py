"""Dense matrix kernels the geometry is built on.

Thin, deterministic wrappers around LAPACK via numpy: symmetric
eigendecomposition with a fixed ordering and sign convention, the
orthogonal polar factor of a stack of matrices (the rotation search's
Procrustes starts, one batched SVD), the Cayley transform of a stack of
skew matrices (the rotation search's retraction, one batched solve), a
spectral solver for the symmetric Sylvester system E A + A E = W,
tolerance-based numerical rank and Haar-random orthogonal matrices.
"""

import numpy as np

from .errors import InvalidInput, SingularSylvester
from dataclasses import dataclass

RANK_RELATIVE = 1e-8
RANK_FLOOR = 1e-12


def rank_threshold(sigma_max):
    """max(RANK_FLOOR, RANK_RELATIVE * sigma_max): the cutoff of every rank decision."""
    return np.maximum(RANK_FLOOR, RANK_RELATIVE * sigma_max)


@dataclass(frozen=True)
class SymEig:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending."""

    values: np.ndarray
    vectors: np.ndarray


def _as_square(A, name="A"):
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0:
        raise InvalidInput(f"{name} must be a nonempty square matrix, got shape {A.shape}")
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


def _polar(M) -> np.ndarray:
    """Orthogonal polar factor U V^T of a matrix or a stack, from one batched SVD."""
    U, _, Vt = np.linalg.svd(M)
    return U @ Vt


def cayley(W) -> np.ndarray:
    """Cayley transform (I - W/2)^-1 (I + W/2) of a matrix W, or of a stack (..., k, k).

    For skew W it is a rotation, exactly I at W = 0, and it agrees with the
    exponential to second order (I + W + W^2/2 + W^3/4 + ...), which makes
    O cayley(W) a second-order retraction on O(k) at the cost of one
    batched solve. Each member is its own LAPACK solve, so a member of a
    stack is bitwise the matrix transformed alone.
    """
    W = np.asarray(W, dtype=float)
    eye = np.eye(W.shape[-1])
    half = 0.5 * W
    return np.linalg.solve(eye - half, eye + half)


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
    if lam[-1] <= rank_threshold(abs(lam[0])):
        raise SingularSylvester(
            f"coefficient matrix has eigenvalue {lam[-1]:.3e}; system is singular"
        )
    Q = eig.vectors
    Wp = Q.T @ W @ Q
    A = Q @ (Wp / np.add.outer(lam, lam)) @ Q.T
    return A


def numerical_rank(A):
    """Number of singular values above rank_threshold of the largest.

    A stack (..., m, k) of matrices gives an integer array of their ranks.
    """
    A = np.asarray(A, dtype=float)
    if not np.all(np.isfinite(A)):
        raise InvalidInput("rank of a non-finite matrix is undefined")
    if A.size == 0:
        return 0
    sigma = np.linalg.svd(A, compute_uv=False)
    ranks = np.count_nonzero(sigma > rank_threshold(sigma[..., :1]), axis=-1)
    return int(ranks) if A.ndim == 2 else ranks


def skew_part(M) -> np.ndarray:
    """Skew-symmetric part (M - M^T)/2 of a matrix or of a stack (..., k, k).

    Exactly skew: entry (b, a) is the negation of entry (a, b), and the
    diagonal is zero.
    """
    M = np.asarray(M, dtype=float)
    return 0.5 * (M - np.swapaxes(M, -1, -2))


def random_orthogonal(k: int, rng: np.random.Generator) -> np.ndarray:
    """Random orthogonal matrix: sign-corrected QR of a Gaussian draw.

    The Q factor with each column's sign flipped where R's diagonal is
    negative, so the draw is Haar distributed.
    """
    Q, R = np.linalg.qr(rng.standard_normal((k, k)))
    return Q * np.where(R.diagonal() < 0.0, -1.0, 1.0)
