"""Dense matrix kernels the geometry is built on.

Thin, deterministic wrappers around LAPACK via numpy: symmetric
eigendecomposition with a fixed ordering and sign convention, the
sign-corrected thin QR factor, the Procrustes rotation (the polar factor
of X^T Y, also taken for a whole stack of pairs at once), the exponential
of a stack of matrices (scaling and squaring with a Pade approximant, in
real arithmetic), a spectral solver for the symmetric Sylvester system
E A + A E = W, and tolerance-based numerical rank.
"""

import numpy as np

from .errors import InvalidInput, RetractionFailure, SingularSylvester
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
    if d.size == 0 or d.min() <= rank_threshold(d.max()):
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
    return _polar(M)


def _polar(M) -> np.ndarray:
    """Orthogonal polar factor U V^T of a matrix or a stack, from one batched SVD."""
    U, _, Vt = np.linalg.svd(M)
    return U @ Vt


# Pade [13/13] coefficients b_0..b_13 (Higham 2005), divided by b_0 so that
# expm(0) solves I X = I and returns the identity exactly
_PADE13 = np.array([
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
]) / 64764752532480000.0
# largest 1-norm at which the [13/13] approximant is accurate to unit roundoff
_THETA13 = 5.371920351148152


def expm(W) -> np.ndarray:
    """Matrix exponential of a matrix W, or of a stack (..., k, k) of them.

    Scaling and squaring with the [13/13] Pade approximant (Higham, SIAM J.
    Matrix Anal. Appl. 26, 2005): each member is scaled by its own 2^-s,
    s = max(0, ceil(log2(|W|_1 / theta_13))), the approximant is
    solve(V - U, V + U) from real matmuls and one batched solve, and then
    squared s times. Round j squares only the members with s > j, so a
    member of a stack is bitwise the matrix exponentiated alone.
    """
    W = np.asarray(W, dtype=float)
    k = W.shape[-1]
    A = W.reshape(-1, k, k)
    # ceil(log2(x)) is frexp's exponent e, less one when x is exactly 2^(e-1)
    frac, s = np.frexp(np.abs(A).sum(axis=1).max(axis=1) / _THETA13)
    s = np.maximum(0, s - (frac == 0.5))
    A = np.ldexp(A, -s[:, None, None])
    b = _PADE13
    eye = np.eye(k)
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    # the odd (U) and even (V) parts of the approximant's numerator
    U = A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
    U = A @ (U + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
    V = A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
    V = V + b[6] * A6 + b[4] * A4 + b[2] * A2 + eye
    E = np.linalg.solve(V - U, V + U)
    for j in range(s.max(initial=0)):
        sq = s > j
        E[sq] = E[sq] @ E[sq]
    return E.reshape(W.shape)


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
    """Skew-symmetric part (M - M^T)/2."""
    M = np.asarray(M, dtype=float)
    return 0.5 * (M - M.T)


def random_orthogonal(k: int, rng: np.random.Generator) -> np.ndarray:
    """Random orthogonal matrix: sign-corrected QR of a Gaussian draw."""
    return qf(rng.standard_normal((k, k)))
