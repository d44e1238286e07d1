"""Shared construction helpers for the test suite."""

import numpy as np

from corrgeo import corr, factorize, sym_eig


def unit_rows_of(A):
    A = np.asarray(A, dtype=float)
    return A / np.linalg.norm(A, axis=1)[:, None]


def random_point(rng, m, k):
    """Random matrix with unit rows (uniform on the product of spheres)."""
    return unit_rows_of(rng.standard_normal((m, k)))


def random_tangent(rng, X, scale=1.0):
    """Random rowwise-tangent matrix at X with the given Frobenius norm."""
    W = rng.standard_normal(X.shape)
    V = W - np.einsum("ij,ij->i", X, W)[:, None] * X
    n = np.linalg.norm(V)
    return V * (scale / n) if n > 0 else V


def random_rank_point(rng, m, k, r):
    """Unit-row m x k matrix of rank exactly r (rows in an r-dim subspace)."""
    B = np.linalg.qr(rng.standard_normal((k, r)))[0]  # k x r orthonormal
    coeff = rng.standard_normal((m, r))
    # resample until every row is comfortably nonzero and the rank is exact
    while True:
        X = coeff @ B.T
        norms = np.linalg.norm(X, axis=1)
        if norms.min() > 1e-3 and np.linalg.matrix_rank(X, tol=1e-10) == r:
            return X / norms[:, None]
        coeff = rng.standard_normal((m, r))


def random_correlation(rng, m, r):
    """Correlation matrix of rank exactly r as the Gram matrix of a factor."""
    X = random_rank_point(rng, m, max(r, 2), r)
    Z = X @ X.T
    Z = np.clip(0.5 * (Z + Z.T), -1.0, 1.0)
    np.fill_diagonal(Z, 1.0)
    return Z


def factor_cohort(rng, m, f, T, n, spread=0.0, noise=1.0):
    """Unit-row m x m factors (factorize) of n subjects' sample correlations.

    A seeded factor model of m regions: loadings L (m x f) shared by the
    cohort, and per subject T samples of F_i (L + spread N_i)^T + noise E_i,
    with F_i (T x f), N_i (m x f) and E_i (T x m) standard normal, drawn in
    that order (N_i only when spread, E_i only when noise is nonzero).
    """
    loadings = rng.standard_normal((m, f))
    factors = []
    for _ in range(n):
        F = rng.standard_normal((T, f))
        L = loadings + spread * rng.standard_normal((m, f)) if spread else loadings
        Z = F @ L.T
        if noise:
            Z = Z + noise * rng.standard_normal((T, m))
        factors.append(factorize(np.corrcoef(Z, rowvar=False), m))
    return factors


def count_decompositions(monkeypatch):
    """Record the shape of each matrix that corrgeo.corr decomposes; returns the record."""
    calls = []

    def counted(E):
        calls.append(np.shape(E))
        return sym_eig(E)

    monkeypatch.setattr(corr, "sym_eig", counted)
    return calls


def counterexample_pair():
    """The m=4, k=2 instance whose distance strictly exceeds pi/sqrt(2)."""
    X = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    Y = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    return X, Y
