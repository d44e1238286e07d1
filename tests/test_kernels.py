import math

import numpy as np
import pytest
import scipy.linalg

from corrgeo import (
    InvalidInput,
    RetractionFailure,
    SingularSylvester,
    numerical_rank,
    procrustes,
    qf,
    random_orthogonal,
    skew_part,
    sym_eig,
    sylvester_spd,
)
from corrgeo.kernels import _THETA13, RANK_RELATIVE, expm

from conftest import counterexample_pair


# sym_eig ------------------------------------------------------------------


def test_sym_eig_identity():
    eig = sym_eig(np.eye(3))
    assert np.allclose(eig.values, [1.0, 1.0, 1.0])
    assert np.allclose(eig.vectors @ eig.vectors.T, np.eye(3), atol=1e-14)


def test_sym_eig_diagonal_ordering():
    eig = sym_eig(np.diag([3.0, 1.0]))
    assert np.allclose(eig.values, [3.0, 1.0])
    # axis-aligned eigenvectors; the sign convention (largest-magnitude
    # entry positive) pins them to the axes exactly
    assert np.allclose(eig.vectors, np.eye(2), atol=1e-14)
    # descending order holds regardless of the input order
    flipped = sym_eig(np.diag([1.0, 3.0]))
    assert np.allclose(flipped.values, [3.0, 1.0])
    assert np.allclose(np.abs(flipped.vectors), [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)


def test_sym_eig_reconstruction():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((5, 5))
    S = A + A.T
    eig = sym_eig(S)
    recon = eig.vectors @ np.diag(eig.values) @ eig.vectors.T
    assert np.linalg.norm(recon - S) < 1e-10


def test_sym_eig_deterministic_signs():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((4, 4))
    S = A + A.T
    V1 = sym_eig(S).vectors
    V2 = sym_eig(S.copy()).vectors
    assert np.array_equal(V1, V2)


def test_sym_eig_rejects_nonsquare():
    with pytest.raises(InvalidInput):
        sym_eig(np.ones((2, 3)))


# qf -----------------------------------------------------------------------


def test_qf_identity_fixed_point():
    assert np.allclose(qf(np.eye(3)), np.eye(3), atol=1e-14)


def test_qf_scaling_invariance():
    assert np.allclose(qf(2.0 * np.eye(3)), np.eye(3), atol=1e-14)


def test_qf_produces_orthogonal_factor():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((3, 3))
    Q = qf(A)
    assert np.linalg.norm(Q.T @ Q - np.eye(3)) < 1e-12
    R = Q.T @ A
    # R is upper triangular with positive diagonal
    assert np.allclose(np.tril(R, -1), 0.0, atol=1e-12)
    assert np.all(R.diagonal() > 0)
    assert np.linalg.norm(Q @ R - A) < 1e-12


def test_qf_idempotent_on_orthogonal():
    rng = np.random.default_rng(5)
    Q = random_orthogonal(4, rng)
    assert np.linalg.norm(qf(Q) - Q) < 1e-12


def test_qf_singular_input_raises():
    A = np.ones((3, 3))
    with pytest.raises(RetractionFailure):
        qf(A)


# procrustes ---------------------------------------------------------------


def test_procrustes_self_alignment():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((6, 3))
    O = procrustes(X, X)
    assert np.linalg.norm(X @ O - X) < 1e-12
    assert np.allclose(O, np.eye(3), atol=1e-12)


def test_procrustes_recovers_rotation():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((6, 3))
    R = random_orthogonal(3, rng)
    O = procrustes(X, X @ R)
    assert np.linalg.norm(O - R) < 1e-10


def test_procrustes_beats_random_rotations():
    rng = np.random.default_rng(13)
    X = rng.standard_normal((6, 3))
    Y = rng.standard_normal((6, 3))
    O = procrustes(X, Y)
    best = np.linalg.norm(X @ O - Y)
    for _ in range(1000):
        trial = np.linalg.norm(X @ random_orthogonal(3, rng) - Y)
        assert best <= trial + 1e-12


def test_procrustes_shape_mismatch():
    with pytest.raises(InvalidInput):
        procrustes(np.eye(3), np.eye(2))


# expm -----------------------------------------------------------------------


def _skew_stack(rng, n, k, scale):
    ia, ib = np.triu_indices(k, 1)
    W = np.zeros((n, k, k))
    W[:, ia, ib] = scale * rng.standard_normal((n, ia.size))
    return W - np.swapaxes(W, -1, -2)


@pytest.mark.parametrize("k", [2, 3, 5, 10, 40])
def test_expm_matches_scipy_on_skew_stacks(k):
    rng = np.random.default_rng(k)
    for scale in (0.0, 1e-8, 1e-3, 0.5, 2.0, 10.0):
        W = _skew_stack(rng, 12, k, scale)
        Q = expm(W)
        for Wi, Qi in zip(W, Q):
            assert np.abs(Qi - scipy.linalg.expm(Wi)).max() <= 1e-12
            assert np.abs(Qi.T @ Qi - np.eye(k)).max() <= 1e-13
            assert np.linalg.det(Qi) > 0.0
            # a stack member is bitwise the matrix exponentiated alone
            assert np.array_equal(Qi, expm(Wi))
    assert np.array_equal(expm(np.zeros((k, k))), np.eye(k))
    assert np.array_equal(expm(np.zeros((3, k, k))), np.broadcast_to(np.eye(k), (3, k, k)))


@pytest.mark.parametrize("k", [2, 3, 5, 10, 40])
def test_expm_squaring_matches_scipy_relative_to_the_norm(k):
    # at these scales the members are scaled down by 2^s and squared back
    # s times: the error and the loss of orthogonality grow with |W|_1
    rng = np.random.default_rng(100 + k)
    for scale in (50.0, 200.0):
        W = _skew_stack(rng, 6, k, scale)
        for Wi, Qi in zip(W, expm(W)):
            norm = max(1.0, np.abs(Wi).sum(axis=0).max())
            assert np.abs(Qi - scipy.linalg.expm(Wi)).max() <= 1e-12 * norm
            assert np.abs(Qi.T @ Qi - np.eye(k)).max() <= 1e-13 * norm


def test_expm_members_with_different_squarings_match_their_lone_exponentials():
    # members needing s = 0, 3 and 6 squarings share one stack; each is
    # squared only its own s times, so it is bitwise its lone exponential
    rng = np.random.default_rng(7)
    k = 6
    W = _skew_stack(rng, 3, k, 1.0)
    W /= np.abs(W).sum(axis=1).max(axis=1)[:, None, None]
    W *= np.array([0.5, 6.0, 50.0])[:, None, None] * _THETA13
    s = [max(0, math.ceil(math.log2(np.abs(Wi).sum(axis=0).max() / _THETA13))) for Wi in W]
    assert s == [0, 3, 6]
    Q = expm(W[[2, 0, 1]])[[1, 2, 0]]
    for Wi, Qi in zip(W, Q):
        assert np.array_equal(Qi, expm(Wi))
        assert np.abs(Qi - scipy.linalg.expm(Wi)).max() <= 1e-12 * np.abs(Wi).sum(axis=0).max()


# sylvester_spd --------------------------------------------------------------


def test_sylvester_identity_coefficient():
    rng = np.random.default_rng(4)
    W = rng.standard_normal((3, 3))
    A = sylvester_spd(np.eye(3), W)
    assert np.linalg.norm(A - W / 2.0) < 1e-12


def test_sylvester_zero_rhs():
    E = np.diag([1.0, 2.0, 5.0])
    assert np.allclose(sylvester_spd(E, np.zeros((3, 3))), 0.0)


def test_sylvester_known_solution():
    E = np.diag([1.0, 2.0])
    W = np.array([[0.0, 3.0], [-3.0, 0.0]])
    A = sylvester_spd(E, W)
    expect = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.linalg.norm(A - expect) < 1e-12


def test_sylvester_residual_and_skewness():
    rng = np.random.default_rng(21)
    B = rng.standard_normal((4, 4))
    E = B @ B.T + 4.0 * np.eye(4)
    W = skew_part(rng.standard_normal((4, 4))) * 2.0
    A = sylvester_spd(E, W)
    assert np.linalg.norm(E @ A + A @ E - W) < 1e-10
    assert np.linalg.norm(A + A.T) < 1e-12


def test_sylvester_singular_coefficient():
    E = np.diag([1.0, 0.0])
    with pytest.raises(SingularSylvester):
        sylvester_spd(E, np.eye(2))


# numerical_rank -------------------------------------------------------------


def test_rank_identity():
    assert numerical_rank(np.eye(4)) == 4


def test_rank_outer_product():
    u = np.array([1.0, 2.0, -1.0])
    v = np.array([0.5, 0.5, 1.0])
    assert numerical_rank(np.outer(u, v)) == 1


def test_rank_planar_configuration():
    X, _ = counterexample_pair()
    assert numerical_rank(X) == 2


def test_rank_tolerance_object():
    A = np.diag([1.0, 1e-5])
    assert numerical_rank(A) == 2
    assert numerical_rank(np.diag([1.0, 0.1 * RANK_RELATIVE])) == 1


# skew_part / random_orthogonal ----------------------------------------------


def test_skew_part_basics():
    rng = np.random.default_rng(1)
    M = rng.standard_normal((4, 4))
    S = skew_part(M)
    assert np.linalg.norm(S + S.T) < 1e-14
    assert np.allclose(skew_part(S), S)
    sym = M + M.T
    assert np.allclose(skew_part(sym), 0.0)


def test_random_orthogonal_properties():
    rng = np.random.default_rng(6)
    for k in (2, 3, 5):
        Q = random_orthogonal(k, rng)
        assert np.linalg.norm(Q.T @ Q - np.eye(k)) < 1e-12
        assert abs(abs(np.linalg.det(Q)) - 1.0) < 1e-10


def test_random_orthogonal_seeded_reproducibility():
    Q1 = random_orthogonal(3, np.random.default_rng(42))
    Q2 = random_orthogonal(3, np.random.default_rng(42))
    assert np.array_equal(Q1, Q2)
