import math

import numpy as np
import pytest
import scipy.linalg

from corrgeo import (
    InvalidInput,
    SingularSylvester,
    numerical_rank,
    random_orthogonal,
    skew_part,
    sym_eig,
    sylvester_spd,
)
from corrgeo.kernels import RANK_RELATIVE, cayley

from conftest import counterexample_pair
from reference import procrustes, qf


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
    with pytest.raises(InvalidInput):
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


# cayley ---------------------------------------------------------------------


def _skew_stack(rng, n, k, scale):
    ia, ib = np.triu_indices(k, 1)
    W = np.zeros((n, k, k))
    W[:, ia, ib] = scale * rng.standard_normal((n, ia.size))
    return W - np.swapaxes(W, -1, -2)


@pytest.mark.parametrize("k", [2, 3, 4, 10, 40])
def test_cayley_of_zero_is_exactly_the_identity(k):
    assert np.array_equal(cayley(np.zeros((k, k))), np.eye(k))
    assert np.array_equal(cayley(np.zeros((3, k, k))), np.broadcast_to(np.eye(k), (3, k, k)))


@pytest.mark.parametrize("k", [2, 3, 4, 10, 40])
def test_cayley_is_a_rotation_on_skew_stacks(k):
    # the solve's rounding grows with the condition number of I - W/2,
    # sqrt(1 + |W|_2^2 / 4), so the bound is 1e-14 up to |W|_2 ~ 2 and
    # relative beyond it
    rng = np.random.default_rng(k)
    for scale in (1e-8, 1e-4, 1e-2, 1.0, 10.0, 1e2, 1e3):
        W = _skew_stack(rng, 12, k, scale)
        for Wi, Qi in zip(W, cayley(W)):
            cond = np.sqrt(1.0 + np.linalg.norm(Wi, 2) ** 2 / 4.0)
            assert np.abs(Qi.T @ Qi - np.eye(k)).max() <= 1e-14 * cond
            assert np.linalg.det(Qi) > 0.0


def test_cayley_stack_members_match_their_lone_transforms():
    # each member is its own solve, so mixing scales in one stack moves no bit
    rng = np.random.default_rng(7)
    for k in (2, 3, 6, 40):
        W = np.concatenate([_skew_stack(rng, 2, k, s) for s in (1e-8, 1.0, 1e3)])
        W = W[rng.permutation(len(W))]
        for Wi, Qi in zip(W, cayley(W)):
            assert np.array_equal(Qi, cayley(Wi))


def test_cayley_turns_the_plane_by_twice_the_half_angle_arctangent():
    # at k = 2 the skew of theta maps to the rotation by 2 atan(theta / 2)
    for theta in (1e-8, 1e-3, 0.5, 1.0, 3.0, -0.7, 10.0, -50.0, 1e3):
        Q = cayley(np.array([[0.0, -theta], [theta, 0.0]]))
        phi = 2.0 * math.atan(theta / 2.0)
        turn = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
        assert np.abs(Q - turn).max() <= 1e-15
        assert abs(math.atan2(Q[1, 0], Q[0, 0]) - phi) <= 1e-15


@pytest.mark.parametrize("k", [2, 3, 5, 10, 40])
def test_expm_matches_scipy_on_skew_stacks(k):
    # the Cayley transform is an exponential: cay(W) = expm(2 artanh(W / 2)),
    # and a skew W = U diag(i theta) U^H has 2 artanh(W / 2) =
    # U diag(2 i atan(theta / 2)) U^H, a skew generator that scipy's expm
    # must map to cay(W) at every scale
    rng = np.random.default_rng(k)
    for scale in (1e-8, 1e-3, 0.5, 2.0, 10.0, 1e3):
        W = _skew_stack(rng, 12, k, scale)
        for Wi, Qi in zip(W, cayley(W)):
            mu, U = np.linalg.eigh(1j * Wi)  # Wi = U diag(-i mu) U^H
            L = ((U * (-2j * np.arctan(mu / 2.0))) @ U.conj().T).real
            cond = np.sqrt(1.0 + np.linalg.norm(Wi, 2) ** 2 / 4.0)
            assert np.abs(Qi - scipy.linalg.expm(L)).max() <= 1e-14 * cond


@pytest.mark.parametrize("k", [2, 3, 4, 10, 40])
def test_cayley_agrees_with_the_exponential_to_second_order(k):
    # cay(tW) - expm(tW) = t^3 W^3 / 12 + O(t^4): a second-order retraction
    rng = np.random.default_rng(200 + k)
    W = _skew_stack(rng, 1, k, 1.0)[0]
    W /= np.linalg.norm(W)
    lead = np.linalg.norm(W @ W @ W) / 12.0
    for t in (1e-2, 1e-3):
        err = np.linalg.norm(cayley(t * W) - scipy.linalg.expm(t * W))
        assert abs(err / t**3 - lead) <= 0.01 * lead


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
