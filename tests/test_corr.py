import numpy as np
import pytest

from corrgeo import (
    CorrelationMatrix,
    InvalidCorrelation,
    InvalidInput,
    RankExceedsK,
    as_correlation,
    factorize,
    gram,
    orbit_dist,
    random_orthogonal,
    validate,
)
from corrgeo.corr import (
    EntryRangeViolation,
    NonFiniteViolation,
    PSDViolation,
    SymmetryViolation,
    UnitDiagonalViolation,
)

from conftest import random_correlation, random_point


# validate --------------------------------------------------------------------


def test_validate_identity():
    out = validate(np.eye(4))
    assert isinstance(out, CorrelationMatrix)
    assert out.m == 4
    assert out.detected_rank() == 4


def test_validate_diagonal_violation():
    Z = np.eye(3)
    Z[1, 1] = 0.9
    out = validate(Z)
    assert isinstance(out, list)
    v = [x for x in out if isinstance(x, UnitDiagonalViolation)]
    assert len(v) == 1
    assert abs(v[0].magnitude - 0.1) < 1e-12


def test_validate_psd_violation():
    # equicorrelation with a = -0.525: eigenvalues 1 + 2a = -0.05 and 1 - a
    a = -0.525
    Z = np.full((3, 3), a)
    np.fill_diagonal(Z, 1.0)
    out = validate(Z)
    assert isinstance(out, list)
    v = [x for x in out if isinstance(x, PSDViolation)]
    assert len(v) == 1
    assert abs(v[0].magnitude - 0.05) < 1e-10


def test_validate_symmetry_and_range():
    Z = np.eye(2)
    Z[0, 1] = 0.3
    out = validate(Z)
    assert any(isinstance(x, SymmetryViolation) for x in out)
    Z = np.array([[1.0, 1.2], [1.2, 1.0]])
    out = validate(Z)
    assert any(isinstance(x, EntryRangeViolation) for x in out)


def test_validate_nonfinite_short_circuits():
    Z = np.eye(3)
    Z[0, 2] = np.nan
    out = validate(Z)
    assert len(out) == 1
    assert isinstance(out[0], NonFiniteViolation)


def test_as_correlation_raises_with_details():
    Z = np.eye(2) * 0.5
    with pytest.raises(InvalidCorrelation) as exc:
        as_correlation(Z)
    assert "UnitDiagonalViolation" in str(exc.value)


# factorize -------------------------------------------------------------------


def test_factorize_identity_full_width():
    X = factorize(np.eye(4), k=4)
    assert X.shape == (4, 4)
    assert np.linalg.norm(X @ X.T - np.eye(4)) < 1e-12


def test_factorize_rank_one_all_ones():
    Z = np.ones((3, 3))
    X = factorize(Z, k=2)
    assert X.shape == (3, 2)
    # all rows identical, second column zero
    assert np.allclose(X, X[0])
    assert np.linalg.norm(X @ X.T - Z) < 1e-12


def test_factorize_round_trip_orbit():
    rng = np.random.default_rng(0)
    X0 = random_point(rng, 6, 3)
    Z = gram(X0).entries
    X = factorize(Z, k=3)
    assert orbit_dist(X, X0) < 1e-6


def test_factorize_rank_exceeds_width():
    with pytest.raises(RankExceedsK):
        factorize(np.eye(4), k=3)
    with pytest.raises(InvalidInput):
        factorize(np.eye(4), k=1)


@pytest.mark.parametrize("k", [2.5, 3.0, float("nan"), "3", None, True, 1])
def test_factorize_rejects_a_width_that_is_not_an_integer_at_least_2(k):
    with pytest.raises(InvalidInput, match="need k >= 2"):
        factorize(np.eye(3), k)
    bad = np.eye(3)
    bad[0, 0] = 2.0
    with pytest.raises(InvalidCorrelation):
        factorize(bad, k)


def test_factorize_accepts_a_numpy_integer_width():
    assert np.array_equal(factorize(np.eye(3), np.int64(3)), factorize(np.eye(3), 3))


def test_factorize_deterministic():
    rng = np.random.default_rng(1)
    Z = random_correlation(rng, 5, 3)
    X1 = factorize(Z, k=3)
    X2 = factorize(Z.copy(), k=3)
    assert np.array_equal(X1, X2)


def test_factorize_pads_low_rank():
    rng = np.random.default_rng(2)
    Z = random_correlation(rng, 5, 2)
    X = factorize(Z, k=4)
    assert X.shape == (5, 4)
    assert np.allclose(X[:, 2:], 0.0)
    assert np.linalg.norm(X @ X.T - Z) < 1e-8


# gram ------------------------------------------------------------------------


def test_gram_unit_diagonal_and_symmetry():
    rng = np.random.default_rng(3)
    X = random_point(rng, 5, 3)
    C = gram(X)
    Z = C.entries
    assert np.array_equal(Z, Z.T)
    assert np.all(np.diag(Z) == 1.0)
    assert np.max(np.abs(Z)) <= 1.0


def test_gram_rotation_invariance():
    rng = np.random.default_rng(4)
    X = random_point(rng, 6, 3)
    R = random_orthogonal(3, rng)
    Z1 = gram(X).entries
    Z2 = gram(X @ R).entries
    assert np.max(np.abs(Z1 - Z2)) < 1e-13


def test_gram_factorize_round_trip_matrix_level():
    rng = np.random.default_rng(5)
    for m, r in ((4, 2), (6, 3), (8, 3)):
        Z = random_correlation(rng, m, r)
        X = factorize(Z, k=r)
        assert np.linalg.norm(gram(X).entries - Z, "fro") < 1e-8
