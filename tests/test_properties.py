"""Property-based checks of the quotient distance's invariances and the Frechet mean."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from corrgeo import (
    align,
    frechet_mean,
    frechet_variance,
    k_embedding,
    orbit_dist,
    random_orthogonal,
)

from conftest import random_point
from reference import alignment_certified

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=25, deadline=None)


def _unit_row_matrices(draw, n, m, k):
    """n m x k matrices with unit rows, no row drawn shorter than 0.1."""
    entries = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)
    out = []
    for _ in range(n):
        A = draw(arrays(float, (m, k), elements=entries))
        norms = np.linalg.norm(A, axis=1)
        assume(norms.min() > 0.1)
        out.append(A / norms[:, None])
    return out


@st.composite
def unit_row_pairs(draw):
    """Two m x k matrices with unit rows, m in 2..6 and k in 2..4."""
    m = draw(st.integers(2, 6))
    k = draw(st.integers(2, 4))
    return _unit_row_matrices(draw, 2, m, k)


@st.composite
def weighted_sample_sets(draw):
    """2..4 m x k unit-row samples, m in 2..6 and k in 2..4, with weights in [0.5, 2]."""
    m = draw(st.integers(2, 6))
    k = draw(st.integers(2, 4))
    n = draw(st.integers(2, 4))
    samples = _unit_row_matrices(draw, n, m, k)
    return samples, draw(arrays(float, n, elements=st.floats(0.5, 2.0)))


@PROPERTY_SETTINGS
@given(unit_row_pairs(), st.randoms(use_true_random=False))
def test_orbit_dist_invariant_under_row_permutation(pair, random):
    X, Y = pair
    perm = list(range(X.shape[0]))
    random.shuffle(perm)
    assert abs(orbit_dist(X[perm], Y[perm]) - orbit_dist(X, Y)) <= 1e-9


@PROPERTY_SETTINGS
@given(unit_row_pairs(), st.integers(0, 2**32 - 1))
def test_orbit_dist_invariant_under_rotation_of_either_representative(pair, seed):
    X, Y = pair
    Q = random_orthogonal(X.shape[1], np.random.default_rng(seed))
    d = orbit_dist(X, Y)
    assert abs(orbit_dist(X @ Q, Y) - d) <= 1e-9
    assert abs(orbit_dist(X, Y @ Q) - d) <= 1e-9


@settings(derandomize=True, max_examples=100, deadline=None)
@given(unit_row_pairs(), st.integers(0, 2**32 - 1))
def test_certified_distance_is_invariant_under_rotation_of_either_representative(pair, seed):
    # a certified rotation is the pair's global minimum, so no representative
    # can move the distance, whatever the seeded random starts find
    X, Y = pair
    assume(alignment_certified(X, Y, align(X, Y).rotation))
    Q = random_orthogonal(X.shape[1], np.random.default_rng(seed))
    d = orbit_dist(X, Y)
    assert abs(orbit_dist(X @ Q, Y) - d) <= 1e-9
    assert abs(orbit_dist(X, Y @ Q) - d) <= 1e-9


def test_a_certified_side_is_never_the_larger_distance():
    # 150 pairs per (m, k), the first factor rotated by one fixed Q: the
    # seeded starts do not move with the representative, so 11 pairs move
    # (ROADMAP, Measured), and a side that certifies its rotation holds the
    # global minimum, so it is never above the other side
    for m, k in ((4, 2), (8, 2)):
        rng = np.random.default_rng(5)
        Q = random_orthogonal(k, np.random.default_rng(77))
        for _ in range(150):
            X, Y = random_point(rng, m, k), random_point(rng, m, k)
            sides = [(X, align(X, Y)), (X @ Q, align(X @ Q, Y))]
            d = [float(np.sqrt(r.loss)) for _, r in sides]
            for (A, r), mine, other in zip(sides, d, d[::-1]):
                if alignment_certified(A, Y, r.rotation):
                    assert mine <= other + 1e-9


@PROPERTY_SETTINGS
@given(unit_row_pairs())
def test_orbit_dist_exactly_symmetric(pair):
    X, Y = pair
    assert orbit_dist(X, Y) == orbit_dist(Y, X)


@PROPERTY_SETTINGS
@given(unit_row_pairs())
def test_orbit_dist_does_not_grow_under_k_embedding(pair):
    X, Y = pair
    k = X.shape[1]
    a = align(X, Y)
    b = align(Y, X)
    d = float(np.sqrt(min(a.loss, b.loss)))
    lifts = []
    for O in (a.rotation, b.rotation.T):
        L = np.eye(k + 1)
        L[:k, :k] = O
        lifts.append(L)
    d_wide = orbit_dist(k_embedding(X, k + 1), k_embedding(Y, k + 1), extra_inits=lifts)
    assert d_wide <= d + 1e-9


@PROPERTY_SETTINGS
@given(weighted_sample_sets(), st.integers(0, 2**32 - 1))
def test_frechet_mean_loss_is_its_variance_and_ignores_representatives(sets, seed):
    samples, w = sets
    rep = frechet_mean(samples, weights=w)
    loss = rep.loss_history[-1]
    assert abs(frechet_variance(samples, rep.mean, weights=w) - loss) <= 1e-9
    for S in samples:
        assert loss <= frechet_variance(samples, S, weights=w)
    rng = np.random.default_rng(seed)
    moved = [S @ random_orthogonal(S.shape[1], rng) for S in samples]
    assert abs(frechet_mean(moved, weights=w).loss_history[-1] - loss) <= 1e-9
