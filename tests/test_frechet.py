import numpy as np
import pytest

from corrgeo import (
    InvalidInput,
    WeightedSampleSet,
    frechet_mean,
    frechet_variance,
    orbit_dist,
    ps_exp,
    random_orthogonal,
)

from conftest import random_point, random_rank_point, random_tangent
from reference import frechet_mean_per_pair


def _clustered_samples(rng, m, k, n, spread=0.3):
    center = random_point(rng, m, k)
    return center, [
        ps_exp(center, random_tangent(rng, center, scale=spread * rng.uniform(0.5, 1.0)))
        for _ in range(n)
    ]


# sample sets -----------------------------------------------------------------


def test_sample_set_normalizes_weights():
    rng = np.random.default_rng(0)
    pts = [random_point(rng, 3, 2) for _ in range(3)]
    ss = WeightedSampleSet(points=tuple(pts), weights=[2.0, 2.0, 4.0])
    assert abs(ss.weights.sum() - 1.0) < 1e-15
    assert len(ss) == 3


def test_sample_set_rejects_bad_input():
    rng = np.random.default_rng(1)
    X = random_point(rng, 3, 2)
    with pytest.raises(InvalidInput):
        WeightedSampleSet(points=(), weights=[])
    with pytest.raises(InvalidInput):
        WeightedSampleSet(points=(X,), weights=[0.0])
    with pytest.raises(InvalidInput):
        WeightedSampleSet(points=(X, random_point(rng, 4, 2)), weights=[1.0, 1.0])


# variance ---------------------------------------------------------------------


def test_invalid_sample_or_candidate_is_named():
    bad = [[2.0, 0.0], [0.0, 1.0]]
    with pytest.raises(InvalidInput, match=r"row 0 of points\[1\] has norm 2"):
        frechet_mean([np.eye(2), bad])
    with pytest.raises(InvalidInput, match=r"row 0 of points\[1\] has norm 2"):
        WeightedSampleSet(points=(np.eye(2), bad), weights=[1.0, 1.0])
    with pytest.raises(InvalidInput, match=r"row 0 of candidate has norm 2"):
        frechet_variance([np.eye(2)], bad)


def test_variance_zero_at_common_orbit():
    rng = np.random.default_rng(2)
    X = random_point(rng, 4, 2)
    R = random_orthogonal(2, rng)
    assert frechet_variance([X, X @ R], X) < 1e-12


def test_variance_matches_direct_sum():
    rng = np.random.default_rng(3)
    pts = [random_point(rng, 4, 2) for _ in range(3)]
    cand = random_point(rng, 4, 2)
    w = np.array([1.0, 2.0, 3.0])
    expect = sum(
        wi * orbit_dist(p, cand) ** 2 for wi, p in zip(w / w.sum(), pts)
    )
    # one stack of pair searches, each the same numbers as its orbit_dist
    assert frechet_variance(pts, cand, weights=w) == expect


# means ------------------------------------------------------------------------


def test_mean_of_single_sample():
    rng = np.random.default_rng(4)
    X = random_point(rng, 4, 2)
    rep = frechet_mean([X])
    assert rep.converged
    assert rep.loss_history == [0.0]
    assert orbit_dist(rep.mean, X) < 1e-12


def test_mean_of_one_orbit_resamples():
    rng = np.random.default_rng(5)
    X = random_point(rng, 4, 3)
    samples = [X @ random_orthogonal(3, rng) for _ in range(4)]
    rep = frechet_mean(samples)
    assert rep.loss_history[-1] < 1e-12
    assert orbit_dist(rep.mean, X) < 1e-6


def test_mean_single_row_is_exact():
    rng = np.random.default_rng(6)
    samples = [random_point(rng, 1, 2) for _ in range(3)]
    rep = frechet_mean(samples)
    # every single-row configuration lies on one orbit
    assert rep.loss_history[-1] < 1e-12


def test_mean_loss_history_non_increasing():
    rng = np.random.default_rng(7)
    _, samples = _clustered_samples(rng, 4, 2, 5)
    rep = frechet_mean(samples)
    hist = rep.loss_history
    for a, b in zip(hist, hist[1:]):
        assert b <= a + 1e-12
    assert rep.converged


def test_mean_beats_samples_and_random_candidates():
    rng = np.random.default_rng(8)
    center, samples = _clustered_samples(rng, 4, 2, 3)
    rep = frechet_mean(samples)
    best = frechet_variance(samples, rep.mean)
    for s in samples:
        assert best <= frechet_variance(samples, s) + 1e-10
    for _ in range(200):
        cand = ps_exp(center, random_tangent(rng, center, scale=0.5 * rng.uniform(0, 1)))
        assert best <= frechet_variance(samples, cand) + 1e-8


def test_mean_weight_scaling_invariance():
    rng = np.random.default_rng(9)
    _, samples = _clustered_samples(rng, 3, 2, 3)
    w = np.array([1.0, 2.0, 3.0])
    r1 = frechet_mean(samples, weights=w)
    r2 = frechet_mean(samples, weights=10.0 * w)
    assert orbit_dist(r1.mean, r2.mean) < 1e-8


def test_mean_permutation_invariance():
    rng = np.random.default_rng(10)
    _, samples = _clustered_samples(rng, 3, 2, 4)
    w = np.array([1.0, 2.0, 3.0, 4.0])
    perm = [2, 0, 3, 1]
    r1 = frechet_mean(samples, weights=w)
    r2 = frechet_mean([samples[i] for i in perm], weights=w[perm])
    assert orbit_dist(r1.mean, r2.mean) < 1e-6


def test_mean_variance_consistent_with_history():
    rng = np.random.default_rng(11)
    _, samples = _clustered_samples(rng, 4, 2, 4)
    w = np.array([1.0, 1.0, 2.0, 1.0])
    rep = frechet_mean(samples, weights=w)
    var = frechet_variance(samples, rep.mean, weights=w)
    assert abs(var - rep.loss_history[-1]) < 1e-8


def test_mean_stacks_match_per_pair_searches():
    # the initializer's pairs and each outer iteration's samples are one
    # stack, which must change no number of the per-pair loop
    rng = np.random.default_rng(21)
    for m, k, ranks in ((6, 3, (3, 3, 2, 1)), (9, 4, (4, 3, 4, 4, 2)), (5, 2, (2, 1, 2))):
        pts = [random_rank_point(rng, m, k, r) for r in ranks]
        w = rng.uniform(0.5, 2.0, len(pts))
        rep = frechet_mean(pts, weights=w)
        mean, history, outer, converged, results = frechet_mean_per_pair(
            pts, w / w.sum()
        )
        assert np.array_equal(rep.mean.rep, mean)
        assert rep.loss_history == history
        assert (rep.outer_iterations, rep.converged) == (outer, converged)
        assert len(rep.alignments) == len(pts)
        for a, b in zip(rep.alignments, results):
            assert np.array_equal(a.rotation, b.rotation)
            assert (a.loss, a.grad_norm, a.iterations) == (b.loss, b.grad_norm, b.iterations)
            assert (a.converged, a.stagnated, a.restarts_used) == (
                b.converged,
                b.stagnated,
                b.restarts_used,
            )
