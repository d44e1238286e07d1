import numpy as np
import pytest

from corrgeo import (
    InvalidInput,
    WeightedSampleSet,
    align,
    frechet,
    frechet_mean,
    frechet_variance,
    orbit_dist,
    ps_exp,
    random_orthogonal,
    skew_part,
    unit_rows,
)
from corrgeo.config import DEFAULT_CONFIG
from corrgeo.frechet import _joint_model
from corrgeo.product_sphere import _row_angles
from corrgeo.quotient_space import _align_pairs

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


def test_mean_stacks_match_per_pair_searches(monkeypatch):
    # the joint solve ends at or below the loss of the alternating loop with
    # every search solved alone, and the final alignment stack gives each
    # sample the numbers of its own search at the returned mean,
    # warm-started from its joint rotation
    warm = []

    def spy(Xs, Ys, cfg=DEFAULT_CONFIG, extra_inits=None):
        warm.append(extra_inits)
        return _align_pairs(Xs, Ys, cfg, extra_inits)

    monkeypatch.setattr(frechet, "_align_pairs", spy)
    rng = np.random.default_rng(21)
    for m, k, ranks in ((6, 3, (3, 3, 2, 1)), (9, 4, (4, 3, 4, 4, 2)), (5, 2, (2, 1, 2))):
        pts = [random_rank_point(rng, m, k, r) for r in ranks]
        w = rng.uniform(0.5, 2.0, len(pts))
        warm.clear()
        rep = frechet_mean(pts, weights=w)
        _, history, _, converged, _ = frechet_mean_per_pair(pts, w / w.sum())
        assert rep.converged and converged
        loss = rep.loss_history[-1]
        assert loss <= history[-1] + 1e-12 * max(1.0, loss)
        assert len(rep.alignments) == len(pts)
        for i, a in enumerate(rep.alignments):
            (b,) = _align_pairs(
                pts[i][None], rep.mean.rep[None], DEFAULT_CONFIG, warm[-1][i : i + 1]
            )
            assert np.array_equal(a.rotation, b.rotation)
            assert (a.loss, a.grad_norm, a.iterations) == (b.loss, b.grad_norm, b.iterations)
            assert (a.converged, a.stagnated, a.restarts_used) == (
                b.converged,
                b.stagnated,
                b.restarts_used,
            )


def test_mean_alignments_are_the_pair_search(monkeypatch):
    # each sample's alignment to the mean is align(mean, sample_i) warm-started
    # from its joint rotation O_i (transposed, as the pair is reversed), with
    # the rotation transposed: the symmetric pair search, bit for bit, for
    # samples whose bytes sort before and after the mean's
    joint = []
    solve = frechet._joint_solve

    def spy(*args):
        out = solve(*args)
        joint.append(out[1])
        return out

    monkeypatch.setattr(frechet, "_joint_solve", spy)
    rng = np.random.default_rng(22)
    before = set()
    for m, k, ranks in ((6, 3, (3, 3, 2, 1)), (9, 4, (4, 3, 4, 4, 2)), (5, 2, (2, 1, 2))):
        pts = [random_rank_point(rng, m, k, r) for r in ranks]
        w = rng.uniform(0.5, 2.0, len(pts))
        rep = frechet_mean(pts, weights=w)
        M = rep.mean.rep
        for i, a in enumerate(rep.alignments):
            b = align(M, pts[i], extra_inits=[joint[-1][i].T])
            assert np.array_equal(a.rotation, b.rotation.T)
            assert np.array_equal(a.aligned, M @ b.rotation)
            assert (a.loss, a.grad_norm, a.iterations) == (b.loss, b.grad_norm, b.iterations)
            assert (a.converged, a.stagnated, a.restarts_used, a.retired, a.clamped_rows) == (
                b.converged,
                b.stagnated,
                b.restarts_used,
                b.retired,
                b.clamped_rows,
            )
            before.add(pts[i].tobytes() < M.tobytes())
    assert before == {False, True}


def _spread_set(rng, m, k, n, spread):
    # samples around one centre, each in a random frame
    center = unit_rows(rng.standard_normal((m, k)))
    return [
        unit_rows(center + spread * rng.standard_normal((m, k))) @ random_orthogonal(k, rng)
        for _ in range(n)
    ]


def test_initializer_pruning_changes_no_bit(monkeypatch):
    # the pair searches skipped by the bounds cannot change the initializer:
    # with the candidate mask forced to all samples every output is the same
    sets = [
        (_spread_set(np.random.default_rng([20240103, 1, s]), m, k, n, spread), None)
        for s, (m, k, n, spread) in enumerate(
            ((30, 3, 4, 0.1), (12, 3, 5, 0.1), (16, 4, 4, 0.3), (12, 3, 4, 0.6))
        )
    ]
    rng = np.random.default_rng(1701)
    for spread in (0.2, 0.5, 1.0, 2.0):
        m, k, n = int(rng.integers(5, 12)), int(rng.integers(2, 5)), int(rng.integers(3, 9))
        sets.append((_spread_set(rng, m, k, n, spread), rng.uniform(0.1, 1.1, n)))
    pruned = [frechet_mean(pts, weights=w) for pts, w in sets]
    monkeypatch.setattr(
        frechet, "_initializer_candidates", lambda reps, w: np.ones(len(reps), dtype=bool)
    )
    for (pts, w), a in zip(sets, pruned):
        b = frechet_mean(pts, weights=w)
        assert np.array_equal(a.mean.rep, b.mean.rep)
        assert (a.loss_history, a.outer_iterations, a.converged) == (
            b.loss_history,
            b.outer_iterations,
            b.converged,
        )
        for x, y in zip(a.alignments, b.alignments):
            assert np.array_equal(x.rotation, y.rotation) and x.loss == y.loss


def test_tight_set_searches_only_the_pairs_of_its_initializer(monkeypatch):
    # at spread 0.2 the bounds leave one candidate of 20, so the initializer
    # searches its n - 1 pairs instead of all n (n - 1) / 2; every later
    # stack (the alternating step, the final alignments) searches n pairs
    searched = []

    def spy(Xs, Ys, cfg=DEFAULT_CONFIG, extra_inits=None):
        searched.append(len(Xs))
        return _align_pairs(Xs, Ys, cfg, extra_inits)

    monkeypatch.setattr(frechet, "_align_pairs", spy)
    n = 20
    rep = frechet_mean(_spread_set(np.random.default_rng(3), 10, 4, n, 0.2))
    assert rep.converged and searched[0] == n - 1
    assert len(searched) >= 3 and searched[1:] == [n] * (len(searched) - 1)


# joint model ------------------------------------------------------------------


def test_joint_model_matches_differences_along_the_retraction():
    # gradient and Hessian-vector products of the joint (M, O_1...O_n) model
    # against first and second differences of its loss along the
    # retraction, relative to the gradient and Hessian norms; unequal
    # weights, one rank-deficient sample, a pinned rotation
    rng = np.random.default_rng(1404)
    h = 1e-4
    for k in (2, 3, 4):
        for _ in range(4):
            m, n = 6, 4
            w = rng.uniform(0.5, 2.0, n)
            w /= w.sum()
            while True:
                reps = np.stack(
                    [random_rank_point(rng, m, k, 1 if i == 2 else k) for i in range(n)]
                )
                M = random_point(rng, m, k)
                Os = np.stack([random_orthogonal(k, rng) for _ in range(n)])
                if np.all(_row_angles(reps @ Os, M)[0] >= -1.0 + 1e-3):
                    break
            pin = int(rng.integers(n))
            model, retract = _joint_model(reps, w, pin=pin)
            x = np.concatenate([M, Os.reshape(n * k, k)])[None]
            f0, g, H, _ = model(x, [0])
            assert g.shape == (1, (m + n * k) * k)
            assert H.dim == m * (k - 1) + (n - 1) * k * (k - 1) // 2
            Hd = np.asarray(H)[0]
            scale = np.linalg.norm(Hd, 2)
            assert np.abs(Hd - Hd.T).max() <= 1e-14 * scale
            # an ambient tangent: rows orthogonal to M, skew blocks, the pinned one zero
            a = rng.standard_normal((m, k))
            a -= np.einsum("rk,rk->r", a, M)[:, None] * M
            W = skew_part(rng.standard_normal((n, k, k)))
            W[pin] = 0.0
            d = np.concatenate([a.ravel(), W.ravel()])
            d /= np.linalg.norm(d)
            fp = model(retract(x, h * d[None]), [0])[0][0]
            fm = model(retract(x, -h * d[None]), [0])[0][0]
            assert abs((fp - fm) / (2.0 * h) - g[0] @ d) <= 1e-6 * max(np.linalg.norm(g), 1.0)
            q = d @ Hd @ d
            assert abs((fp - 2.0 * f0[0] + fm) / h**2 - q) <= 1e-5 * max(abs(q), scale)


def test_pinned_rotation_lets_the_joint_solve_converge():
    # the joint solve from the initializer (the best sample and the pair
    # rotation onto it) converges to 2.6e-15 in 4 iterations; without the
    # pinned rotation the common-rotation gauge left K flat directions and
    # it stagnated at gradient norm 1.06e-8, above grad_tol
    rng = np.random.default_rng(1029)
    m, k, n = int(rng.integers(4, 20)), int(rng.integers(2, 6)), int(rng.integers(2, 7))
    spread = rng.uniform(0.05, 1.5)
    c = unit_rows(rng.standard_normal((m, k)))
    reps = np.stack([unit_rows(c + spread * rng.standard_normal((m, k))) for _ in range(n)])
    assert (m, k, n) == (12, 5, 2)
    (r,) = _align_pairs([reps[1]], [reps[0]])
    w = np.full(n, 1.0 / n)
    # sample 0 (the initializer on the tie) as the mean, sample 1 rotated onto it
    _, _, inner = frechet._joint_solve(
        reps, w, 0, reps[0], np.stack([np.eye(k), r.rotation]), DEFAULT_CONFIG
    )
    assert inner.converged and not inner.stagnated
    assert inner.grad_norm <= DEFAULT_CONFIG.grad_tol
    assert frechet_mean(list(reps)).converged
