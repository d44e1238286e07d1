import numpy as np
import pytest

from corrgeo import (
    DEFAULT_CONFIG,
    GeodesicSegment,
    InvalidInput,
    OrbitPoint,
    align,
    factorize,
    geodesic_rank_profile,
    gram,
    horizontality_defect,
    k_embedding,
    max_full_rank_interval,
    numerical_rank,
    o2_grid_distance,
    orbit_dist,
    orbit_equal,
    orbit_exp,
    orbit_log,
    ps_dist,
    ps_exp,
    random_orthogonal,
)

from corrgeo.quotient_space import _align_pair

from conftest import counterexample_pair, random_point

HALF_SQRT2_PI = np.pi / np.sqrt(2.0)


def _nearby_pair(rng, m, k, scale=0.35):
    X = random_point(rng, m, k)
    W = rng.standard_normal((m, k))
    V = W - np.einsum("ij,ij->i", X, W)[:, None] * X
    V *= scale / np.linalg.norm(V)
    return X, ps_exp(X, V)


# align ------------------------------------------------------------------------


def test_align_self_is_exact():
    rng = np.random.default_rng(0)
    X = random_point(rng, 5, 3)
    r = align(X, X)
    assert r.loss < 1e-16
    assert r.converged
    assert ps_dist(X, r.aligned) < 1e-8


def test_align_recovers_rotation():
    rng = np.random.default_rng(1)
    X = random_point(rng, 6, 3)
    R = random_orthogonal(3, rng)
    r = align(X, X @ R)
    assert r.loss < 1e-16
    # aligned is the second representative rotated back onto the first
    assert ps_dist(X, r.aligned) < 1e-7


def test_align_loss_equals_squared_distance_to_aligned():
    rng = np.random.default_rng(2)
    for _ in range(5):
        X = random_point(rng, 4, 2)
        Y = random_point(rng, 4, 2)
        r = align(X, Y)
        assert abs(r.loss - ps_dist(X, r.aligned) ** 2) < 1e-10


def test_align_agrees_with_planar_grid():
    rng = np.random.default_rng(3)
    for _ in range(5):
        X = random_point(rng, 4, 2)
        Y = random_point(rng, 4, 2)
        d_solver = orbit_dist(X, Y)
        d_grid = o2_grid_distance(X, Y)
        assert abs(d_solver - d_grid) < 1e-6


def test_align_converged_means_gradient_below_tolerance():
    # full-width factors of two sample correlations: a stall at the rounding
    # floor of the loss must not be reported as convergence
    rng = np.random.default_rng(15)
    m = 15
    center = np.full((m, m), 0.45)
    np.fill_diagonal(center, 1.0)
    L = np.linalg.cholesky(center)
    X, Y = (
        factorize(np.corrcoef(rng.standard_normal((200, m)) @ L.T, rowvar=False), m)
        for _ in range(2)
    )
    r = align(X, Y)
    assert r.converged
    assert r.grad_norm <= DEFAULT_CONFIG.grad_tol
    assert r.iterations <= 20


def test_align_shape_mismatch():
    with pytest.raises(InvalidInput):
        align(np.eye(2), np.eye(3))


# orbit_dist ---------------------------------------------------------------------


def test_orbit_dist_same_orbit_is_zero():
    rng = np.random.default_rng(4)
    X = random_point(rng, 5, 3)
    R = random_orthogonal(3, rng)
    assert orbit_dist(X, X @ R) < 1e-8
    assert orbit_equal(X, X @ R)


def test_orbit_dist_single_row_always_zero():
    rng = np.random.default_rng(5)
    for k in (2, 3, 4):
        X = random_point(rng, 1, k)
        Y = random_point(rng, 1, k)
        assert orbit_dist(X, Y) < 1e-8


def test_orbit_dist_exactly_symmetric():
    rng = np.random.default_rng(6)
    X = random_point(rng, 4, 2)
    Y = random_point(rng, 4, 2)
    assert orbit_dist(X, Y) == orbit_dist(Y, X)


def test_orbit_dist_no_worse_than_either_order():
    # the one search of a pair covers the starts of both orders
    rng = np.random.default_rng(0)
    for _ in range(30):
        X = random_point(rng, 5, 2)
        Y = random_point(rng, 5, 2)
        d = orbit_dist(X, Y)
        assert d <= np.sqrt(min(align(X, Y).loss, align(Y, X).loss)) + 1e-12
        assert d == orbit_dist(Y, X)
        fwd, rev = _align_pair(X, Y), _align_pair(Y, X)
        assert np.array_equal(fwd.rotation, rev.rotation.T)
        assert abs(ps_dist(X, fwd.aligned) ** 2 - fwd.loss) < 1e-12
        assert abs(ps_dist(Y, rev.aligned) ** 2 - rev.loss) < 1e-12


def test_orbit_dist_bounded_by_product_distance():
    rng = np.random.default_rng(7)
    for _ in range(5):
        X = random_point(rng, 5, 3)
        Y = random_point(rng, 5, 3)
        assert orbit_dist(X, Y) <= ps_dist(X, Y) + 1e-12


def test_orbit_dist_representative_invariance():
    rng = np.random.default_rng(8)
    X = random_point(rng, 4, 3)
    Y = random_point(rng, 4, 3)
    d = orbit_dist(X, Y)
    R1 = random_orthogonal(3, rng)
    R2 = random_orthogonal(3, rng)
    assert abs(orbit_dist(X @ R1, Y @ R2) - d) < 1e-6


def test_orbit_dist_counterexample_exceeds_planar_bound():
    X, Y = counterexample_pair()
    d = orbit_dist(X, Y)
    assert d > HALF_SQRT2_PI + 0.4
    # the exact value is sqrt(3) pi / 2
    assert abs(d - np.sqrt(3.0) * np.pi / 2.0) < 1e-9


# orbit_log / orbit_exp ------------------------------------------------------------


def test_orbit_log_same_point_is_zero():
    rng = np.random.default_rng(9)
    X = random_point(rng, 5, 3)
    V = orbit_log(X, X)
    assert V.norm < 1e-7
    R = random_orthogonal(3, rng)
    assert orbit_log(X, X @ R).norm < 1e-7


def test_orbit_log_is_certified_horizontal_at_full_rank():
    rng = np.random.default_rng(10)
    X, Y = _nearby_pair(rng, 5, 3)
    V = orbit_log(X, Y)
    assert V.horizontal_certified is True
    assert V.vertical_norm <= DEFAULT_CONFIG.horiz_tol
    assert horizontality_defect(X, V) < 1e-8


def test_orbit_log_skips_certificate_at_low_rank():
    rng = np.random.default_rng(11)
    X = random_point(rng, 4, 2)
    pad = np.zeros((4, 1))
    X3 = np.hstack([X, pad])  # rank 2 representative in k=3
    Y3 = np.hstack([random_point(rng, 4, 2), pad])
    V = orbit_log(X3, Y3)
    assert V.horizontal_certified is None


def test_orbit_exp_zero_time_and_round_trip():
    rng = np.random.default_rng(12)
    X, Y = _nearby_pair(rng, 5, 3)
    assert ps_dist(orbit_exp(X, orbit_log(X, Y), t=0.0).rep, X) < 1e-12
    Z = orbit_exp(X, orbit_log(X, Y))
    assert orbit_dist(Z, Y) < 1e-6


def test_orbit_exp_constant_speed():
    rng = np.random.default_rng(13)
    X, Y = _nearby_pair(rng, 4, 3, scale=0.5)
    V = orbit_log(X, Y)
    for t in (0.1, 0.3, 0.5, 0.7, 0.9):
        d = orbit_dist(X, orbit_exp(X, V, t=t))
        assert abs(d - t * V.norm) < 1e-4


def test_orbit_exp_horizontality_gate():
    rng = np.random.default_rng(14)
    X = random_point(rng, 4, 2)
    # a purely vertical direction: common infinitesimal rotation of all rows
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    V = X @ J.T
    cfg = DEFAULT_CONFIG.with_(require_horizontal=True)
    with pytest.raises(InvalidInput):
        orbit_exp(X, V, cfg=cfg)
    # without the gate the rowwise exponential just runs
    orbit_exp(X, V)


# geodesics ------------------------------------------------------------------------


def test_segment_validation():
    rng = np.random.default_rng(15)
    X, Y = _nearby_pair(rng, 4, 3)
    V = orbit_log(X, Y)
    with pytest.raises(InvalidInput):
        GeodesicSegment(start=X, velocity=V, duration=0.0)
    with pytest.raises(InvalidInput):
        GeodesicSegment(start=Y, velocity=V, duration=1.0)
    seg = GeodesicSegment(start=X, velocity=V, duration=1.0)
    assert np.allclose(seg.point(0.0), X)
    assert ps_dist(seg.point(1.0), ps_exp(X, V.vec)) < 1e-12


def test_rank_profile_constant_for_zero_velocity():
    rng = np.random.default_rng(16)
    X = random_point(rng, 5, 3)
    seg = GeodesicSegment(
        start=X, velocity=orbit_log(X, X), duration=1.0
    )
    profile = geodesic_rank_profile(seg, samples=5)
    assert len(profile) == 7
    assert all(r == numerical_rank(X) for _, r in profile)


def test_rank_profile_constant_on_minimizing_geodesic():
    rng = np.random.default_rng(17)
    X, Y = _nearby_pair(rng, 5, 3)
    seg = GeodesicSegment(start=X, velocity=orbit_log(X, Y), duration=1.0)
    profile = geodesic_rank_profile(seg, samples=9)
    interior = [r for t, r in profile[1:-1]]
    assert all(r == 3 for r in interior)
    assert min(interior) >= max(profile[0][1], profile[-1][1])


def test_rank_profile_long_segment_runs():
    rng = np.random.default_rng(18)
    X, Y = _nearby_pair(rng, 4, 2)
    seg = GeodesicSegment(start=X, velocity=orbit_log(X, Y), duration=12.0)
    profile = geodesic_rank_profile(seg, samples=25)
    assert len(profile) == 27
    assert profile[0][0] == 0.0 and abs(profile[-1][0] - 12.0) < 1e-12
    assert all(r in (1, 2) for _, r in profile)


# escape times ----------------------------------------------------------------------


def test_full_rank_interval_zero_velocity():
    rng = np.random.default_rng(19)
    X = random_point(rng, 4, 3)
    lo, hi = max_full_rank_interval(X, np.zeros((4, 3)), t_max_search=5.0)
    assert (lo, hi) == (-5.0, 5.0)


def test_full_rank_interval_analytic_collision():
    X = np.eye(2)
    V = np.array([[0.0, 1.0], [0.0, 0.0]])  # rotate row 0 toward row 1
    lo, hi = max_full_rank_interval(X, V, t_max_search=4.0)
    assert abs(hi - np.pi / 2.0) < 1e-4
    assert abs(lo + np.pi / 2.0) < 1e-4
    # at the boundary the two rows coincide up to sign: rank 1
    sig = np.linalg.svd(ps_exp(X, V, hi), compute_uv=False)
    assert sig[-1] < 1e-5


def test_full_rank_interval_rejects_rank_deficient_base():
    X = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(InvalidInput):
        max_full_rank_interval(X, np.zeros((2, 2)))


# embeddings ------------------------------------------------------------------------


def test_k_embedding_basics():
    rng = np.random.default_rng(20)
    X = random_point(rng, 4, 2)
    same = k_embedding(X, 2)
    assert np.array_equal(same.rep, X)
    wide = k_embedding(X, 4)
    assert wide.rep.shape == (4, 4)
    assert np.array_equal(wide.rep[:, :2], X)
    with pytest.raises(InvalidInput):
        k_embedding(X, 1)


def test_k_embedding_preserves_gram():
    rng = np.random.default_rng(21)
    X = random_point(rng, 5, 2)
    Z1 = gram(X).entries
    Z2 = gram(k_embedding(X, 3).rep).entries
    assert np.max(np.abs(Z1 - Z2)) < 1e-15


def test_k_embedding_never_increases_distance():
    rng = np.random.default_rng(22)
    X = random_point(rng, 4, 2)
    Y = random_point(rng, 4, 2)
    d2 = orbit_dist(X, Y)
    r = align(X, Y)
    lift = np.zeros((3, 3))
    lift[:2, :2] = r.rotation
    lift[2, 2] = 1.0
    d3 = orbit_dist(k_embedding(X, 3), k_embedding(Y, 3), extra_inits=[lift])
    assert d3 <= d2 + 1e-5


def test_orbit_point_properties():
    rng = np.random.default_rng(23)
    X = random_point(rng, 5, 3)
    p = OrbitPoint(X)
    assert p.m == 5 and p.k == 3
    with pytest.raises(InvalidInput):
        OrbitPoint(2.0 * X)
