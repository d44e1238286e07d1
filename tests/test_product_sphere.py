import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from corrgeo import (
    AntipodalLogarithm,
    InvalidInput,
    ProductTangent,
    align,
    check_unit_rows,
    ps_dist,
    ps_exp,
    ps_frechet_fixed,
    ps_log,
    ps_metric,
    ps_project,
    unit_rows,
)
from corrgeo import frechet, product_sphere, quotient_space
from corrgeo.config import DEFAULT_CONFIG
from corrgeo.kernels import random_orthogonal
from corrgeo.product_sphere import (
    CG_FLOOR,
    _HessianOp,
    _angle_factors,
    _row_mean_model,
    _truncated_cg,
    _trust_region,
)
from corrgeo.quotient_space import _align_pairs, _alignment_model, _member_floats

from conftest import factor_cohort, random_point, random_rank_point, random_tangent
from reference import (
    _tangent_basis,
    dense_alignment_hessian,
    dense_row_mean_hessian,
    procrustes,
    so_basis,
    solver_work,
    sphere_dist,
    sphere_exp,
)


# validation -----------------------------------------------------------------


def test_check_unit_rows_accepts_and_rejects():
    X = np.eye(3)
    assert np.array_equal(check_unit_rows(X), X)
    with pytest.raises(InvalidInput):
        check_unit_rows(np.array([[1.0, 0.0], [2.0, 0.0]]))
    with pytest.raises(InvalidInput):
        check_unit_rows(np.ones((3, 1)))  # k must be at least 2


def test_unit_rows_normalizes():
    A = np.array([[3.0, 4.0], [0.0, 2.0]])
    X = unit_rows(A)
    assert np.allclose(np.linalg.norm(X, axis=1), 1.0)
    with pytest.raises(InvalidInput):
        unit_rows(np.array([[1.0, 0.0], [1e-15, 0.0]]))


def test_product_tangent_rejects_nontangent():
    X = np.eye(2)
    with pytest.raises(InvalidInput):
        ProductTangent(X, np.eye(2))  # radial rows


# distance --------------------------------------------------------------------


def test_ps_dist_single_moved_row():
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    Y = np.array([[0.0, 1.0], [0.0, 1.0]])
    assert abs(ps_dist(X, Y) - np.pi / 2.0) < 1e-15


def test_ps_dist_two_quarter_turns():
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    Y = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert abs(ps_dist(X, Y) - np.pi / np.sqrt(2.0)) < 1e-15


def test_ps_dist_matches_row_norm_of_sphere_dists():
    rng = np.random.default_rng(12)
    X = random_point(rng, 5, 3)
    Y = random_point(rng, 5, 3)
    rows = [sphere_dist(X[i], Y[i]) for i in range(5)]
    assert abs(ps_dist(X, Y) - np.linalg.norm(rows)) < 1e-12


# metric / projection ----------------------------------------------------------


def test_ps_metric_is_entrywise_sum():
    rng = np.random.default_rng(4)
    X = random_point(rng, 4, 3)
    U = ps_project(X, rng.standard_normal((4, 3)))
    V = ps_project(X, rng.standard_normal((4, 3)))
    assert abs(ps_metric(U, V) - float(np.sum(U.vec * V.vec))) < 1e-14
    with pytest.raises(InvalidInput):
        ps_metric(U, ps_project(random_point(rng, 4, 3), V.vec * 0.0))


def test_ps_project_idempotent_and_tangent():
    rng = np.random.default_rng(5)
    X = random_point(rng, 6, 3)
    W = rng.standard_normal((6, 3))
    V = ps_project(X, W)
    assert np.max(np.abs(np.einsum("ij,ij->i", X, V.vec))) < 1e-12
    V2 = ps_project(X, V.vec)
    assert np.linalg.norm(V2.vec - V.vec) < 1e-12


# exp / log ---------------------------------------------------------------------


def test_ps_exp_zero_time():
    rng = np.random.default_rng(6)
    X = random_point(rng, 4, 3)
    V = random_tangent(rng, X)
    assert np.allclose(ps_exp(X, V, t=0.0), X)


def test_ps_exp_single_row_reduces_to_sphere():
    rng = np.random.default_rng(7)
    X = random_point(rng, 1, 4)
    V = random_tangent(rng, X, scale=0.8)
    Y = ps_exp(X, V)
    assert np.linalg.norm(Y[0] - sphere_exp(X[0], V[0])) < 1e-14


def test_ps_exp_initial_speed_matches_velocity_norm():
    rng = np.random.default_rng(8)
    X = random_point(rng, 5, 3)
    V = random_tangent(rng, X, scale=1.3)
    h = 1e-6
    speed = ps_dist(X, ps_exp(X, V, t=h)) / h
    assert abs(speed - np.linalg.norm(V)) < 1e-6


def test_ps_exp_negative_time_walks_the_great_circle_backwards():
    Y = ps_exp([[1.0, 0.0]], [[0.0, 1.0]], -1.0)
    assert np.abs(Y - [[np.cos(1.0), -np.sin(1.0)]]).max() <= 1e-15


def test_ps_log_round_trip():
    rng = np.random.default_rng(9)
    X = random_point(rng, 5, 3)
    Y = random_point(rng, 5, 3)
    V = ps_log(X, Y)
    assert np.linalg.norm(ps_exp(X, V.vec) - Y) < 1e-10
    assert abs(V.norm - ps_dist(X, Y)) < 1e-12


def test_ps_log_reports_antipodal_rows():
    X = np.eye(3)
    Y = np.array([[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]])
    with pytest.raises(AntipodalLogarithm) as exc:
        ps_log(X, Y)
    assert list(exc.value.rows) == [0, 2]


# gradient factor ----------------------------------------------------------------


def test_angle_factors_gradient_limit_and_cap():
    coef, _, clamped = _angle_factors(np.array([1.0]), np.array([0.0]))
    assert coef[0] == -2.0 and not clamped[0]
    # at theta = pi/2 the factor is -2 * (pi/2) / 1 = -pi
    coef, _, clamped = _angle_factors(np.array([0.0]), np.array([np.pi / 2.0]))
    assert abs(coef[0] + np.pi) < 1e-14 and not clamped[0]
    coef, _, clamped = _angle_factors(np.array([-1.0]), np.array([np.pi]))
    assert clamped[0] and np.isfinite(coef[0])


# fixed-rotation Frechet mean ------------------------------------------------------


def test_ps_frechet_identical_points():
    rng = np.random.default_rng(10)
    X = random_point(rng, 4, 3)
    mean, report = ps_frechet_fixed([X, X, X], [1.0, 2.0, 0.5])
    assert ps_dist(mean, X) < 1e-8
    assert report.converged and report.loss < 1e-12


def test_ps_frechet_two_orthogonal_vectors():
    a = np.array([[1.0, 0.0]])
    b = np.array([[0.0, 1.0]])
    mean, report = ps_frechet_fixed([a, b], [1.0, 1.0])
    target = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert np.linalg.norm(mean[0] - target) < 1e-8
    assert report.converged


def test_ps_frechet_matches_grid_scan():
    # three points inside a small spherical cap; scan a dense tangent grid
    rng = np.random.default_rng(11)
    c = np.array([[0.0, 0.0, 1.0]])
    pts = [ps_exp(c, random_tangent(rng, c, scale=0.3)) for _ in range(3)]
    w = np.array([1.0, 1.0, 2.0])
    mean, _ = ps_frechet_fixed(pts, w)

    def loss_at(x):
        return sum(wi * sphere_dist(x, p[0]) ** 2 for wi, p in zip(w, pts))

    best = loss_at(mean[0])
    grid = np.linspace(-0.4, 0.4, 81)
    for u in grid:
        for v in grid:
            y = np.array([u, v, np.sqrt(max(0.0, 1.0 - u * u - v * v))])
            y /= np.linalg.norm(y)
            assert best <= loss_at(y) + 1e-3


def test_ps_frechet_rejects_bad_weights():
    X = np.eye(2)
    with pytest.raises(InvalidInput):
        ps_frechet_fixed([X], [-1.0])
    with pytest.raises(InvalidInput):
        ps_frechet_fixed([X], [0.0])


def test_clamped_rows_are_reported_as_ints():
    # row 0 of the two samples is antipodal and the other row agrees: the
    # row mean starts on the first sample's row (the weighted mean is
    # zero), the joint solve from the first sample with identity rotations,
    # and a one-start search of two rank-1 factors whose Procrustes start
    # carries row 1 onto its antipode. Each point has a zero gradient and
    # the antipodal row clamped, and each report names that row. None is a
    # minimum (the row means reach pi^2/4 at any point at angle pi/2 from
    # both rows, the search pi^2/2), so none is reported converged
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    Y = np.array([[-1.0, 0.0], [0.0, 1.0]])
    _, fixed = ps_frechet_fixed([X, Y], [0.5, 0.5])
    _, _, joint = frechet._joint_solve(
        np.stack([X, Y]), np.array([0.5, 0.5]), 0, X, np.stack([np.eye(2)] * 2), DEFAULT_CONFIG
    )
    A, B = np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([[1.0, 0.0], [-1.0, 0.0]])
    search = align(A, B, DEFAULT_CONFIG.with_(restarts=1))
    assert fixed.clamped_rows == joint.clamped_rows == (0,)
    assert search.clamped_rows == (1,)
    for report in (fixed, joint, search):
        assert all(type(j) is int for j in report.clamped_rows)
        assert report.grad_norm <= DEFAULT_CONFIG.grad_tol and not report.converged
    assert abs(fixed.loss - np.pi**2 / 2) < 1e-12 and abs(joint.loss - np.pi**2 / 2) < 1e-12
    assert abs(search.loss - np.pi**2) < 1e-12


# lockstep trust-region stacks ---------------------------------------------------


def _check_members_solve_alone(model_of, retract, starts, tol):
    """Solve starts as one stack and each member as a stack of one; compare.

    model_of(sel) returns the model of the members selected by the slice
    sel. Returns the stack's iteration counts.
    """
    stack = _trust_region(model_of(slice(None)), retract, starts, DEFAULT_CONFIG)
    for j in range(len(starts)):
        model = model_of(slice(j, j + 1))
        alone = _trust_region(model, retract, starts[j : j + 1], DEFAULT_CONFIG)
        assert np.abs(stack[0][j] - alone[0][0]).max() <= tol
        assert abs(stack[1][j] - alone[1][0]) <= tol
        # iterations, converged, stagnated, clamped
        assert [a[j].tolist() for a in stack[3:]] == [a[0].tolist() for a in alone[3:]]
    return stack[3].tolist()


def test_trust_region_stack_member_matches_solve_alone():
    # every member of a lockstep stack follows the iterates of a stack of
    # one, so radius, floored and done must be the member's own
    rng = np.random.default_rng(44)
    iterations = set()
    for m, k in ((5, 2), (6, 3), (10, 3), (15, 5)):
        for r in sorted({1, k - 1, k}):
            X = random_rank_point(rng, m, k, r)
            Y = random_point(rng, m, k)
            starts = [procrustes(X, Y)] + [random_orthogonal(k, rng) for _ in range(5)]
            model, retract = _alignment_model(X, Y)
            iterations.update(
                _check_members_solve_alone(
                    lambda sel: model, retract, np.stack(starts), 0.0
                )
            )

    for m, n, k, spread in ((6, 4, 3, 0.2), (9, 5, 4, 1.0), (12, 3, 2, 3.0)):
        center = random_point(rng, m, k)
        clouds = np.stack(
            [unit_rows(center + spread * rng.standard_normal((m, k))) for _ in range(n)],
            axis=1,
        )
        w = rng.uniform(0.5, 2.0, n)
        _, retract = _row_mean_model(clouds, w)
        iterations.update(
            _check_members_solve_alone(
                lambda sel: _row_mean_model(clouds[sel], w)[0],
                retract,
                random_point(rng, m, k),
                1e-14,
            )
        )
    # members that stop at different iterations exercise the active set
    assert len(iterations) > 3


def test_one_member_solve_copies_no_model_state(monkeypatch):
    # while every member is active the loop hands the stack's own arrays to
    # the truncated CG, and a step that every member takes replaces the
    # model whole: a stack of one never indexes or assigns its Hessians
    rng = np.random.default_rng(51)
    m, k = 8, 4
    X, Y = random_point(rng, m, k), random_point(rng, m, k)
    reps = np.stack([random_point(rng, m, k) for _ in range(4)])
    (r,) = _align_pairs([reps[1]], [reps[0]])
    rotations = np.stack([np.eye(k), r.rotation, random_orthogonal(k, rng), np.eye(k)])
    starts = np.stack([random_orthogonal(k, rng) for _ in range(4)])

    calls = []
    getitem, setitem = _HessianOp.__getitem__, _HessianOp.__setitem__

    def counted_getitem(self, members):
        calls.append("get")
        return getitem(self, members)

    def counted_setitem(self, members, other):
        calls.append("set")
        setitem(self, members, other)

    monkeypatch.setattr(_HessianOp, "__getitem__", counted_getitem)
    monkeypatch.setattr(_HessianOp, "__setitem__", counted_setitem)
    model, retract = _alignment_model(X[None], Y[None])
    it = _trust_region(model, retract, starts[:1], DEFAULT_CONFIG)[3]
    assert it[0] > 3 and calls == []
    _, _, inner = frechet._joint_solve(
        reps, np.full(4, 0.25), 0, reps[0], rotations, DEFAULT_CONFIG
    )
    assert inner.iterations > 3 and calls == []

    # the counters do see a stack whose members stop at different iterations
    model, retract = _alignment_model(np.stack([X] * 4), np.stack([Y] * 4))
    it = _trust_region(model, retract, starts, DEFAULT_CONFIG)[3]
    assert len(set(it)) > 1 and "get" in calls and "set" in calls


def test_align_stack_pair_matches_pair_solved_alone():
    # a pair in a multi-pair stack follows the iterates it would follow in a
    # stack of its own: same rotation and loss, bit for bit, same flags; its
    # first start is the Procrustes rotation, so a one-start search is a
    # one-member trust-region solve from procrustes(A, B), (A, B) the pair
    # in the order of its bytes, reported transposed when that is (Y, X)
    rng = np.random.default_rng(45)
    cfg = DEFAULT_CONFIG
    one_start = cfg.with_(restarts=1)
    iterations, swaps = set(), set()
    for m, k in ((5, 2), (6, 3), (10, 3), (15, 5)):
        ranks = sorted({1, k - 1, k})
        Xs = np.stack([random_rank_point(rng, m, k, r) for r in ranks for _ in ranks])
        Ys = np.stack([random_rank_point(rng, m, k, r) for _ in ranks for r in ranks])
        extra = [[random_orthogonal(k, rng)] for _ in Xs]
        for p, r in enumerate(_align_pairs(Xs, Ys, cfg, extra)):
            (alone,) = _align_pairs(Xs[p : p + 1], Ys[p : p + 1], cfg, extra[p : p + 1])
            assert np.array_equal(r.rotation, alone.rotation)
            assert r.loss == alone.loss
            assert (r.iterations, r.converged, r.stagnated, r.clamped_rows) == (
                alone.iterations,
                alone.converged,
                alone.stagnated,
                alone.clamped_rows,
            )
            assert r.restarts_used == 2 * cfg.restarts
            iterations.add(r.iterations)

            (first,) = _align_pairs(Xs[p : p + 1], Ys[p : p + 1], one_start, [[]])
            swap = Ys[p].tobytes() < Xs[p].tobytes()
            A, B = (Ys[p], Xs[p]) if swap else (Xs[p], Ys[p])
            model, retract = _alignment_model(A[None], B[None])
            O, loss, _, it, *_ = _trust_region(model, retract, procrustes(A, B)[None], one_start)
            assert np.array_equal(first.rotation, O[0].T if swap else O[0])
            swaps.add(swap)
            assert (first.loss, first.iterations, first.restarts_used) == (loss[0], it[0], 1)
    assert len(iterations) > 3 and swaps == {False, True}


def test_retirement_never_crosses_pairs():
    # a rank-1 pair whose two starts both sit on the cut locus (the Procrustes
    # rotation, and that rotation turned about the target direction) runs
    # more than 30 iterations, and beside a pair of one orbit, whose
    # Procrustes start certifies its minimum and retires its other start
    # after one iteration, it gives the same rotation, loss, iterations and
    # retirements bit for bit: a start is retired only for a sibling of its
    # own pair
    rng = np.random.default_rng(53)
    cfg = DEFAULT_CONFIG.with_(restarts=1)
    X, Y = random_rank_point(rng, 6, 3, 1), random_rank_point(rng, 6, 3, 1)
    P = procrustes(X, Y)
    v = Y[0]
    turn = scipy.linalg.expm(np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]]))
    (alone,) = _align_pairs(X[None], Y[None], cfg, [[P @ turn]])
    assert alone.iterations > 30
    X2 = random_point(rng, 6, 3)
    Y2 = X2 @ random_orthogonal(3, rng)
    extra = [[P @ turn], [random_orthogonal(3, rng)]]
    r, same = _align_pairs(np.stack([X, X2]), np.stack([Y, Y2]), cfg, extra)
    assert (same.retired, same.iterations) == (1, 1)
    assert np.array_equal(r.rotation, alone.rotation) and r.loss == alone.loss
    assert (r.iterations, r.retired) == (alone.iterations, alone.retired)


def test_align_pairs_chunks_match_one_solve(monkeypatch):
    # a batch cut into chunks of whole pairs gives the one-solve results bit
    # for bit, and every chunk is within the float budget or holds exactly
    # one pair, also under a budget smaller than one pair's stack
    rng = np.random.default_rng(46)
    cfg = DEFAULT_CONFIG
    m, k = 6, 3
    Xs = np.stack([random_rank_point(rng, m, k, r) for r in (1, 2, 3, 3, 2)])
    Ys = np.stack([random_rank_point(rng, m, k, r) for r in (3, 3, 2, 1, 3)])
    extra = [[random_orthogonal(k, rng)] for _ in Xs]
    R = 2 * cfg.restarts
    whole = list(_align_pairs(Xs, Ys, cfg, extra))

    sizes = []

    def counted(*args):
        sizes.append(len(args[2]))
        return _trust_region(*args)

    monkeypatch.setattr(quotient_space, "_trust_region", counted)
    for budget, expect in (
        (2 * R * _member_floats(m, k), [2 * R, 2 * R, R]),
        (R * _member_floats(m, k) - 1, [R] * 5),
    ):
        sizes.clear()
        monkeypatch.setattr(quotient_space, "_STACK_FLOATS", budget)
        chunked = list(_align_pairs(Xs, Ys, cfg, extra))
        assert sizes == expect
        assert all(s * _member_floats(m, k) <= budget or s == R for s in sizes)
        for a, b in zip(whole, chunked, strict=True):
            assert np.array_equal(a.rotation, b.rotation)
            assert np.array_equal(a.aligned, b.aligned)
            assert (a.loss, a.grad_norm, a.iterations, a.converged) == (
                b.loss,
                b.grad_norm,
                b.iterations,
                b.converged,
            )
            assert (a.restarts_used, a.stagnated, a.clamped_rows) == (
                b.restarts_used,
                b.stagnated,
                b.clamped_rows,
            )


def test_align_pairs_yields_each_chunk_as_it_is_solved(monkeypatch):
    # with one pair per chunk, the first result of a 3-pair batch is yielded
    # after one solve, and each later one after one more, bit for bit the
    # results of the batch solved in one chunk
    rng = np.random.default_rng(47)
    m, k = 6, 3
    Xs = [random_point(rng, m, k) for _ in range(3)]
    Ys = [random_point(rng, m, k) for _ in range(3)]
    whole = list(_align_pairs(Xs, Ys))
    solves = []

    def counted(*args):
        solves.append(len(args[2]))
        return _trust_region(*args)

    monkeypatch.setattr(quotient_space, "_trust_region", counted)
    monkeypatch.setattr(quotient_space, "_STACK_FLOATS", 1)
    pairs = _align_pairs(Xs, Ys)
    assert solves == []
    for p, r in enumerate(pairs):
        assert len(solves) == p + 1
        assert np.array_equal(r.rotation, whole[p].rotation) and r.loss == whole[p].loss
    # one pair's Procrustes start, random starts and their transposes per solve
    assert solves == [2 * DEFAULT_CONFIG.restarts - 1] * 3


# Hessian-vector products --------------------------------------------------------


def _product_error(H, D, rng, B):
    """Largest relative error of H @ d against the dense D @ d, over random d.

    D is in the coordinates of the orthonormal basis B (columns) of the
    tangent space, H acts on ambient vectors: H's coordinate product is
    B^T H B d.
    """
    d = rng.standard_normal((4, D.shape[0]))
    scale = np.linalg.norm(D, 2) * np.linalg.norm(d, axis=1)
    return float(np.max(np.linalg.norm((H @ (d @ B.T)) @ B - d @ D.T, axis=1) / scale))


def test_alignment_hessian_products_match_dense_oracle():
    # H d of the alignment model, one pair and a stack of members, and the
    # operator densified, against the dense K x K Hessian in the basis E_p
    rng = np.random.default_rng(47)
    for k in (2, 3, 5, 8, 12):
        m = k + 3
        B = so_basis(k).reshape(-1, k * k).T
        for r in sorted({1, max(1, k // 2), k}):
            X = random_rank_point(rng, m, k, r)
            Y = random_point(rng, m, k)
            Os = np.stack([random_orthogonal(k, rng) for _ in range(3)])
            dense = [dense_alignment_hessian(X, Y, O) for O in Os]
            H = _alignment_model(X, Y)[0](Os[0])[2]
            assert _product_error(H, dense[0], rng, B) <= 1e-12
            assert np.abs(B.T @ np.asarray(H) @ B - dense[0]).max() <= 1e-12 * np.abs(dense[0]).max()
            model = _alignment_model(np.stack([X] * 3), np.stack([Y] * 3))[0]
            Hs = model(Os, np.arange(3))[2]
            for j in range(3):
                assert _product_error(Hs[[j]], dense[j], rng, B) <= 1e-12


def test_row_mean_hessian_products_match_dense_oracle():
    rng = np.random.default_rng(48)
    for k in (2, 3, 5, 8, 12):
        m, n = 4, 6
        clouds = np.stack([random_rank_point(rng, n, k, min(k, 3)) for _ in range(m)])
        w = rng.uniform(0.5, 2.0, n)
        x = random_point(rng, m, k)
        model = _row_mean_model(clouds, w)[0]
        H = model(x, np.arange(m))[2]
        for j in range(m):
            D = dense_row_mean_hessian(clouds[j], w, x[j])
            B = _tangent_basis(x[j])
            assert _product_error(H[[j]], D, rng, B) <= 1e-12
            single = _row_mean_model(clouds[j], w)[0](x[j])[2]
            assert np.abs(B.T @ np.asarray(single) @ B - D).max() <= 1e-12 * np.abs(D).max()


def test_zero_gradient_member_takes_no_step():
    # a member started where its gradient is exactly zero gets an exactly
    # zero step (no 0/0 in the CG recurrences, which would reach cayley as
    # NaN) and stays put, while the rest of its stack iterates as alone.
    # Row means: row 0's samples and start are all e_0.
    rng = np.random.default_rng(49)
    m, n, k = 4, 5, 3
    clouds = np.stack([random_point(rng, n, k) for _ in range(m)])
    clouds[0] = np.eye(k)[0]
    w = rng.uniform(0.5, 2.0, n)
    x0 = random_point(rng, m, k)
    x0[0] = np.eye(k)[0]
    model, retract = _row_mean_model(clouds, w)
    _, g, H, _ = model(x0, np.arange(m))
    assert not g[0].any() and g[1:].all()
    gn = np.linalg.norm(g, axis=1)
    s, pred = _truncated_cg(H, g, gn, np.ones(m))
    assert not s[0].any() and pred[0] == 0.0
    assert np.all(np.linalg.norm(s[1:], axis=1) > 0.0) and np.all(pred[1:] > 0.0)

    x, loss, gn, it, conv, stag, *_ = _trust_region(model, retract, x0, DEFAULT_CONFIG)
    assert np.array_equal(x[0], x0[0])
    assert (loss[0], gn[0], it[0], conv[0], stag[0]) == (0.0, 0.0, 1, True, False)
    assert it[1:].max() > 1
    _check_members_solve_alone(
        lambda sel: _row_mean_model(clouds[sel], w)[0], retract, x0, 1e-14
    )

    # alignment: X = Y = I started at O = I, where A = 0, beside random starts
    k = 4
    model, retract = _alignment_model(np.eye(k), np.eye(k))
    starts = np.stack([np.eye(k)] + [random_orthogonal(k, rng) for _ in range(3)])
    _, g, _, _ = model(starts, np.arange(4))
    assert not g[0].any() and g[1:].any(axis=1).all()
    O, loss, gn, it, conv, stag, *_ = _trust_region(model, retract, starts, DEFAULT_CONFIG)
    assert np.array_equal(O[0], np.eye(k))
    assert (loss[0], gn[0], it[0], conv[0], stag[0]) == (0.0, 0.0, 1, True, False)
    _check_members_solve_alone(lambda sel: model, retract, starts, 0.0)


def _recorded(model, retract):
    """model and retract that also record every gradient and every (point, step)."""
    grads, steps = [], []

    def recorded_model(x, members=None):
        out = model(x, members)
        grads.append(out[1])
        return out

    def recorded_retract(x, s):
        steps.append((x.copy(), s.copy()))
        return retract(x, s)

    return recorded_model, recorded_retract, grads, steps


def _row_offsets(x, s):
    """Largest |s_r . x_r| over the rows, relative to the norm of the step."""
    return np.abs(np.einsum("...k,...k->...", x, s)).max() / np.linalg.norm(s)


def test_ambient_iterates_stay_tangent():
    # the trust-region iterates are ambient tangent vectors: every step and
    # every gradient of the alignment model is skew bit for bit, row steps
    # are orthogonal to their rows to 1e-14 relative, and the pinned block of
    # every joint step is exactly zero; the stacks mix ranks 1, k - 1 and k
    rng = np.random.default_rng(54)
    for m, k in ((6, 3), (8, 4), (10, 5)):
        ranks = sorted({1, k - 1, k})
        Xs = np.stack([random_rank_point(rng, m, k, r) for r in ranks for _ in range(3)])
        Ys = np.stack([random_rank_point(rng, m, k, r) for _ in range(3) for r in ranks])
        starts = np.stack([procrustes(X, Y) for X, Y in zip(Xs, Ys)])
        model, retract, grads, steps = _recorded(*_alignment_model(Xs, Ys))
        it = _trust_region(model, retract, starts, DEFAULT_CONFIG)[3]
        assert it.max() > 3 and len(steps) == it.max()
        for W in grads + [s for _, s in steps]:
            W = W.reshape(-1, k, k)
            assert np.array_equal(W, -np.swapaxes(W, -1, -2))

        # row means of clouds of each rank
        clouds = np.stack([random_rank_point(rng, 6, k, r) for r in ranks for _ in range(m)])
        w = rng.uniform(0.5, 2.0, 6)
        model, retract, grads, steps = _recorded(*_row_mean_model(clouds, w))
        _trust_region(model, retract, random_point(rng, len(clouds), k), DEFAULT_CONFIG)
        assert len(steps) > 3
        for x, s in steps:
            assert _row_offsets(x, s) <= 1e-14

        # the joint Frechet model, one sample of each rank, sample 0 pinned
        reps = np.stack([random_rank_point(rng, m, k, r) for r in ranks])
        n = len(reps)
        rotations = np.stack([random_orthogonal(k, rng) for _ in range(n)])
        x0 = np.concatenate([random_point(rng, m, k), rotations.reshape(n * k, k)])[None]
        model, retract, grads, steps = _recorded(*frechet._joint_model(reps, np.full(n, 1.0 / n), 0))
        _trust_region(model, retract, x0, DEFAULT_CONFIG)
        assert len(steps) > 3
        for x, s in steps:
            a, W = s[0, : m * k].reshape(m, k), s[0, m * k :].reshape(n, k, k)
            assert _row_offsets(x[0, :m], a) <= 1e-14
            assert not W[0].any() and W[1:].any()
            assert np.array_equal(W, -np.swapaxes(W, -1, -2))
        for g in grads:
            W = g[0, m * k :].reshape(n, k, k)
            assert not W[0].any() and np.array_equal(W, -np.swapaxes(W, -1, -2))


def test_model_and_product_memory_at_width_60():
    # the models hold no K x K matrix: at m = k = 60 (K = 1770) a dense
    # Hessian alone is 25 MB, one evaluation plus one product stays below 1 MB
    rng = np.random.default_rng(50)
    m = k = 60
    X, Y = random_point(rng, m, k), random_point(rng, m, k)
    O = random_orthogonal(k, rng)
    d = rng.standard_normal(k * k)
    tracemalloc.start()
    try:
        model = _alignment_model(X, Y)[0]
        _, g, H, _ = model(O)
        Hd = H @ d
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert Hd.shape == g.shape == d.shape
    assert peak < 2**20


def test_model_and_product_memory_at_the_papers_width():
    # at the 116 regions of the paper's atlas (K = 6670) an m x K matrix
    # alone would be 6 MB; the model holds O(m k + k^2) floats, and one
    # evaluation plus one product stays below 2 MB
    rng = np.random.default_rng(52)
    m = k = 116
    X, Y = random_point(rng, m, k), random_point(rng, m, k)
    O = random_orthogonal(k, rng)
    d = rng.standard_normal(k * k)
    tracemalloc.start()
    try:
        model = _alignment_model(X, Y)[0]
        _, g, H, _ = model(O)
        Hd = H @ d
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert Hd.shape == g.shape == d.shape
    assert peak < 2 * 2**20


# the inexact-Newton floor ---------------------------------------------------------


def test_truncated_cg_stops_at_the_floor():
    # the CG target is max(|g| min(|g|, 0.1), floor): a member at or below
    # the floor gets an exactly zero step and drives no product, and a
    # member above it stops within its target. Row means of tight clouds at
    # k = 12 (positive definite models of 11 dimensions, radius far beyond
    # the steps), their gradients scaled across the floor
    rng = np.random.default_rng(53)
    m, n, k = 8, 6, 12
    center = random_point(rng, m, k)
    clouds = np.stack(
        [unit_rows(center + 0.1 * rng.standard_normal((m, k))) for _ in range(n)], axis=1
    )
    model, _ = _row_mean_model(clouds, rng.uniform(0.5, 2.0, n))
    _, g, H, _ = model(center, np.arange(m))
    floor = CG_FLOOR * DEFAULT_CONFIG.grad_tol
    gn = np.array([0.0, 1e-3, 0.5, 1.5, 10.0, 1e2, 1e6, 1e7]) * floor
    g *= (gn / np.linalg.norm(g, axis=1))[:, None]
    radius = np.full(m, 1e3)
    above = gn > floor
    with solver_work() as work:
        s, pred = _truncated_cg(H[~above], g[~above], gn[~above], radius[~above], floor)
    assert not s.any() and not pred.any() and work.calls == 0
    with solver_work() as needed:
        _truncated_cg(H[above], g[above], gn[above], radius[above], floor)
    with solver_work() as work:
        s, _ = _truncated_cg(H, g, gn, radius, floor)
    assert not s[~above].any() and np.all(np.linalg.norm(s[above], axis=1) > 0.0)
    assert work.calls == needed.calls > 0
    residual = np.linalg.norm(g + H @ s, axis=1)
    target = np.maximum(gn * np.minimum(gn, 0.1), floor)
    assert np.all(residual[above] <= target[above])
    assert np.all(np.linalg.norm(s, axis=1) < radius)


def _stepped_gradients(model, retract):
    """model and retract that record every retraction of every member.

    Returns them with the list of records (member, gradient norm at the
    point it is stepped from, its step, the member's iteration, from 1),
    filled as the solve runs.
    """
    grad_at, iters, records, pending = {}, {}, [], []

    def recorded_model(x, members):
        out = model(x, members)
        gn = np.linalg.norm(out[1], axis=1)
        for j, member in enumerate(members):
            if pending:
                xa, s = pending[0]
                iters[member] = iters.get(member, 0) + 1
                records.append((member, grad_at[member, xa[j].tobytes()], s[j], iters[member]))
            grad_at[member, x[j].tobytes()] = gn[j]
        pending.clear()
        return out

    def recorded_retract(x, s):
        pending.append((x.copy(), s.copy()))
        return retract(x, s)

    return recorded_model, recorded_retract, records


def _stepped_from_floor(records, floor):
    """Whether some member is stepped from an accepted gradient at or below
    floor, other than by the zero step of its first iteration."""
    return any(gn <= floor and (it > 1 or s.any()) for _, gn, s, it in records)


def test_no_member_is_stepped_from_the_floor():
    # a member whose accepted gradient is at or below CG_FLOOR * grad_tol
    # stops in that iteration: it is never stepped or retracted again. A
    # start already there keeps its single zero step. Alignment, row-mean
    # and joint stacks of mixed ranks
    rng = np.random.default_rng(55)
    floor = CG_FLOOR * DEFAULT_CONFIG.grad_tol
    reached = 0
    for m, k in ((6, 3), (8, 4)):
        ranks = (1, k - 1, k)
        pairs = [(random_rank_point(rng, m, k, r), random_point(rng, m, k)) for r in ranks]
        Xs, Ys = (np.repeat(np.stack(a), 4, axis=0) for a in zip(*pairs))
        starts = np.stack([random_orthogonal(k, rng) for _ in range(len(Xs))])
        alignment = _alignment_model(Xs, Ys)

        # row means, row 0 started at its samples' common row (gradient 0)
        clouds = np.stack([random_rank_point(rng, 6, k, r) for r in ranks for _ in range(m)])
        clouds[0] = np.eye(k)[0]
        rows0 = random_point(rng, len(clouds), k)
        rows0[0] = np.eye(k)[0]
        row_means = _row_mean_model(clouds, rng.uniform(0.5, 2.0, 6))

        reps = np.stack([random_rank_point(rng, m, k, r) for r in ranks])
        rotations = np.stack([random_orthogonal(k, rng) for _ in ranks])
        joint0 = np.concatenate([random_point(rng, m, k), rotations.reshape(-1, k)])[None]
        joint = frechet._joint_model(reps, np.full(len(ranks), 1.0 / len(ranks)), 0)

        for (model, retract), x0 in ((alignment, starts), (row_means, rows0), (joint, joint0)):
            model, retract, records = _stepped_gradients(model, retract)
            _, _, gn, it, *_ = _trust_region(model, retract, x0, DEFAULT_CONFIG)
            assert records and not _stepped_from_floor(records, floor)
            reached += np.count_nonzero((gn <= floor) & (it > 1))
            if x0 is rows0:
                assert [(gn, it) for member, gn, _, it in records if member == 0] == [(0.0, 1)]
    assert reached > 10


def test_converged_members_drive_no_cg_iteration(monkeypatch):
    # on one cohort-shaped stack (4 subjects x 8 variables, T = 200: the 6
    # pairs' rotation searches in one stack), run unstaged (every start
    # steps from the first iteration), every lockstep CG iteration is one
    # that a member with its gradient above grad_tol needs: the same CG
    # solve without the members at or below grad_tol takes as many
    # products. Staged (each pair's Procrustes start first, the random
    # starts waiting), the stack takes no more member products
    factors = factor_cohort(np.random.default_rng(56), 8, 8, 200, 4, spread=1.0, noise=0.0)
    pairs = list(zip(*itertools.combinations(factors, 2)))
    with solver_work() as staged:
        list(_align_pairs(*pairs))
    monkeypatch.setattr(quotient_space, "START_TOL", 0.0)
    with solver_work() as unstaged:
        list(_align_pairs(*pairs))
    assert staged.products <= unstaged.products
    excess = []

    def counted_cg(H, g, gn, radius, *floor):
        with solver_work() as work:
            out = _truncated_cg(H, g, gn, radius, *floor)
        busy = gn > DEFAULT_CONFIG.grad_tol
        with solver_work() as needed:
            if busy.any():
                _truncated_cg(H[busy], g[busy], gn[busy], radius[busy], *floor)
        excess.append(work.calls - needed.calls)
        return out

    monkeypatch.setattr(product_sphere, "_truncated_cg", counted_cg)
    with solver_work() as work:
        results = list(_align_pairs(*pairs))
    assert all(r.converged for r in results)
    assert len(excess) == work.iterations and work.calls > 50
    assert not any(excess)
