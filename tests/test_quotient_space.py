import dataclasses
import itertools

import numpy as np
import pytest

from corrgeo import (
    DEFAULT_CONFIG,
    AlignmentStagnation,
    GeodesicSegment,
    HorizontalTangent,
    InvalidInput,
    OrbitPoint,
    ProductTangent,
    SolverReport,
    align,
    factorize,
    frechet_mean,
    frechet_variance,
    geodesic_rank_profile,
    gram,
    horizontal_project,
    horizontality_defect,
    k_embedding,
    max_full_rank_interval,
    numerical_rank,
    orbit_dist,
    orbit_equal,
    orbit_exp,
    orbit_log,
    ps_dist,
    ps_exp,
    ps_frechet_fixed,
    ps_metric,
    quotient_metric,
    random_orthogonal,
    unit_rows,
    vertical_project,
)

from corrgeo import product_sphere, quotient_space
from corrgeo.fixed_rank import HORIZ_TOL
from corrgeo.product_sphere import MAX_ITERS, TIME_BOUND, Solve, _trust_region
from corrgeo.quotient_space import (
    _align_pairs,
    _alignment_model,
    _start_rule,
    _unordered_starts,
)

from conftest import (
    counterexample_pair,
    factor_cohort,
    random_point,
    random_rank_point,
    random_tangent,
)
from reference import (
    align_every_start,
    align_random_starts,
    alignment_certified,
    dense_first_drop,
    o2_grid_distance,
    procrustes,
    tiled_path,
)

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


def test_align_is_the_search_of_orbit_dist():
    # align searches the unordered pair from orbit_dist's starts, so its loss
    # is the squared distance and swapping the arguments transposes the
    # rotation, bit for bit; 200 seeds reach pairs with several basins
    for s in range(200):
        rng = np.random.default_rng(s)
        X, Y = random_point(rng, 15, 2), random_point(rng, 15, 2)
        r = align(X, Y)
        assert np.sqrt(r.loss) == orbit_dist(X, Y)
        assert np.array_equal(align(Y, X).rotation, r.rotation.T)
        assert r.restarts_used == 2 * DEFAULT_CONFIG.restarts - 1


def _recording_trust_region(monkeypatch, edit=None):
    """Wrap the rotation search's solver and start rule; returns the list of
    the solver's outputs, each followed by the rule's retired mask (one
    entry per start).

    edit(out), when given, may change an output before align reads it.
    """
    outputs, masks = [], []

    def rule(*args):
        idle, retired = _start_rule(*args)
        masks.append(retired)
        return idle, retired

    def recorded(*args):
        out = (*_trust_region(*args), masks[-1].reshape(-1))
        if edit is not None:
            edit(out)
        outputs.append(out)
        return Solve(*out[:-1])

    monkeypatch.setattr(quotient_space, "_start_rule", rule)
    monkeypatch.setattr(quotient_space, "_trust_region", recorded)
    return outputs


def test_cut_locus_procrustes_start_is_retired(monkeypatch):
    # two rank-1 factors: the Procrustes start carries one row direction onto
    # the other, so the rows of opposite sign agreement are antipodal
    # (clamped). Iterated, that start takes more than 30 lockstep iterations
    # while the random starts reach the same loss in at most 5; retired as
    # soon as one of them stops certified, it runs no longer than they do
    rng = np.random.default_rng(0)
    X, Y = random_rank_point(rng, 6, 3, 1), random_rank_point(rng, 6, 3, 1)
    loss, _, iterations = align_every_start(X, Y)
    assert iterations > 30
    outputs = _recording_trust_region(monkeypatch)
    r = align(X, Y)
    (out,) = outputs
    assert out[3].max() == out[3][~out[7]].max() <= 5
    assert out[7][0] and r.retired >= 1
    assert abs(np.sqrt(r.loss) - np.sqrt(loss)) <= 1e-12


def test_rank_deficient_pair_retires_on_aligned_rows(monkeypatch):
    # a first factor of rank 2 at k = 4 leaves the rotation free on the
    # plane its rows do not span: the loss depends on O only through X O,
    # so the minimizers form a continuum of rotations with one set of
    # aligned rows. The certificate depends on O only through X O as well,
    # so it retires starts bound for that set at rotations far from the
    # winner's. Whenever the certificate lands, each retired start, run on
    # alone without one, ends no lower than the winner, and one of them
    # converges onto the winner's aligned rows at a rotation far from the
    # winner's
    rng = np.random.default_rng(10)
    X, Y = random_rank_point(rng, 7, 4, 3), random_rank_point(rng, 7, 4, 2)
    swap = Y.tobytes() < X.tobytes()
    A, B = (Y, X) if swap else (X, Y)
    assert numerical_rank(A) == 2
    loss, _, _ = align_every_start(X, Y)
    outputs, calls = _recording_trust_region(monkeypatch), []
    solve = quotient_space._trust_region

    def recorded(*args):
        calls.append(np.array(args[2]))
        return solve(*args)

    monkeypatch.setattr(quotient_space, "_trust_region", recorded)
    r = align(X, Y)
    ((starts,), (out,)) = calls, outputs
    searched = r.rotation.T if swap else r.rotation
    model, retract = _alignment_model(A, B)
    far_apart_same_rows = []
    for j in np.flatnonzero(out[7]):
        alone = _trust_region(model, retract, starts[j : j + 1], DEFAULT_CONFIG)
        O, loss_j, conv = alone[0], alone[1], alone[4]
        assert loss_j[0] >= r.loss - 1e-12 * max(1.0, r.loss)
        far_apart_same_rows.append(
            conv[0]
            and np.linalg.norm(O[0] - searched) >= 0.1
            and np.linalg.norm(A @ (O[0] - searched)) <= 1e-6
        )
    assert any(far_apart_same_rows) and r.retired >= 1
    assert abs(r.loss - loss) <= 1e-12 * max(1.0, loss)


def test_mixed_rank_corpus_winners_converge():
    # 300 pairs of mixed shapes and ranks: every winner converges, and none
    # fails the CLI's verdict. Winner 194 used to stall at the rounding
    # floor at gradient 2.65e-8, chasing a CG residual of |g|^2 below the
    # rounding of its flat directions
    rng = np.random.default_rng(11)
    for i in range(300):
        m = int(rng.integers(4, 13))
        k = int(rng.integers(2, min(6, m) + 1))
        rx, ry = (int(r) for r in rng.integers(1, k + 1, size=2))
        r = align(random_rank_point(rng, m, k, rx), random_rank_point(rng, m, k, ry))
        assert r.converged and not r.failed(DEFAULT_CONFIG.stagnation_tol), i


def test_retired_starts_match_every_start_oracle(monkeypatch):
    # against the search that iterates every start to its own stop: the
    # same loss, a winner that was never retired (also when a retired start
    # ties it exactly), and align(Y, X) still align(X, Y) transposed
    rng = np.random.default_rng(52)
    outputs = _recording_trust_region(monkeypatch)
    retired = 0
    for m, k in ((4, 2), (8, 2), (6, 3), (10, 4), (10, 10)):
        ranks = sorted({1, max(1, k // 2), k})
        for rx in ranks:
            for ry in ranks:
                X, Y = random_rank_point(rng, m, k, rx), random_rank_point(rng, m, k, ry)
                outputs.clear()
                r = align(X, Y)
                loss, _, _ = align_every_start(X, Y)
                assert abs(r.loss - loss) <= 1e-12 * max(1.0, loss)
                (out,) = outputs
                O, losses, it, conv, gone = (out[j] for j in (0, 1, 3, 4, 7))
                clamped = out[6].any(axis=1)
                searched = r.rotation.T if Y.tobytes() < X.tobytes() else r.rotation
                b = [j for j in range(len(O)) if np.array_equal(O[j], searched)]
                assert b and not gone[b[0]] and losses[b[0]] == r.loss
                assert r.retired == gone.sum()
                retired += r.retired
                # each retirement has its reason in its own pair: a sibling
                # that stopped in the same iteration, converged without
                # clamped rows, at a rotation that the factors alone certify
                # as the global minimum
                A, B = (Y, X) if Y.tobytes() < X.tobytes() else (X, Y)
                anchors = [
                    a
                    for a in np.flatnonzero(conv & ~clamped & ~gone)
                    if alignment_certified(A, B, O[a])
                ]
                # or, for a start that never ran, the Procrustes start (the
                # pair's one first start) certified
                for j in np.flatnonzero(gone):
                    assert any(it[a] == it[j] for a in anchors) or (it[j] == 0 and 0 in anchors)
                assert np.array_equal(align(Y, X).rotation, r.rotation.T)
    assert retired > 0

    # an exact tie: every retired start handed the winner's loss, the cut-locus
    # Procrustes start (the first start) among them
    rng = np.random.default_rng(0)
    X, Y = random_rank_point(rng, 6, 3, 1), random_rank_point(rng, 6, 3, 1)
    r = align(X, Y)

    def tie(out):
        loss, gone = out[1], out[7]
        loss[gone] = loss[~gone].min()

    monkeypatch.undo()
    outputs = _recording_trust_region(monkeypatch, tie)
    tied = align(X, Y)
    assert outputs[0][7][0] and outputs[0][1][0] == tied.loss
    assert np.array_equal(tied.rotation, r.rotation) and tied.loss == r.loss


# starts near their bound run first --------------------------------------------


def _stepped_starts(monkeypatch):
    """Wrap the rotation search's solver and start rule; returns, per solve,
    its block (the starts per pair), its waiting starts' mask, the members
    it stepped (evaluated after a retraction) and its output."""
    solves, rules = [], []

    def rule(n, R, wait):
        rules.append((R, wait))
        return _start_rule(n, R, wait)

    def recorded(model, *args):
        stepped = []

        def seen(x, members):
            stepped.append(members)
            return model(x, members)

        out = _trust_region(seen, *args)
        solves.append((*rules[-1], np.concatenate([[], *stepped[1:]]).astype(int), out))
        return out

    monkeypatch.setattr(quotient_space, "_start_rule", rule)
    monkeypatch.setattr(quotient_space, "_trust_region", recorded)
    return solves


def _same_search(a, b):
    """Whether two AlignmentResults are equal bit for bit, every field."""
    return all(
        np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
    )


def test_factor_cohort_steps_no_random_start(monkeypatch):
    # the cohort of test_converged_members_drive_no_cg_iteration: every pair
    # starts near its bound, so its random starts wait, and no random start
    # is ever stepped: each pair certifies from its Procrustes start, which
    # retires the others, and every result is bitwise the unstaged solve's
    factors = factor_cohort(np.random.default_rng(56), 8, 8, 200, 4, spread=1.0, noise=0.0)
    pairs = list(zip(*itertools.combinations(factors, 2)))
    solves = _stepped_starts(monkeypatch)
    staged = list(_align_pairs(*pairs))
    ((block, wait, stepped, _),) = solves
    assert stepped.size and not wait[stepped % block].any()
    for (X, Y), r in zip(itertools.combinations(factors, 2), staged):
        assert r.retired == r.restarts_used - 1 and alignment_certified(X, Y, r.rotation)
    # unstaged, the random starts step from the first iteration
    monkeypatch.setattr(quotient_space, "START_TOL", 0.0)
    solves.clear()
    unstaged = list(_align_pairs(*pairs))
    ((_, _, stepped, _),) = solves
    assert wait[stepped % block].any()
    assert all(_same_search(a, b) for a, b in zip(staged, unstaged, strict=True))


def test_paper_width_pairs_step_only_their_first_starts(monkeypatch):
    # 10 pairs of sample correlations at k = m = 40 (6 shared factors plus
    # unit noise, T = 300): each pair's Procrustes start certifies, so no
    # random start of any chunk is ever stepped
    factors = factor_cohort(np.random.default_rng(1), 40, 6, 300, 20)
    solves = _stepped_starts(monkeypatch)
    results = list(_align_pairs(factors[0::2], factors[1::2]))
    assert len(solves) > 1  # the batch runs in chunks
    for block, wait, stepped, _ in solves:
        assert stepped.size and not wait[stepped % block].any()
    assert all(r.retired == r.restarts_used - 1 and r.converged for r in results)


def test_clamped_first_start_fails_the_gate(monkeypatch):
    # the rank-1 pair of test_cut_locus_procrustes_start_is_retired: its
    # Procrustes start has clamped rows and a gap of about 4e7, so its random
    # starts step from the first iteration, and the search is bitwise the
    # unstaged one
    rng = np.random.default_rng(0)
    X, Y = random_rank_point(rng, 6, 3, 1), random_rank_point(rng, 6, 3, 1)
    A, B = (Y, X) if Y.tobytes() < X.tobytes() else (X, Y)
    loss, g, H, clamped = _alignment_model(A, B)[0](procrustes(A, B)[None], [0])
    G = H.state[3][0] + g[0].reshape(3, 3)
    gap = np.trace(G) + np.linalg.svd(G, compute_uv=False).sum()
    assert clamped.any() and gap > 1e7 * max(1.0, loss[0])
    solves = _stepped_starts(monkeypatch)
    r = align(X, Y)
    ((block, wait, stepped, _),) = solves
    assert set(np.flatnonzero(wait)) <= set(stepped[:block])
    monkeypatch.setattr(quotient_space, "START_TOL", 0.0)
    assert _same_search(r, align(X, Y))


def test_open_gate_matches_every_start_oracle(monkeypatch):
    # with the gate forced open every pair whose first start has no clamped
    # row runs it alone: either it certifies (its random starts never run)
    # or the random starts join. Either way the search ends within 1e-12 of
    # the every-start oracle, alone and in a batch of its shape, and
    # align(Y, X) is still align(X, Y) transposed
    monkeypatch.setattr(quotient_space, "START_TOL", np.inf)
    solves = _stepped_starts(monkeypatch)
    rng = np.random.default_rng(11)
    shapes = {}
    outcomes = set()
    for _ in range(300):
        m = int(rng.integers(4, 13))
        k = int(rng.integers(2, min(6, m) + 1))
        rx, ry = (int(r) for r in rng.integers(1, k + 1, size=2))
        X, Y = random_rank_point(rng, m, k, rx), random_rank_point(rng, m, k, ry)
        solves.clear()
        r = align(X, Y)
        ((block, wait, stepped, _),) = solves
        ran = wait[stepped % block].any()
        if not ran:
            assert r.retired == block - 1 and alignment_certified(X, Y, r.rotation)
        outcomes.add(ran)
        loss, _, _ = align_every_start(X, Y)
        assert abs(r.loss - loss) <= 1e-12 * max(1.0, loss)
        assert np.array_equal(align(Y, X).rotation, r.rotation.T)
        shapes.setdefault((m, k), []).append((X, Y, r))
    assert outcomes == {False, True}
    for batch in shapes.values():
        Xs, Ys, alone = zip(*batch)
        for a, b in zip(_align_pairs(Xs, Ys), alone, strict=True):
            assert _same_search(a, b)


@pytest.mark.parametrize("fn", [align, orbit_dist, orbit_log])
def test_bad_unit_rows_name_their_argument(fn):
    good = np.eye(2)
    bad = np.array([[2.0, 0.0], [0.0, 1.0]])
    with pytest.raises(InvalidInput, match="row 0 of Y has norm"):
        fn(good, bad)
    with pytest.raises(InvalidInput, match="row 0 of X has norm"):
        fn(bad, good)


# Each public entry point checks each input once; internal helpers take
# checked arrays. Per entry point: a call on two unit-row arguments, their
# names in the messages, and its message for a second argument of another
# shape (a, b the shapes of the first and the second).
ENTRY_POINTS = {
    "align": (align, ("X", "Y"), "shape mismatch {a} vs {b}"),
    "orbit_dist": (orbit_dist, ("X", "Y"), "shape mismatch {a} vs {b}"),
    "orbit_log": (orbit_log, ("X", "Y"), "shape mismatch {a} vs {b}"),
    "frechet_mean": (
        lambda A, B: frechet_mean([A, B]),
        ("points[0]", "points[1]"),
        "sample 1 has shape {b}, expected {a}",
    ),
    "frechet_variance": (
        lambda A, B: frechet_variance([A], B),
        ("points[0]", "candidate"),
        "shape mismatch {a} vs {b}",
    ),
    "ps_frechet_fixed": (
        lambda A, B: ps_frechet_fixed([A, B], [1.0, 1.0]),
        ("points[0]", "points[1]"),
        "points[1] has shape {b}, expected {a}",
    ),
    "GeodesicSegment": (
        lambda A, B: GeodesicSegment(
            start=A, velocity=ProductTangent(B, np.zeros(np.shape(B))), duration=1.0
        ),
        ("start", "base"),
        "velocity is not based at the start point",
    ),
    "max_full_rank_interval": (
        lambda A, B: max_full_rank_interval(A, ProductTangent(B, np.zeros(np.shape(B)))),
        ("X", "base"),
        "tangent base does not match X",
    ),
}


def _faulty(G, fault):
    """G with one fault, and the message check_unit_rows gives it under name ({name})."""
    B = G.copy()
    if fault == "non_unit_row":
        B[1] *= 2.0
        return B, "row 1 of {name} has norm 2.000000000000, expected 1"
    if fault == "nan":
        B[2, 0] = np.nan
        return B, "{name} has non-finite entries"
    if fault == "k1":
        return np.ones((G.shape[0], 1)), "{name} needs at least 2 columns, got 1"
    return np.vstack([G, G[:1]]), None  # another shape


@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize("fault", ["non_unit_row", "nan", "k1", "shape"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_each_entry_point_checks_both_arguments(entry, fault, side):
    fn, names, mismatch = ENTRY_POINTS[entry]
    G = random_point(np.random.default_rng(40), 4, 3)
    fn(G, G.copy())
    B, message = _faulty(G, fault)
    args = (B, G) if side == 0 else (G, B)
    if message is None:
        a, b = (np.shape(A) for A in args)
        message = mismatch.format(a=a, b=b)
    with pytest.raises(InvalidInput) as info:
        fn(*args)
    assert str(info.value) == message.format(name=names[side])


@pytest.fixture
def unit_row_checks(monkeypatch):
    """The arrays check_unit_rows is called on, wherever the package calls it."""
    calls = []
    check = product_sphere.check_unit_rows

    def counted(X, name="X"):
        calls.append(X)
        return check(X, name)

    for module in (product_sphere, quotient_space):
        monkeypatch.setattr(module, "check_unit_rows", counted)
    return calls


def test_geodesic_ops_check_each_input_once(unit_row_checks):
    rng = np.random.default_rng(41)
    X, Y = random_point(rng, 6, 4), random_point(rng, 6, 4)
    V = orbit_log(X, Y)
    assert [id(A) for A in unit_row_checks] == [id(X), id(Y)]
    # the velocity's own base is checked once more as the start, not compared
    unit_row_checks.clear()
    seg = GeodesicSegment(start=V.base, velocity=V, duration=1.0)
    max_full_rank_interval(seg.start, V, t_max_search=1.0)
    assert [id(A) for A in unit_row_checks] == [id(X), id(X)]


def test_raw_samples_are_checked_once(monkeypatch):
    # by name: a mean checks each raw sample once (and its result once), a
    # horizontal projection, an exponential and an embedding their base
    # once (they recorded X, X, rep and X, rep), their results not at all
    names = []
    check = product_sphere.check_unit_rows

    def counted(X, name="X"):
        names.append(name)
        return check(X, name)

    for module in (product_sphere, quotient_space):
        monkeypatch.setattr(module, "check_unit_rows", counted)
    rng = np.random.default_rng(43)
    frechet_mean([random_point(rng, 5, 3) for _ in range(3)])
    assert names == ["points[0]", "points[1]", "points[2]", "rep"]
    names.clear()
    X = random_point(rng, 5, 3)
    horizontal_project(X, random_tangent(rng, X))
    assert names == ["X"]
    V = orbit_log(X, random_point(rng, 5, 3))
    for call in (lambda: orbit_exp(X, V, 0.5), lambda: k_embedding(X, 4)):
        names.clear()
        call()
        assert names == ["X"]


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
        fwd, rev = _align_pairs([X, Y], [Y, X])
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
    assert V.defect <= HORIZ_TOL
    assert vertical_project(X, V).norm <= HORIZ_TOL
    assert horizontality_defect(X, V) < 1e-8


def test_orbit_log_reports_its_defect_at_low_rank():
    rng = np.random.default_rng(11)
    X = random_point(rng, 4, 2)
    pad = np.zeros((4, 1))
    X3 = np.hstack([X, pad])  # rank 2 representative in k=3
    Y3 = np.hstack([random_point(rng, 4, 2), pad])
    V = orbit_log(X3, Y3)
    assert V.defect <= HORIZ_TOL
    assert abs(horizontality_defect(X3, V) - V.defect) <= 1e-12 * max(1.0, V.norm)


@pytest.mark.parametrize("m, k, rx, ry", [(5, 3, 3, 3), (8, 2, 2, 2), (6, 4, 4, 2), (7, 4, 3, 2)])
def test_orbit_log_defect_is_its_search_gradient_norm(m, k, rx, ry):
    # skew(X^T V) = -1/2 O skew(G) O^T at the aligned representative, so the
    # log's horizontality defect is the search's gradient norm at every rank
    rng = np.random.default_rng([27, m, k, rx, ry])
    for _ in range(10):
        X, Y = random_rank_point(rng, m, k, rx), random_rank_point(rng, m, k, ry)
        for A, B in ((X, Y), (Y, X)):
            V = orbit_log(A, B)
            assert V.defect == align(A, B).grad_norm
            assert abs(horizontality_defect(A, V) - V.defect) <= 1e-12 * max(1.0, V.norm)


@pytest.mark.parametrize(
    "record, failed",
    [
        (dict(converged=True, grad_norm=1e-9), False),
        (dict(stagnated=True, grad_norm=1e-6), False),  # floor stall at stagnation_tol
        (dict(stagnated=True, grad_norm=2e-6), True),  # floor stall above it
        (dict(iterations=MAX_ITERS, grad_norm=1e-3), True),  # capped
        (dict(grad_norm=0.0, clamped_rows=(1,)), True),  # zero gradient on the cut locus
        (dict(stagnated=True, grad_norm=1e-9, clamped_rows=(0,)), True),
    ],
)
def test_failed_is_the_one_verdict_on_a_solve(record, failed):
    r = SolverReport(**{"converged": False, "iterations": 4, "loss": 1.0, **record})
    assert r.failed(DEFAULT_CONFIG.stagnation_tol) is failed


def test_orbit_log_raises_on_a_cut_locus_stop_with_its_record():
    # rows (a, a) against (a, -a): the Procrustes start alone stops with row 1
    # antipodal and a zero gradient, no minimum; the seeded starts find pi/sqrt(2)
    A = np.array([[1.0, 0.0], [1.0, 0.0]])
    B = np.array([[1.0, 0.0], [-1.0, 0.0]])
    with pytest.raises(AlignmentStagnation) as exc:
        orbit_log(A, B, DEFAULT_CONFIG.with_(restarts=1))
    r = exc.value.report
    assert (r.converged, r.stagnated, r.grad_norm, r.clamped_rows) == (False, False, 0.0, (1,))
    assert r.failed(DEFAULT_CONFIG.stagnation_tol)
    assert abs(orbit_log(A, B).norm - np.pi / np.sqrt(2.0)) < 1e-12


def test_orbit_log_norm_is_orbit_dist():
    # the log aligns by the distance's own search of the unordered pair; a
    # one-order search from fewer starts ends in a worse basin on pair 12 at m = 8
    for m in (4, 5, 8, 15):
        rng = np.random.default_rng(5)
        for _ in range(30):
            X, Y = random_point(rng, m, 2), random_point(rng, m, 2)
            assert abs(orbit_log(X, Y).norm - orbit_dist(X, Y)) <= 1e-12


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


def test_orbit_exp_and_segment_at_negative_time():
    # t < 0 follows the geodesic backwards: each row turns by |t| |v_i|
    rng = np.random.default_rng(20)
    X, Y = _nearby_pair(rng, 5, 3, scale=0.8)
    V = orbit_log(X, Y)
    for t in (0.25, 1.0, 2.5):
        assert np.array_equal(orbit_exp(X, V, -t).rep, orbit_exp(X, -V.vec, t).rep)
    seg = GeodesicSegment(start=X, velocity=V, duration=1.0)
    norms = np.linalg.norm(V.vec, axis=1)[:, None]
    ang = -0.5 * norms
    expect = np.cos(ang) * X + np.sin(ang) * V.vec / norms
    assert np.abs(seg.point(-0.5) - expect).max() <= 1e-15


def test_exponentials_reject_a_non_finite_or_non_real_time():
    # a non-finite time used to give an all-NaN point (and orbit_exp then
    # blamed its rep); an integer beyond the float range, a complex or a
    # string time is no time at all
    rng = np.random.default_rng(21)
    X, Y = _nearby_pair(rng, 5, 3, scale=0.8)
    V = orbit_log(X, Y)
    seg = GeodesicSegment(start=X, velocity=V, duration=1.0)
    for t in (np.inf, -np.inf, np.nan, -(10**400), 1j, "1", None):
        for call in (lambda: ps_exp(X, V, t), lambda: orbit_exp(X, V, t), lambda: seg.point(t)):
            with pytest.raises(InvalidInput, match="t must be a finite real number"):
                call()
    # a finite time can still overflow a row's angle t |v_i| (NaN rows, a
    # non-finite rank, numpy's LinAlgError in the escape scan, each with
    # RuntimeWarnings): every exponential and path refuses it before any
    # arithmetic, and a time within the bound gives a finite point
    rng = np.random.default_rng(0)
    X, Y = (unit_rows(rng.standard_normal((5, 3))) for _ in range(2))
    W = 4.0 * orbit_log(X, Y).vec
    for call in (
        lambda: ps_exp(X, W, 1e308),
        lambda: orbit_exp(X, W, 1e308),
        lambda: GeodesicSegment(X, W, 1.0).point(1e308),
        lambda: geodesic_rank_profile(GeodesicSegment(X, W, 1e308), 3),
        lambda: max_full_rank_interval(X, W, t_max_search=1e300),
    ):
        with pytest.raises(InvalidInput, match=r"must be a finite real number with \|"):
            call()
    t = 0.5 * TIME_BOUND / np.linalg.norm(W, axis=1).max()
    assert np.isfinite(ps_exp(X, W, t)).all() and np.isfinite(orbit_exp(X, W, -t).rep).all()


def test_orbit_exp_horizontality_gate():
    rng = np.random.default_rng(14)
    X = random_point(rng, 4, 2)
    # a purely vertical direction: common infinitesimal rotation of all rows
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    V = X @ J.T
    with pytest.raises(InvalidInput, match="tangent is not horizontal"):
        orbit_exp(X, V)
    # the product exponential has no gate: the rows just turn
    assert ps_dist(ps_exp(X, V), X) > 0.5
    # a tangent that records a smaller defect than it has is held to its record
    with pytest.raises(InvalidInput, match="tangent is not horizontal"):
        orbit_exp(X, HorizontalTangent(X, V, defect=0.0))


def test_loose_logs_pass_the_horizontality_check():
    # at grad_tol above HORIZ_TOL a log's defect, its search's gradient norm,
    # exceeds HORIZ_TOL; the check holds it to the defect it records, so
    # orbit_exp and quotient_metric take orbit_log's own output
    cfg = DEFAULT_CONFIG.with_(grad_tol=1e-4)
    rng = np.random.default_rng(5)
    loose = 0
    for _ in range(10):
        X, Y = random_point(rng, 8, 3), random_point(rng, 8, 3)
        V = orbit_log(X, Y, cfg)
        loose += V.defect > HORIZ_TOL * max(1.0, V.norm)
        assert np.array_equal(orbit_exp(X, V).rep, ps_exp(X, V))
        assert abs(quotient_metric(V, V) - V.norm**2) <= 1e-12 * V.norm**2
    assert loose >= 3


@pytest.mark.parametrize(
    "fn",
    [
        ps_exp,
        orbit_exp,
        max_full_rank_interval,
        horizontality_defect,
        vertical_project,
        horizontal_project,
    ],
    ids=lambda fn: fn.__name__,
)
@pytest.mark.parametrize("tangent", ["based_elsewhere", "taller_base", "raw_wrong_shape"])
def test_tangent_must_live_at_the_point(fn, tangent):
    rng = np.random.default_rng(24)
    X = random_point(rng, 4, 2)
    if tangent == "raw_wrong_shape":
        V = np.zeros((4, 3))
    else:
        Y = random_point(rng, 4 if tangent == "based_elsewhere" else 5, 2)
        V = ProductTangent(Y, random_tangent(rng, Y))
    with pytest.raises(InvalidInput, match="tangent base does not match X|velocity shape"):
        fn(X, V)


@pytest.mark.parametrize(
    "case", ["metric_of_raw", "metric_across_shapes", "owning_array", "list", "view"]
)
def test_one_base_point_rule(case):
    # every map decides by _tangent_vec whether a tangent is at a point:
    # ps_metric of a raw array raised AttributeError, quotient_metric of
    # bases of two shapes numpy's broadcast ValueError, and GeodesicSegment
    # read ndarray.base of a raw velocity (an owning array, a list, a view of
    # a larger array), which ps_exp takes by the ProductTangent rule
    rng = np.random.default_rng(25)
    X = random_point(rng, 4, 3)
    T = ProductTangent(X, random_tangent(rng, X))
    if case == "metric_of_raw":
        for U, V in ((T, T.vec), (T.vec, T), (T.vec, T.vec)):
            with pytest.raises(InvalidInput, match="ps_metric expects tangent objects"):
                ps_metric(U, V)
    elif case == "metric_across_shapes":
        Z = random_point(rng, 5, 3)
        H, G = horizontal_project(X, T), horizontal_project(Z, random_tangent(rng, Z))
        for fn in (ps_metric, quotient_metric):
            with pytest.raises(InvalidInput, match="tangents live at different base points"):
                fn(H, G)
    else:
        if case == "view":
            larger = np.zeros((6, 5))
            larger[:4, :3] = T.vec
            raw = larger[:4, :3]
        else:
            raw = T.vec.copy() if case == "owning_array" else T.vec.tolist()
        seg = GeodesicSegment(X, raw, 2.0)
        assert np.array_equal(seg.velocity.vec, T.vec)
        assert np.array_equal(seg.point(1.5), GeodesicSegment(X, T, 2.0).point(1.5))
        with pytest.raises(InvalidInput, match="is not tangent"):
            GeodesicSegment(X, np.asarray(raw) + 0.3 * X, 2.0)


def test_escape_times_reject_a_raw_velocity_that_is_not_tangent():
    # ps_exp renormalizes rows, so such a path is no geodesic and its gap
    # is not (1 + RANK_RELATIVE) |V|_F-Lipschitz; every map that takes a raw
    # velocity applies the ProductTangent rule, so none reads the normal
    # part (ps_exp(X, T + 0.3 X) once ended 0.2 away from ps_exp(X, T),
    # and orbit_exp took the purely normal 0.5 X as horizontal)
    rng = np.random.default_rng(24)
    X = random_point(rng, 4, 3)
    T = random_tangent(rng, X)
    for fn in (
        ps_exp,
        orbit_exp,
        horizontality_defect,
        vertical_project,
        horizontal_project,
        max_full_rank_interval,
    ):
        for V in (T + 0.3 * X, 0.5 * X):
            with pytest.raises(InvalidInput, match="is not tangent"):
                fn(X, V)


# geodesics ------------------------------------------------------------------------


def test_segment_validation():
    rng = np.random.default_rng(15)
    X, Y = _nearby_pair(rng, 4, 3)
    V = orbit_log(X, Y)
    for duration in (0.0, np.inf, True, "1"):
        with pytest.raises(InvalidInput, match="duration must be positive"):
            GeodesicSegment(start=X, velocity=V, duration=duration)
    with pytest.raises(InvalidInput):
        GeodesicSegment(start=Y, velocity=V, duration=1.0)
    seg = GeodesicSegment(start=X, velocity=V, duration=1.0)
    assert np.allclose(seg.point(0.0), X)
    assert ps_dist(seg.point(1.0), ps_exp(X, V.vec)) < 1e-12
    for samples in (0, 2.5, True, np.float64(3.0), "3"):
        with pytest.raises(InvalidInput, match="samples must be an integer >= 1"):
            geodesic_rank_profile(seg, samples=samples)
    assert len(geodesic_rank_profile(seg, samples=np.int64(3))) == 5
    for t_max in (0.0, -1.0, np.inf, np.nan, True, "4"):
        with pytest.raises(InvalidInput, match="t_max_search must be positive and finite"):
            max_full_rank_interval(X, V, t_max_search=t_max)


def test_segment_points_check_only_their_time(monkeypatch):
    # the segment's start and velocity were checked when it was built, so a
    # point checks neither again, and is ps_exp's point bit for bit
    rng = np.random.default_rng(17)
    X, Y = _nearby_pair(rng, 5, 3)
    seg = GeodesicSegment(start=X, velocity=orbit_log(X, Y), duration=1.0)
    calls = []
    for name in ("check_unit_rows", "_check_tangent"):
        check = getattr(product_sphere, name)

        def counted(*args, check=check, name=name):
            calls.append(name)
            return check(*args)

        for module in (product_sphere, quotient_space):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    ts = np.linspace(-0.5, 2.0, 10)
    points = [seg.point(t) for t in ts]
    assert calls == []
    ps_exp(seg.start, seg.velocity.vec, ts[0])  # the counters see ps_exp's checks
    assert calls == ["check_unit_rows", "_check_tangent"]
    monkeypatch.undo()
    for t, P in zip(ts, points):
        assert P.tobytes() == ps_exp(seg.start, seg.velocity.vec, t).tobytes()
    with pytest.raises(InvalidInput, match="t must be a finite real number"):
        seg.point(np.inf)


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


def test_full_rank_interval_zero_velocity(monkeypatch):
    times = []  # the number of times of each gap evaluation
    gaps = quotient_space._gaps
    monkeypatch.setattr(
        quotient_space, "_gaps", lambda X, V, ts: times.append(len(ts)) or gaps(X, V, ts)
    )
    rng = np.random.default_rng(19)
    X = random_point(rng, 4, 3)
    lo, hi = max_full_rank_interval(X, np.zeros((4, 3)), t_max_search=5.0)
    assert (lo, hi) == (-5.0, 5.0)
    # a zero Lipschitz bound certifies every coarse interval of the general scan
    assert times == [66]


def test_full_rank_interval_analytic_collision():
    X = np.eye(2)
    V = np.array([[0.0, 1.0], [0.0, 0.0]])  # rotate row 0 toward row 1
    lo, hi = max_full_rank_interval(X, V, t_max_search=4.0)
    assert abs(hi - np.pi / 2.0) < 1e-6
    assert abs(lo + np.pi / 2.0) < 1e-6
    # at the boundary the two rows coincide up to sign: rank 1
    sig = np.linalg.svd(ps_exp(X, V, hi), compute_uv=False)
    assert sig[-1] < 1e-5


def test_full_rank_interval_square_base_keeps_determinant_sign():
    # at m = k the determinant along t -> exp(X, tV) changes sign only
    # through a rank drop, so it keeps one sign inside the interval
    rng = np.random.default_rng(11)
    for k in (3, 4):
        for _ in range(20):
            X = random_point(rng, k, k)
            V = random_tangent(rng, X, scale=rng.uniform(0.3, 3.0))
            lo, hi = max_full_rank_interval(X, V, t_max_search=4.0)
            for W, end in ((V, hi), (-V, -lo)):
                dets = [np.linalg.det(ps_exp(X, W, t)) for t in np.linspace(0.0, end, 101)]
                assert np.all(np.sign(dets[:-1]) == np.sign(dets[0])), (k, end)


def _escape_corpus():
    """Seeded (X, V) pairs at full-rank bases, the analytic collision first."""
    rng = np.random.default_rng(31)
    yield np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])
    for k in (2, 3, 4):
        for m in range(k, 10):
            X = random_point(rng, m, k)
            for r in range(1, k):  # log toward a rank-r endpoint: a drop by t = 1
                yield X, orbit_log(X, random_rank_point(rng, m, k, r)).vec
            for _ in range(2):
                yield X, random_tangent(rng, X, scale=rng.uniform(0.3, 3.0))


def test_escape_times_equal_the_dense_scan():
    cases = drops = 0
    for X, V in _escape_corpus():
        up, down = dense_first_drop(X, V, 4.0), dense_first_drop(X, -V, 4.0)
        expected = (-4.0 if down is None else -down, 4.0 if up is None else up)
        assert max_full_rank_interval(X, V, t_max_search=4.0) == expected
        cases += 1
        drops += (up is not None) + (down is not None)
    assert cases == 83 and drops > 50


def test_escape_scan_skips_the_certified_stretches(monkeypatch):
    times = []  # the number of times of each gap evaluation
    gaps = quotient_space._gaps
    monkeypatch.setattr(
        quotient_space, "_gaps", lambda X, V, ts: times.append(len(ts)) or gaps(X, V, ts)
    )
    # gap near 1 and |V| = 0.05: every coarse interval is certified, so
    # the scan is one evaluation of both directions' 33 coarse times
    X = np.vstack([np.eye(3), np.full((1, 3), 1.0 / np.sqrt(3.0))])
    V = random_tangent(np.random.default_rng(3), X, scale=0.05)
    assert max_full_rank_interval(X, V, t_max_search=4.0) == (-4.0, 4.0)
    assert times == [66]
    # a drop at pi/2 costs a few uncertified intervals, not the dense grid
    times.clear()
    lo, hi = max_full_rank_interval(np.eye(2), [[0.0, 1.0], [0.0, 0.0]], t_max_search=4.0)
    assert abs(hi - np.pi / 2.0) < 1e-6 and abs(lo + np.pi / 2.0) < 1e-6
    assert sum(times) < 2 * 1025


@pytest.mark.parametrize("m, k, n", [(6, 4, 1025), (8, 3, 1025), (5, 3, 19), (116, 20, 19)])
def test_path_equals_the_tiled_rows(m, k, n):
    # one stack broadcast over the times has the bits of the tiled rows, at
    # negative, zero and tiny times and along a zero-velocity row
    rng = np.random.default_rng(m)
    X = random_point(rng, m, k)
    V = random_tangent(rng, X, scale=2.0)
    V[1] = 0.0
    ts = np.concatenate([np.linspace(-4.0, 4.0, n - 6), [0.0, -0.0, 1e-14, -1e-14, 1e-300, 3.0]])
    P = quotient_space._path(X, V, ts)
    assert P.shape == (n, m, k)
    assert P.tobytes() == tiled_path(X, V, ts).tobytes()


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


def test_k_embedding_rejects_a_non_integer_width():
    X = random_point(np.random.default_rng(20), 4, 2)
    for k2 in (3.5, 4.0, "4", np.nan, None, True):
        with pytest.raises(InvalidInput, match="target width must be an integer"):
            k_embedding(X, k2)
    assert k_embedding(X, np.int64(3)).rep.shape == (4, 3)


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


def test_seeded_starts_are_built_once():
    # every search of a (k, restarts, seed) shares one read-only array of
    # the seeded rotations and their transposes, equal to drawing them afresh
    starts = _unordered_starts(4, 5, 3)
    assert _unordered_starts(4, 5, 3) is starts
    assert not starts.flags.writeable
    rng = np.random.default_rng(3)
    rand = np.stack([random_orthogonal(4, rng) for _ in range(4)])
    assert np.array_equal(starts, np.concatenate([rand, np.swapaxes(rand, -1, -2)]))
    assert _unordered_starts(4, 1, 3).shape == (0, 4, 4)


def test_extra_starts_must_be_rotations():
    # a start off O(k) was searched as given: from pinv(X) Y align reported
    # 3.477 against the pair's 3.794, at a "rotation" with |O^T O - I|_F =
    # 1.78; a NaN start raised LinAlgError, a 2 x 2 one a bare ValueError
    rng = np.random.default_rng(1)
    X, Y = random_point(rng, 8, 3), random_point(rng, 8, 3)
    d = orbit_dist(X, Y)
    assert abs(d - 3.7938) < 1e-4
    for inits, match in (
        ([np.linalg.pinv(X) @ Y], "not orthogonal"),
        ([np.full((3, 3), np.nan)], "non-finite"),
        ([np.eye(2)], "3 x 3"),
        ([np.eye(3) + 1e-7], "not orthogonal"),
        ([np.eye(3), np.eye(2)], "3 x 3"),
        (["a"], "3 x 3"),
    ):
        for call in (align, orbit_dist):
            with pytest.raises(InvalidInput, match=match):
                call(X, Y, extra_inits=inits)
    # a reflection is a start, and so is a rotation rounded 1e-10 off O(3)
    for O in (random_orthogonal(3, rng) @ np.diag([1.0, 1.0, -1.0]), np.eye(3) + 1e-10):
        r = align(X, Y, extra_inits=[O])
        assert r.restarts_used == 2 * DEFAULT_CONFIG.restarts
        assert abs(r.loss - d * d) <= 1e-9 * d * d


# certified global minima ------------------------------------------------------------


def test_certified_planar_distances_are_global():
    # at k = 2 o2_grid_distance scans all of O(2) and bounds the distance
    # from above: a distance whose rotation the factors alone certify is
    # never above it, and the search misses the scan (is above it by more
    # than 1e-6) on no more pairs than before the certificate retired starts
    certified = 0
    for m, most in ((4, 2), (5, 0), (8, 2), (15, 7)):
        rng = np.random.default_rng(5)
        misses = 0
        for _ in range(150):
            X, Y = random_point(rng, m, 2), random_point(rng, m, 2)
            r = align(X, Y)
            d, grid = np.sqrt(r.loss), o2_grid_distance(X, Y)
            if alignment_certified(X, Y, r.rotation):
                certified += 1
                assert d <= grid + 1e-9
            misses += d > grid + 1e-6
        assert misses <= most
    assert certified >= 200


def test_certified_losses_beat_many_random_starts():
    # at k = 3, 4, 6 a certified loss is never above the best of 100 random
    # starts, each iterated to its own stop
    certified = 0
    for m, k in ((6, 3), (8, 4), (12, 6)):
        rng = np.random.default_rng(54)
        for _ in range(8):
            X, Y = random_point(rng, m, k), random_point(rng, m, k)
            starts = [random_orthogonal(k, rng) for _ in range(100)]
            r = align(X, Y)
            if alignment_certified(X, Y, r.rotation):
                certified += 1
                best = align_random_starts(X, Y, starts)
                assert r.loss <= best + 1e-12 * max(1.0, r.loss)
    assert certified >= 15


def test_certified_geodesics_keep_constant_interior_rank():
    # a certified orbit_log is minimizing, so by the paper's theorem the rank
    # along its geodesic is constant on the interior and not below either
    # endpoint's; mixed-rank pairs, endpoint ranks from 1 to k
    rng = np.random.default_rng(11)
    certified = 0
    for _ in range(400):
        m = int(rng.integers(4, 13))
        k = int(rng.integers(2, min(6, m) + 1))
        rx, ry = (int(r) for r in rng.integers(1, k + 1, 2))
        X, Y = random_rank_point(rng, m, k, rx), random_rank_point(rng, m, k, ry)
        r = align(X, Y)
        if not alignment_certified(X, Y, r.rotation):
            continue
        certified += 1
        V = orbit_log(X, Y)
        profile = geodesic_rank_profile(GeodesicSegment(X, V, 1.0), samples=9)
        interior = {rank for _, rank in profile[1:-1]}
        assert len(interior) == 1
        assert interior.pop() >= max(profile[0][1], profile[-1][1])
    assert certified >= 350
