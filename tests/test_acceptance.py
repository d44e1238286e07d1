"""End-to-end checks of the package's headline guarantees.

One test per guarantee, each printing a single summary line (visible with
pytest -s) and asserting the stated tolerances and runtime budget.
"""

import json
import time

import numpy as np

from corrgeo import (
    align,
    factorize,
    frechet_mean,
    geodesic_rank_profile,
    gram,
    horizontal_project,
    horizontality_defect,
    k_embedding,
    max_full_rank_interval,
    numerical_rank,
    orbit_dist,
    orbit_exp,
    orbit_log,
    ps_exp,
    ps_log,
    ps_metric,
    ps_project,
    random_orthogonal,
    skew_part,
    sylvester_spd,
    vertical_project,
    GeodesicSegment,
    ProductTangent,
)
from corrgeo.cli import main as cli_main
from corrgeo.product_sphere import (
    _angle_factors,
    _row_angles,
    _row_mean_model,
)
from corrgeo.quotient_space import _alignment_model

from conftest import (
    counterexample_pair,
    random_point,
    random_rank_point,
    random_tangent,
)
from reference import (
    fd_gradient,
    o2_grid_distance,
    og_retract,
    sphere_exp,
    sphere_log,
    sphere_retract,
)

PLANAR_BOUND = np.pi / np.sqrt(2.0)


def _report(name, detail):
    print(f"criterion {name}: PASS ({detail})")


# 1 ------------------------------------------------------------------------------


def test_criterion_01_metric_axioms():
    t0 = time.perf_counter()
    worst_id, worst_sym, worst_tri = 0.0, 0.0, -np.inf
    for m, k, seed in ((4, 2, 101), (6, 3, 202)):
        rng = np.random.default_rng(seed)
        for _ in range(25):
            X = random_point(rng, m, k)
            Y = random_point(rng, m, k)
            worst_id = max(worst_id, orbit_dist(X, X))
            dxy = orbit_dist(X, Y)
            dyx = orbit_dist(Y, X)
            worst_sym = max(worst_sym, abs(dxy - dyx))
        for _ in range(25):
            X = random_point(rng, m, k)
            Y = random_point(rng, m, k)
            Z = random_point(rng, m, k)
            viol = orbit_dist(X, Z) - orbit_dist(X, Y) - orbit_dist(Y, Z)
            worst_tri = max(worst_tri, viol)
    elapsed = time.perf_counter() - t0
    assert worst_id < 1e-8
    assert worst_sym < 1e-6
    assert worst_tri < 2e-6
    assert elapsed < 30.0
    _report(
        "1 metric axioms",
        f"identity {worst_id:.2e}, asymmetry {worst_sym:.2e}, "
        f"worst triangle slack {worst_tri:+.2e}, {elapsed:.1f}s",
    )


# 2 ------------------------------------------------------------------------------


def test_criterion_02_planar_bound_counterexample():
    t0 = time.perf_counter()
    X, Y = counterexample_pair()
    d_solver = orbit_dist(X, Y)
    d_grid = o2_grid_distance(X, Y)
    margin = d_solver - PLANAR_BOUND
    d_embedded = orbit_dist(k_embedding(X, 3), k_embedding(Y, 3))
    elapsed = time.perf_counter() - t0
    assert abs(d_solver - d_grid) < 1e-4
    assert d_solver > PLANAR_BOUND
    assert d_grid > PLANAR_BOUND
    assert d_embedded <= PLANAR_BOUND + 1e-6
    assert elapsed < 10.0
    _report(
        "2 planar bound counterexample",
        f"solver {d_solver:.6f}, grid {d_grid:.6f}, margin {margin:.6f} "
        f"over {PLANAR_BOUND:.6f}, k=3 embedding {d_embedded:.6f}, {elapsed:.1f}s",
    )


# 3 ------------------------------------------------------------------------------


def test_criterion_03_width_monotonicity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = -np.inf
    for _ in range(30):
        X = random_point(rng, 5, 2)
        Y = random_point(rng, 5, 2)
        a = align(X, Y)
        b = align(Y, X)
        d2 = float(np.sqrt(min(a.loss, b.loss)))
        lifts = []
        for O in (a.rotation, b.rotation.T):
            L = np.eye(3)
            L[:2, :2] = O
            lifts.append(L)
        d3 = orbit_dist(k_embedding(X, 3), k_embedding(Y, 3), extra_inits=lifts)
        worst = max(worst, d3 - d2)
        assert d3 <= d2 + 1e-5
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(
        "3 width monotonicity",
        f"30 rank<=2 pairs at m=5, max d3-d2 {worst:+.2e}, {elapsed:.1f}s",
    )


# 4 ------------------------------------------------------------------------------


def _alignment_config(rng):
    # a rotation-search configuration with every row angle away from 0 and pi
    while True:
        X = random_point(rng, 6, 3)
        Y = random_point(rng, 6, 3)
        O = random_orthogonal(3, rng)
        c, _ = _row_angles(X @ O, Y)
        if np.all(np.abs(c) <= 1.0 - 1e-3):
            return X, Y, O


def _sphere_mean_config(rng):
    while True:
        x = rng.standard_normal(5)
        x /= np.linalg.norm(x)
        P = np.stack([rng.standard_normal(5) for _ in range(4)])
        P /= np.linalg.norm(P, axis=1)[:, None]
        if np.all(np.abs(P @ x) <= 1.0 - 1e-3):
            return x, P, rng.uniform(0.5, 2.0, size=4)


def test_criterion_04_gradient_fidelity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    worst = 0.0

    # rotation-search loss on O(3)
    def skew_basis(O):
        basis = []
        for i in range(3):
            for j in range(i + 1, 3):
                S = np.zeros((3, 3))
                S[i, j], S[j, i] = 1.0, -1.0
                basis.append(O @ (S / np.sqrt(2.0)))
        return basis

    for _ in range(20):
        X, Y, O = _alignment_config(rng)

        def loss(Q):
            th = _row_angles(X @ Q, Y)[1]
            return float(th @ th)

        c, th = _row_angles(X @ O, Y)
        coef, _, _ = _angle_factors(c, th)
        G = (X * coef[:, None]).T @ Y
        grad = O @ skew_part(O.T @ G)
        basis = skew_basis(O)
        g_fd = fd_gradient(loss, O, basis, og_retract)
        g_an = np.array([float(np.sum(grad * b)) for b in basis])
        rel = np.linalg.norm(g_fd - g_an) / max(np.linalg.norm(g_an), 1e-12)
        worst = max(worst, rel)
        assert rel < 1e-5

    # weighted spherical mean loss on S^4
    for _ in range(20):
        x, P, w = _sphere_mean_config(rng)

        def loss(y):
            th = np.arccos(np.clip(P @ y, -1.0, 1.0))
            return float(w @ (th * th))

        c = np.clip(P @ x, -1.0, 1.0)
        th = np.arccos(c)
        coef, _, _ = _angle_factors(c, th)
        eg = P.T @ (w * coef)
        grad = eg - (x @ eg) * x
        Q = np.linalg.qr(np.hstack([x[:, None], rng.standard_normal((5, 4))]))[0]
        basis = [Q[:, i] for i in range(1, 5)]
        g_fd = fd_gradient(loss, x, basis, sphere_retract)
        g_an = np.array([float(grad @ b) for b in basis])
        rel = np.linalg.norm(g_fd - g_an) / max(np.linalg.norm(g_an), 1e-12)
        worst = max(worst, rel)
        assert rel < 1e-5

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(
        "4 gradient fidelity",
        f"20+20 configs, worst relative error {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_04_hessian_fidelity():
    # the closed-form Hessians of the trust-region models against second
    # differences of the loss along O cay(tW) and along great circles,
    # relative to the Hessian's norm; rank-deficient X included on O(k)
    t0 = time.perf_counter()
    rng = np.random.default_rng(405)
    h = 1e-4
    worst = 0.0

    def rel_error(fd, w, H):
        q = float(w @ H @ w)
        return abs(fd - q) / max(abs(q), float(np.linalg.norm(H, 2)))

    for k in (2, 3, 4, 5):
        for r in sorted({1, k - 1, k}):
            for _ in range(5):
                while True:
                    X = random_rank_point(rng, 6, k, r)
                    Y = random_point(rng, 6, k)
                    O = random_orthogonal(k, rng)
                    if np.all(np.abs(_row_angles(X @ O, Y)[0]) <= 1.0 - 1e-3):
                        break
                model, retract = _alignment_model(X, Y)
                f0, g, H, _ = model(O)
                w = skew_part(rng.standard_normal((k, k))).ravel()
                w /= np.linalg.norm(w)
                fp = model(retract(O, h * w))[0]
                fm = model(retract(O, -h * w))[0]
                rel = rel_error((fp - 2.0 * f0 + fm) / h**2, w, H)
                worst = max(worst, rel)
                assert rel < 1e-5

    for _ in range(20):
        x, P, wts = _sphere_mean_config(rng)
        model, _ = _row_mean_model(P, wts)
        f0, g, H, _ = model(x)
        s = rng.standard_normal(g.size)
        s -= (s @ x) * x
        s /= np.linalg.norm(s)
        fp = model(np.cos(h) * x + np.sin(h) * s)[0]
        fm = model(np.cos(h) * x - np.sin(h) * s)[0]
        rel = rel_error((fp - 2.0 * f0 + fm) / h**2, s, H)
        worst = max(worst, rel)
        assert rel < 1e-5

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(
        "4 Hessian fidelity",
        f"40+20 configs, worst relative error {worst:.2e}, {elapsed:.1f}s",
    )


# 5 ------------------------------------------------------------------------------


def test_criterion_05_projection_algebra():
    rng = np.random.default_rng(505)
    worst = {"compl": 0.0, "idem": 0.0, "orth": 0.0, "resid": 0.0, "equiv": 0.0}
    for _ in range(50):
        X = random_point(rng, 6, 3)
        W = ps_project(X, rng.standard_normal((6, 3))).vec
        v = vertical_project(X, W).vec
        h = horizontal_project(X, W).vec
        worst["compl"] = max(worst["compl"], float(np.linalg.norm(v + h - W)))
        worst["idem"] = max(
            worst["idem"],
            float(np.linalg.norm(vertical_project(X, v).vec - v)),
            float(np.linalg.norm(horizontal_project(X, h).vec - h)),
        )
        worst["orth"] = max(
            worst["orth"],
            abs(ps_metric(ProductTangent(X, v), ProductTangent(X, h))),
        )
        A = sylvester_spd(X.T @ X, X.T @ W - W.T @ X)
        E = X.T @ X
        rhs = X.T @ W - W.T @ X
        worst["resid"] = max(
            worst["resid"], float(np.linalg.norm(E @ A + A @ E - rhs))
        )
        R = random_orthogonal(3, rng)
        worst["equiv"] = max(
            worst["equiv"],
            float(np.linalg.norm(vertical_project(X @ R, W @ R).vec - v @ R)),
            float(np.linalg.norm(horizontal_project(X @ R, W @ R).vec - h @ R)),
        )
    assert worst["compl"] < 1e-12
    assert worst["idem"] < 1e-12
    assert worst["orth"] < 1e-10
    assert worst["resid"] < 1e-10
    assert worst["equiv"] < 1e-10
    _report(
        "5 projection algebra",
        "50 full-rank points, worst: complementarity {compl:.1e}, "
        "idempotence {idem:.1e}, orthogonality {orth:.1e}, residual {resid:.1e}, "
        "equivariance {equiv:.1e}".format(**worst),
    )


# 6 ------------------------------------------------------------------------------


def test_criterion_06_exp_log_round_trips():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    worst_sphere, worst_product, worst_orbit = 0.0, 0.0, 0.0
    for _ in range(20):
        x = rng.standard_normal(5)
        x /= np.linalg.norm(x)
        u = rng.standard_normal(5)
        u -= (x @ u) * x
        u /= np.linalg.norm(u)
        theta = rng.uniform(1e-3, np.pi - 1e-3)
        y = sphere_exp(x, theta * u)
        err = np.linalg.norm(sphere_exp(x, sphere_log(x, y)) - y)
        worst_sphere = max(worst_sphere, err)

        X = random_point(rng, 5, 3)
        V = random_tangent(rng, X)
        angles = rng.uniform(1e-3, np.pi - 1e-3, size=5)
        rows = V / np.linalg.norm(V, axis=1)[:, None] * angles[:, None]
        Y = ps_exp(X, rows)
        err = np.linalg.norm(ps_exp(X, ps_log(X, Y).vec) - Y)
        worst_product = max(worst_product, err)

        X = random_point(rng, 5, 3)
        H = horizontal_project(X, random_tangent(rng, X, scale=0.4))
        Y = ps_exp(X, H.vec)
        Z = orbit_exp(X, orbit_log(X, Y))
        worst_orbit = max(worst_orbit, orbit_dist(Z, Y))
    elapsed = time.perf_counter() - t0
    assert worst_sphere < 1e-9
    assert worst_product < 1e-9
    assert worst_orbit < 1e-6
    assert elapsed < 60.0
    _report(
        "6 exp/log round trips",
        f"sphere {worst_sphere:.1e}, product {worst_product:.1e}, "
        f"orbit {worst_orbit:.1e}, {elapsed:.1f}s",
    )


# 7 ------------------------------------------------------------------------------


def _rank_r_point(rng, m, k, r):
    if r == 1:
        u = rng.standard_normal(k)
        u /= np.linalg.norm(u)
        return np.tile(u, (m, 1))
    B = np.linalg.qr(rng.standard_normal((k, r)))[0]
    while True:
        C = rng.standard_normal((m, r))
        X = C @ B.T
        n = np.linalg.norm(X, axis=1)
        if n.min() > 1e-2 and numerical_rank(X / n[:, None]) == r:
            return X / n[:, None]


def test_criterion_07_rank_constancy_along_geodesics():
    rng = np.random.default_rng(707)
    ranks = [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]
    checked = 0
    for trial in range(20):
        ra, rb = ranks[trial % len(ranks)]
        X = _rank_r_point(rng, 5, 3, ra)
        Y = _rank_r_point(rng, 5, 3, rb)
        V = orbit_log(X, Y)
        seg = GeodesicSegment(start=X, velocity=V, duration=1.0)
        profile = geodesic_rank_profile(seg, samples=17)
        interior = [r for _, r in profile[1:-1]]
        endpoint_max = max(profile[0][1], profile[-1][1])
        assert len(set(interior)) == 1
        assert interior[0] >= endpoint_max
        checked += 1
    _report(
        "7 rank constancy",
        f"{checked} geodesics with endpoint ranks from {{1,2,3}}, "
        "interior rank constant and >= endpoints",
    )


# 8 ------------------------------------------------------------------------------


def test_criterion_08_frechet_midpoints():
    rng = np.random.default_rng(808)
    worst_mono, worst_mid = -np.inf, 0.0
    for _ in range(10):
        X = random_point(rng, 4, 2)
        H = horizontal_project(X, random_tangent(rng, X, scale=0.5))
        Y = ps_exp(X, H.vec)
        rep = frechet_mean([X, Y])
        hist = rep.loss_history
        worst_mono = max(
            worst_mono, max(b - a for a, b in zip(hist, hist[1:]))
        )
        assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))
        half = orbit_dist(X, Y) / 2.0
        for S in (X, Y):
            dev = abs(orbit_dist(rep.mean, S) - half)
            worst_mid = max(worst_mid, dev)
            assert dev < 1e-3
    _report(
        "8 frechet midpoints",
        f"10 nearby pairs, worst history increase {worst_mono:+.1e}, "
        f"worst midpoint deviation {worst_mid:.1e}",
    )


# 9 ------------------------------------------------------------------------------


def test_criterion_09_factorization_round_trip():
    rng = np.random.default_rng(909)
    worst_fro, worst_orbit = 0.0, 0.0
    for trial in range(30):
        m = 3 + trial % 6  # 3..8
        r = 2 + trial % 2  # 2 or 3
        Z = gram(random_point(rng, m, r)).entries
        X = factorize(Z, r)
        worst_fro = max(
            worst_fro, float(np.linalg.norm(gram(X).entries - Z, "fro"))
        )
        X2 = factorize(gram(X).entries, r)
        worst_orbit = max(worst_orbit, orbit_dist(X, X2))
    assert worst_fro < 1e-8
    assert worst_orbit < 1e-6
    _report(
        "9 factorization round trip",
        f"30 matrices m<=8, worst Frobenius {worst_fro:.1e}, "
        f"worst representative drift {worst_orbit:.1e}",
    )


# 10 -----------------------------------------------------------------------------


def _collapse_direction(rng, X):
    """Unit-speed horizontal direction driving all rows collinear mod sign."""
    theta = np.arctan2(X[:, 1], X[:, 0])
    alpha = float(rng.uniform(0.0, np.pi))
    delta = np.mod(alpha - theta + np.pi / 2.0, np.pi) - np.pi / 2.0
    delta -= delta.mean()  # horizontality: the rotation amounts sum to zero
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    V = delta[:, None] * (X @ J.T)
    return V, float(np.linalg.norm(delta))


def test_criterion_10_finite_escape_times():
    rng = np.random.default_rng(1010)
    checked = 0
    for m in (2, 4):
        for _ in range(10):
            X = random_point(rng, m, 2)
            V, speed = _collapse_direction(rng, X)
            while numerical_rank(X) < 2 or speed < 0.1:
                X = random_point(rng, m, 2)
                V, speed = _collapse_direction(rng, X)
            Vhat = V / speed
            assert horizontality_defect(X, Vhat) < 1e-10
            lo, hi = max_full_rank_interval(X, Vhat, t_max_search=4.0)
            assert 0.0 < hi <= np.pi + 1e-3
            assert lo < 0.0
            checked += 1
    X = np.eye(2)
    V = np.array([[0.0, 1.0], [0.0, 0.0]])
    _, hi = max_full_rank_interval(X, V, t_max_search=4.0)
    assert abs(hi - np.pi / 2.0) < 1e-4
    _report(
        "10 finite escape times",
        f"{checked} collapse directions bounded by pi, "
        f"analytic collision at {hi:.6f} vs pi/2",
    )


# 11 -----------------------------------------------------------------------------


def _write_series_csv(path, columns, values):
    lines = [",".join(columns)]
    for row in values:
        lines.append(",".join(f"{v:.12g}" for v in row))
    path.write_text("\n".join(lines) + "\n")


def _planted_center(rho, m, kind):
    if kind == "equi":
        Z = np.full((m, m), rho)
    else:
        idx = np.arange(m)
        Z = rho ** np.abs(np.subtract.outer(idx, idx))
    np.fill_diagonal(Z, 1.0)
    return Z


def test_criterion_11_pipeline_determinism_and_recovery(tmp_path):
    t0 = time.perf_counter()
    cols = ["a", "b", "c", "d"]

    # determinism: the same manifest and seed produce identical bytes
    rng = np.random.default_rng(1111)
    det = tmp_path / "det"
    det.mkdir()
    subjects = []
    for i in range(6):
        _write_series_csv(det / f"s{i}.csv", cols, rng.standard_normal((200, 4)))
        subjects.append({"subject_id": f"s{i}", "path": f"s{i}.csv"})
    man = det / "cohort.json"
    man.write_text(json.dumps({"subjects": subjects}))
    out1, out2 = det / "r1", det / "r2"
    assert cli_main(["dist", str(man), "--out", str(out1), "--seed", "0"]) == 0
    assert cli_main(["dist", str(man), "--out", str(out2), "--seed", "0"]) == 0
    b1 = (out1 / "distances.csv").read_bytes()
    b2 = (out2 / "distances.csv").read_bytes()
    assert b1 == b2

    # recovery: two planted correlation centers, three subjects each
    plant = tmp_path / "plant"
    plant.mkdir()
    centers = {
        "g1": _planted_center(0.55, 4, "equi"),
        "g2": _planted_center(-0.35, 4, "ar"),
    }
    chol = {g: np.linalg.cholesky(Z) for g, Z in centers.items()}
    subjects = []
    for i, g in enumerate(["g1"] * 3 + ["g2"] * 3):
        srng = np.random.default_rng(100 + i)
        vals = srng.standard_normal((500, 4)) @ chol[g].T
        _write_series_csv(plant / f"p{i}.csv", cols, vals)
        subjects.append({"subject_id": f"p{i}", "path": f"p{i}.csv", "group": g})
    man2 = plant / "cohort.json"
    man2.write_text(json.dumps({"subjects": subjects}))
    out = plant / "means"
    assert cli_main(["mean", str(man2), "--out", str(out), "--seed", "0"]) == 0

    from corrgeo import read_matrix_csv

    gaps = []
    factors = {g: factorize(Z, 4) for g, Z in centers.items()}
    for g, other in (("g1", "g2"), ("g2", "g1")):
        M, _ = read_matrix_csv(out / f"mean_{g}.csv")
        F = factorize(M, 4)
        d_own = orbit_dist(F, factors[g])
        d_other = orbit_dist(F, factors[other])
        assert d_own < d_other
        gaps.append(d_other - d_own)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(
        "11 pipeline determinism and recovery",
        f"identical bytes across reruns; planted centers separated by "
        f"margins {gaps[0]:.3f} and {gaps[1]:.3f}, {elapsed:.1f}s",
    )
