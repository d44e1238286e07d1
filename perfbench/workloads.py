"""The benchmark's three workloads: seeded inputs, one operation, its checks.

Each workload owns a fixed pool of instances generated with numpy alone
(instance ``i`` of workload ``w`` draws from ``default_rng([POOL, w, i])``),
so the stored references in ``refs.json`` cover every input a run can see.
The run seed orders the instances within each round and, for the cohort,
the subjects within each manifest; it never changes the work a round does,
which keeps runs with different seeds comparable.

An operation calls corrgeo only through attribute lookups on the imported
package at call time, so the tracer's rebinding reaches it. ``run`` is the
timed operation (the program call plus reading its outputs back); ``check``
is untimed and returns a list of problems, empty when every output is
correct.
"""

import contextlib
import csv
import io
import json
import shutil
from dataclasses import dataclass, field

import numpy as np

POOL = 20240103

# absolute slack above a reference distance before an output counts as worse
DIST_TOL = 1e-6
# slack below the Procrustes chordal lower bound, for rounding
LB_SLACK = 1e-9
INTERVAL_TOL = 1e-6


@dataclass
class Outcome:
    work: int  # units of Workload.unit completed
    failure: str = ""  # failure the program itself reported, if any
    output: dict = field(default_factory=dict)


def unit_rows(A):
    return A / np.linalg.norm(A, axis=1)[:, None]


def random_rotation(rng, k):
    Q, R = np.linalg.qr(rng.standard_normal((k, k)))
    return Q * np.where(np.diag(R) < 0.0, -1.0, 1.0)


def rank_point(rng, m, k, r):
    """Unit-row m x k matrix of rank exactly r."""
    B = np.linalg.qr(rng.standard_normal((k, r)))[0]
    while True:
        X = rng.standard_normal((m, r)) @ B.T
        norms = np.linalg.norm(X, axis=1)
        if norms.min() > 1e-3 and np.linalg.matrix_rank(X, tol=1e-10) == r:
            return X / norms[:, None]


def chordal_lower_bound(X, Y):
    """sqrt(min_O ||X O - Y||_F^2) for unit-row X, Y: a lower bound on the
    quotient distance, since each row angle is at least its chord."""
    nuclear = np.linalg.svd(X.T @ Y, compute_uv=False).sum()
    return float(np.sqrt(max(0.0, X.shape[0] + Y.shape[0] - 2.0 * nuclear)))


def factor_of(C):
    """Full-width unit-row factor of a correlation matrix (numpy only)."""
    w, V = np.linalg.eigh(C)
    return unit_rows(V * np.sqrt(np.maximum(w, 0.0)))


class Workload:
    name = ""
    unit = ""  # what Outcome.work counts
    entry = ""  # traced name of the function each operation calls first

    def __init__(self, corrgeo, workdir, seed):
        """Generate the pool; workdir holds input files, seed orders inputs."""
        self.cg = corrgeo
        self.ids = []

    def run(self, i) -> Outcome:
        raise NotImplementedError

    def check(self, i, outcome, ref) -> list:
        raise NotImplementedError

    def quality(self, outputs, refs) -> float:
        """Output quality against the references; 1.0 at the seed commit."""
        raise NotImplementedError

    def reference(self, outcome):
        """What refs.json stores for one instance."""
        raise NotImplementedError


class CohortDist(Workload):
    """CLI ``dist`` in-process on two-group cohorts of time-series CSVs."""

    name = "cohort_dist"
    unit = "pairs"
    entry = "cli.main"
    COHORTS = ((4, 6), (4, 8), (3, 10))  # (subjects, variables)
    T = 200

    def __init__(self, corrgeo, workdir, seed):
        super().__init__(corrgeo, workdir, seed)
        order_rng = np.random.default_rng(seed)
        self.manifests, self.bounds = [], []
        for c, (n_sub, m) in enumerate(self.COHORTS):
            rng = np.random.default_rng([POOL, 0, c])
            a = rng.uniform(0.3, 0.6)
            rho = rng.uniform(-0.5, -0.2)
            idx = np.arange(m)
            centers = (
                np.where(np.eye(m) > 0, 1.0, a),
                rho ** np.abs(np.subtract.outer(idx, idx)),
            )
            cdir = workdir / f"c{c}"
            cdir.mkdir(parents=True)
            cols = [f"v{j}" for j in range(m)]
            subjects, factors = [], {}
            for s in range(n_sub):
                group = 0 if s < n_sub // 2 else 1
                vals = rng.standard_normal((self.T, m)) @ np.linalg.cholesky(centers[group]).T
                lines = [",".join(cols)]
                lines += [",".join(f"{v:.17g}" for v in row) for row in vals]
                sid = f"c{c}s{s}"
                (cdir / f"{sid}.csv").write_text("\n".join(lines) + "\n")
                subjects.append({"subject_id": sid, "path": f"{sid}.csv", "group": f"g{group + 1}"})
                factors[sid] = factor_of(np.corrcoef(vals, rowvar=False))
            subjects = [subjects[j] for j in order_rng.permutation(n_sub)]
            manifest = cdir / "cohort.json"
            manifest.write_text(json.dumps({"subjects": subjects}))
            self.manifests.append(manifest)
            self.bounds.append(
                {
                    (a_id, b_id): chordal_lower_bound(factors[a_id], factors[b_id])
                    for a_id in factors
                    for b_id in factors
                    if a_id < b_id
                }
            )
            self.ids.append(f"c{c}")

    def run(self, i):
        out = self.manifests[i].parent / "out"
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self.cg.cli.main(["dist", str(self.manifests[i]), "--out", str(out)])
        output = {}
        failures = [] if rc == 0 else [f"exit code {rc}"]
        try:
            with open(out / "distances.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            report = json.loads((out / "distances_report.json").read_text())
        except (OSError, ValueError) as e:
            return Outcome(0, "; ".join(failures + [f"unreadable output: {e}"]), output)
        output["labels"] = rows[0][1:]
        output["D"] = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
        tol = report["config"]["stagnation_tol"]
        failures += [
            f"pair {p['subject_a']}-{p['subject_b']} stagnated at grad norm {p['grad_norm']:.3e}"
            for p in report["pairs"]
            if p["stagnated"] and p["grad_norm"] > tol
        ]
        return Outcome(len(report["pairs"]), "; ".join(failures), output)

    def pairs(self, output):
        labels, D = output["labels"], output["D"]
        for a in range(len(labels)):
            for b in range(a + 1, len(labels)):
                yield tuple(sorted((labels[a], labels[b]))), D[a, b]

    def check(self, i, outcome, ref):
        out = outcome.output
        if "D" not in out:
            return []  # no output to check; run() counted the failure
        D = out["D"]
        problems = []
        if D.shape != (len(out["labels"]),) * 2:
            return [f"distance matrix has shape {D.shape}"]
        if not np.array_equal(D, D.T):
            problems.append("distance matrix is not symmetric")
        if np.any(np.diag(D) != 0.0):
            problems.append("distance matrix has a nonzero diagonal")
        bounds = self.bounds[i]
        if set(dict(self.pairs(out))) != set(bounds):
            return problems + ["subject labels do not match the manifest"]
        for key, d in self.pairs(out):
            if not bounds[key] - LB_SLACK <= d <= ref["|".join(key)] + DIST_TOL:
                problems.append(
                    f"{key[0]}-{key[1]}: distance {d!r} outside "
                    f"[{bounds[key]!r}, reference {ref['|'.join(key)]!r}]"
                )
        return problems

    def quality(self, outputs, refs):
        """Largest distance / reference distance over all pairs."""
        return max(
            d / refs[self.ids[i]]["|".join(key)]
            for i, out in outputs.items()
            if "D" in out
            for key, d in self.pairs(out)
        )

    def reference(self, outcome):
        return {"|".join(key): float(d) for key, d in self.pairs(outcome.output)}


class FrechetMean(Workload):
    """Library ``frechet_mean`` on bounded-rank sample sets (k < m)."""

    name = "frechet_mean"
    unit = "means"
    entry = "frechet.frechet_mean"
    # (m, k, n, spread): tight groups converge in a few outer iterations and
    # spend most of their time in the O(n^2) initializer; wide ones take many
    SETS = ((30, 3, 4, 0.1), (12, 3, 5, 0.1), (16, 4, 4, 0.3), (12, 3, 4, 0.6))

    def __init__(self, corrgeo, workdir, seed):
        super().__init__(corrgeo, workdir, seed)
        self.samples = []
        for s, (m, k, n, spread) in enumerate(self.SETS):
            rng = np.random.default_rng([POOL, 1, s])
            center = unit_rows(rng.standard_normal((m, k)))
            self.samples.append(
                [
                    unit_rows(center + spread * rng.standard_normal((m, k)))
                    @ random_rotation(rng, k)
                    for _ in range(n)
                ]
            )
            self.ids.append(f"f{s}")

    def run(self, i):
        report = self.cg.frechet_mean(self.samples[i])
        failure = "" if report.converged else (
            f"not converged after {report.outer_iterations} outer iterations"
        )
        output = {
            "loss_history": [float(v) for v in report.loss_history],
            "outer_iterations": report.outer_iterations,
        }
        return Outcome(1, failure, output)

    def check(self, i, outcome, ref):
        hist = outcome.output["loss_history"]
        return [
            f"loss_history increases at step {j + 1}: {a!r} -> {b!r}"
            for j, (a, b) in enumerate(zip(hist, hist[1:]))
            if b > a + 1e-12 * max(1.0, abs(a))
        ]

    def quality(self, outputs, refs):
        """Sum of final losses / sum of reference losses."""
        ids = sorted(outputs)
        return sum(outputs[i]["loss_history"][-1] for i in ids) / sum(
            refs[self.ids[i]] for i in ids
        )

    def reference(self, outcome):
        return outcome.output["loss_history"][-1]


class GeodesicRank(Workload):
    """orbit_log + geodesic_rank_profile, plus escape times at full-rank bases."""

    name = "geodesic_rank"
    unit = "ops"
    entry = "quotient_space.orbit_log"
    PAIRS = 32
    SAMPLES = 17
    T_MAX = 4.0

    def __init__(self, corrgeo, workdir, seed):
        super().__init__(corrgeo, workdir, seed)
        self.points, self.full_rank, self.bounds = [], [], []
        for p in range(self.PAIRS):
            rng = np.random.default_rng([POOL, 2, p])
            m = int(rng.integers(5, 9))
            k = int(rng.integers(3, 5))
            rx, ry = (int(r) for r in rng.integers(1, k + 1, size=2))
            X, Y = rank_point(rng, m, k, rx), rank_point(rng, m, k, ry)
            self.points.append((X, Y))
            self.full_rank.append(rx == k)
            self.bounds.append(chordal_lower_bound(X, Y))
            self.ids.append(f"g{p:02d}")

    def run(self, i):
        cg = self.cg
        X, Y = self.points[i]
        try:
            V = cg.orbit_log(X, Y)
        except (cg.AlignmentStagnation, cg.AntipodalLogarithm) as e:
            return Outcome(0, f"{type(e).__name__}: {e}")
        seg = cg.GeodesicSegment(start=V.base, velocity=V, duration=1.0)
        profile = cg.geodesic_rank_profile(seg, samples=self.SAMPLES)
        interval = None
        if self.full_rank[i]:
            interval = cg.max_full_rank_interval(V.base, V, t_max_search=self.T_MAX)
        output = {
            "log_norm": float(np.linalg.norm(V.vec)),
            "profile": [[float(t), int(r)] for t, r in profile],
            "interval": None if interval is None else [float(t) for t in interval],
        }
        return Outcome(1, "", output)

    def check(self, i, outcome, ref):
        out = outcome.output
        if not out:
            return []  # the program's own failure, counted in Outcome.failure
        problems = []
        ranks = [r for _, r in out["profile"]]
        interior = ranks[1:-1]
        if len(set(interior)) != 1 or interior[0] < max(ranks[0], ranks[-1]):
            problems.append(f"rank profile {ranks} is not constant inside or drops below an endpoint")
        ref_ts = [t for t, _ in ref["profile"]]
        ts = [t for t, _ in out["profile"]]
        if ranks != [r for _, r in ref["profile"]] or not np.allclose(ts, ref_ts, rtol=0, atol=1e-12):
            problems.append(f"rank profile {ranks} differs from the reference")
        if (out["interval"] is None) != (ref["interval"] is None) or (
            out["interval"] is not None
            and not np.allclose(out["interval"], ref["interval"], rtol=0, atol=INTERVAL_TOL)
        ):
            problems.append(f"interval {out['interval']} differs from reference {ref['interval']}")
        if not self.bounds[i] - LB_SLACK <= out["log_norm"] <= ref["log_norm"] + DIST_TOL:
            problems.append(
                f"log norm {out['log_norm']!r} outside "
                f"[{self.bounds[i]!r}, reference {ref['log_norm']!r}]"
            )
        return problems

    def quality(self, outputs, refs):
        """Largest log norm (the quotient distance) / reference."""
        return max(
            out["log_norm"] / refs[self.ids[i]]["log_norm"]
            for i, out in outputs.items()
            if out
        )

    def reference(self, outcome):
        return outcome.output


WORKLOADS = {w.name: w for w in (CohortDist, FrechetMean, GeodesicRank)}
