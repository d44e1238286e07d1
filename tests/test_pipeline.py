import json

import numpy as np
import pytest

from corrgeo import (
    DEFAULT_CONFIG,
    DegenerateInput,
    DistanceRun,
    EmptyFile,
    InvalidCorrelation,
    InvalidInput,
    PairReport,
    ParseError,
    correlation_of,
    difference_report,
    factorize,
    group_means,
    ingest,
    load_cohort,
    load_manifest,
    orbit_dist,
    pairwise_distances,
    read_factor_csv,
    read_matrix_csv,
    write_factor_csv,
    write_matrix_csv,
    write_run_report,
)
from corrgeo import pipeline
from corrgeo.pipeline import CohortManifest, DropPolicy, SubjectSpec, TimeSeriesTable


def _write_csv(path, columns, values):
    lines = [",".join(columns)]
    for row in values:
        lines.append(",".join(f"{v:.12g}" for v in row))
    path.write_text("\n".join(lines) + "\n")


def _random_subject(rng, path, columns, T=200):
    vals = rng.standard_normal((T, len(columns)))
    _write_csv(path, columns, vals)
    return vals


def _manifest_json(path, subjects, k=None):
    doc = {"subjects": subjects}
    if k is not None:
        doc["k"] = k
    path.write_text(json.dumps(doc))
    return path


# ingest ------------------------------------------------------------------------


def test_ingest_small_table(tmp_path):
    p = tmp_path / "ts.csv"
    _write_csv(p, ["a", "b"], [[1.0, 2.0], [3.0, 4.0], [5.0, 6.5]])
    ts = ingest(p)
    assert ts.columns == ("a", "b")
    assert ts.values.shape == (3, 2)
    assert ts.values[2, 1] == 6.5


def test_ingest_nan_names_row_and_column(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\n1.0,2.0\n3.0,nan\n")
    with pytest.raises(ParseError) as exc:
        ingest(p)
    msg = str(exc.value)
    assert "line 3" in msg and "column b" in msg


def test_ingest_unparseable_cell(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\n1.0,oops\n2.0,3.0\n")
    with pytest.raises(ParseError) as exc:
        ingest(p)
    assert "line 2" in str(exc.value)


def test_ingest_header_only_is_empty(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("a,b,c\n")
    with pytest.raises(EmptyFile):
        ingest(p)


def test_ingest_rejects_duplicate_columns(tmp_path):
    p = tmp_path / "dup.csv"
    p.write_text("a,a\n1.0,2.0\n3.0,4.0\n")
    with pytest.raises(ParseError):
        ingest(p)


def test_table_needs_two_rows():
    with pytest.raises(DegenerateInput):
        TimeSeriesTable(columns=("a", "b"), values=[[1.0, 2.0]])


# correlation ----------------------------------------------------------------------


def test_correlation_perfectly_correlated_columns():
    t = np.linspace(0.0, 1.0, 50)
    ts = TimeSeriesTable(columns=("a", "b"), values=np.stack([t, 2.0 * t + 1.0], axis=1))
    C, kept, dropped = correlation_of(ts)
    assert kept == ("a", "b") and dropped == ()
    assert abs(C.entries[0, 1] - 1.0) < 1e-12


def test_correlation_independent_noise_is_small():
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((10000, 2))
    ts = TimeSeriesTable(columns=("a", "b"), values=vals)
    C, _, _ = correlation_of(ts)
    assert abs(C.entries[0, 1]) < 0.05


def test_correlation_drops_constant_column():
    rng = np.random.default_rng(1)
    vals = rng.standard_normal((100, 3))
    vals[:, 1] = 7.0
    ts = TimeSeriesTable(columns=("a", "b", "c"), values=vals)
    C, kept, dropped = correlation_of(ts)
    assert dropped == ("b",)
    assert kept == ("a", "c")
    assert C.m == 2


def test_correlation_needs_two_varying_columns():
    vals = np.ones((50, 2))
    vals[:, 0] = np.arange(50.0)
    ts = TimeSeriesTable(columns=("a", "b"), values=vals)
    with pytest.raises(DegenerateInput):
        correlation_of(ts)


# manifests ------------------------------------------------------------------------


def test_load_manifest_json(tmp_path):
    rng = np.random.default_rng(2)
    _random_subject(rng, tmp_path / "s1.csv", ["a", "b", "c"])
    m = _manifest_json(
        tmp_path / "cohort.json",
        [{"subject_id": "s1", "path": "s1.csv", "group": "g1"}],
        k=3,
    )
    man = load_manifest(m)
    assert man.k == 3
    assert man.subjects[0] == SubjectSpec("s1", "s1.csv", "g1")
    assert man.resolve(man.subjects[0]) == tmp_path / "s1.csv"


def test_load_manifest_delimited(tmp_path):
    p = tmp_path / "cohort.csv"
    p.write_text("subject_id,path,group\ns1,s1.csv,g1\ns2,s2.csv,g2\n")
    man = load_manifest(p)
    assert len(man.subjects) == 2
    assert man.subjects[1].group == "g2"
    assert man.k is None


def test_load_manifest_rejects_empty(tmp_path):
    p = tmp_path / "cohort.json"
    p.write_text("")
    with pytest.raises(EmptyFile):
        load_manifest(p)
    p.write_text('{"subjects": []}')
    with pytest.raises(ParseError):
        load_manifest(p)


# cohort loading ---------------------------------------------------------------------


def test_load_cohort_intersects_columns(tmp_path):
    rng = np.random.default_rng(3)
    _random_subject(rng, tmp_path / "s1.csv", ["a", "b", "c"])
    _random_subject(rng, tmp_path / "s2.csv", ["b", "a", "d"])
    man = _manifest_json(
        tmp_path / "cohort.json",
        [
            {"subject_id": "s1", "path": "s1.csv"},
            {"subject_id": "s2", "path": "s2.csv"},
        ],
    )
    subjects, common, dropped = load_cohort(load_manifest(man))
    assert common == ("a", "b")  # ordered by the first retained subject
    assert dropped == ()
    assert all(s.corr.m == 2 for s in subjects)


def test_load_cohort_drops_flat_subjects(tmp_path):
    rng = np.random.default_rng(4)
    _random_subject(rng, tmp_path / "s1.csv", ["a", "b", "c"])
    flat = np.ones((50, 3))
    _write_csv(tmp_path / "s2.csv", ["a", "b", "c"], flat)
    _random_subject(rng, tmp_path / "s3.csv", ["a", "b", "c"])
    man = CohortManifest(
        subjects=(
            SubjectSpec("s1", "s1.csv"),
            SubjectSpec("s2", "s2.csv"),
            SubjectSpec("s3", "s3.csv"),
        ),
        drop=DropPolicy(max_zero_variance=2),
        base_dir=str(tmp_path),
    )
    subjects, common, dropped = load_cohort(man)
    assert [s.spec.subject_id for s in subjects] == ["s1", "s3"]
    assert dropped == (("s2", 3),)


# distances -----------------------------------------------------------------------


def test_pairwise_duplicated_subject_is_zero(tmp_path):
    rng = np.random.default_rng(5)
    vals = _random_subject(rng, tmp_path / "s1.csv", ["a", "b", "c", "d"])
    _write_csv(tmp_path / "s2.csv", ["a", "b", "c", "d"], vals)
    man = _manifest_json(
        tmp_path / "cohort.json",
        [
            {"subject_id": "s1", "path": "s1.csv"},
            {"subject_id": "s2", "path": "s2.csv"},
        ],
    )
    run = pairwise_distances(load_manifest(man))
    assert run.distances.shape == (2, 2)
    assert np.max(np.abs(run.distances)) < 1e-8
    assert not run.any_stagnation


def test_pairwise_affine_transform_is_same_orbit(tmp_path):
    # rescaling and shifting columns leaves the correlation unchanged
    rng = np.random.default_rng(6)
    vals = _random_subject(rng, tmp_path / "s1.csv", ["a", "b", "c", "d"])
    scaled = vals * np.array([2.0, 0.5, 3.0, 10.0]) + np.array([1.0, -2.0, 0.0, 4.0])
    _write_csv(tmp_path / "s2.csv", ["a", "b", "c", "d"], scaled)
    man = _manifest_json(
        tmp_path / "cohort.json",
        [
            {"subject_id": "s1", "path": "s1.csv"},
            {"subject_id": "s2", "path": "s2.csv"},
        ],
    )
    run = pairwise_distances(load_manifest(man))
    assert run.distances[0, 1] < 1e-6


def test_pairwise_metric_shape(tmp_path):
    rng = np.random.default_rng(7)
    subjects = []
    for i in range(4):
        _random_subject(rng, tmp_path / f"s{i}.csv", ["a", "b", "c", "d"])
        subjects.append({"subject_id": f"s{i}", "path": f"s{i}.csv"})
    man = _manifest_json(tmp_path / "cohort.json", subjects)
    run = pairwise_distances(load_manifest(man))
    D = run.distances
    assert np.array_equal(D, D.T)
    assert np.all(np.diag(D) == 0.0)
    assert np.all(D >= 0.0)
    assert run.k == 4
    assert len(run.pair_reports) == 6
    # the pipeline's distances are orbit_dist's, bit for bit
    subjects, _, _ = load_cohort(load_manifest(man))
    factors = [factorize(s.corr, run.k) for s in subjects]
    for i in range(4):
        for j in range(4):
            if i != j:
                assert D[i, j] == orbit_dist(factors[i], factors[j])


@pytest.mark.parametrize("entry", [pairwise_distances, group_means])
def test_factorization_error_names_subject_and_keeps_payload(tmp_path, monkeypatch, entry):
    rng = np.random.default_rng(11)
    for i in range(2):
        _random_subject(rng, tmp_path / f"s{i}.csv", ["a", "b", "c"])
    man = _manifest_json(
        tmp_path / "cohort.json",
        [{"subject_id": f"s{i}", "path": f"s{i}.csv"} for i in range(2)],
    )
    raised = InvalidCorrelation("not positive semidefinite", violations=("psd",))

    def fail(corr, width):
        raise raised

    monkeypatch.setattr(pipeline, "factorize", fail)
    with pytest.raises(InvalidCorrelation) as info:
        entry(load_manifest(man))
    assert info.value is raised
    assert info.value.violations == ("psd",)
    assert str(info.value) == "subject s0: not positive semidefinite"


def test_pairwise_subject_order_does_not_change_values(tmp_path):
    rng = np.random.default_rng(8)
    _random_subject(rng, tmp_path / "s1.csv", ["a", "b", "c"])
    _random_subject(rng, tmp_path / "s2.csv", ["c", "b", "a"])
    fwd = _manifest_json(
        tmp_path / "fwd.json",
        [
            {"subject_id": "s1", "path": "s1.csv"},
            {"subject_id": "s2", "path": "s2.csv"},
        ],
    )
    rev = _manifest_json(
        tmp_path / "rev.json",
        [
            {"subject_id": "s2", "path": "s2.csv"},
            {"subject_id": "s1", "path": "s1.csv"},
        ],
    )
    d1 = pairwise_distances(load_manifest(fwd)).distances[0, 1]
    d2 = pairwise_distances(load_manifest(rev)).distances[0, 1]
    assert abs(d1 - d2) < 1e-10


def test_pairwise_deterministic(tmp_path):
    rng = np.random.default_rng(9)
    for i in range(3):
        _random_subject(rng, tmp_path / f"s{i}.csv", ["a", "b", "c"])
    man = _manifest_json(
        tmp_path / "cohort.json",
        [{"subject_id": f"s{i}", "path": f"s{i}.csv"} for i in range(3)],
    )
    r1 = pairwise_distances(load_manifest(man))
    r2 = pairwise_distances(load_manifest(man))
    assert np.array_equal(r1.distances, r2.distances)


def test_any_stagnation_uses_the_run_tolerance(tmp_path):
    report = PairReport(
        subject_a="s1",
        subject_b="s2",
        distance=1.0,
        loss=1.0,
        grad_norm=1e-7,
        iterations=3,
        converged=False,
        restarts_used=5,
        stagnated=True,
    )
    run = DistanceRun(
        subject_ids=("s1", "s2"),
        distances=np.zeros((2, 2)),
        pair_reports=[report],
        common_columns=("a", "b"),
        dropped_subjects=(),
        k=2,
        stagnation_tol=1e-8,
    )
    assert run.any_stagnation
    run.stagnation_tol = 1e-6
    assert not run.any_stagnation

    rng = np.random.default_rng(10)
    for i in range(2):
        _random_subject(rng, tmp_path / f"s{i}.csv", ["a", "b", "c"])
    man = _manifest_json(
        tmp_path / "cohort.json",
        [{"subject_id": f"s{i}", "path": f"s{i}.csv"} for i in range(2)],
    )
    cfg = DEFAULT_CONFIG.with_(stagnation_tol=1e-9)
    assert pairwise_distances(load_manifest(man), cfg).stagnation_tol == 1e-9


# group means ----------------------------------------------------------------------


def test_group_means_of_identical_correlations(tmp_path):
    rng = np.random.default_rng(10)
    vals = _random_subject(rng, tmp_path / "s1.csv", ["a", "b", "c"])
    _write_csv(tmp_path / "s2.csv", ["a", "b", "c"], vals * 3.0 + 1.0)
    _write_csv(tmp_path / "s3.csv", ["a", "b", "c"], vals * 0.5 - 2.0)
    man = _manifest_json(
        tmp_path / "cohort.json",
        [
            {"subject_id": f"s{i}", "path": f"s{i}.csv", "group": "g"}
            for i in (1, 2, 3)
        ],
    )
    means, dropped = group_means(load_manifest(man))
    assert dropped == ()
    assert len(means) == 1
    gm = means[0]
    assert gm.group == "g"
    assert gm.subject_ids == ("s1", "s2", "s3")
    ref, _, _ = correlation_of(TimeSeriesTable(columns=("a", "b", "c"), values=vals))
    assert np.max(np.abs(gm.corr.entries - ref.entries)) < 1e-8
    assert gm.report.converged


def test_group_means_singleton_groups(tmp_path):
    rng = np.random.default_rng(11)
    _random_subject(rng, tmp_path / "s1.csv", ["a", "b", "c"])
    _random_subject(rng, tmp_path / "s2.csv", ["a", "b", "c"])
    man = _manifest_json(
        tmp_path / "cohort.json",
        [
            {"subject_id": "s1", "path": "s1.csv", "group": "g1"},
            {"subject_id": "s2", "path": "s2.csv", "group": "g2"},
        ],
    )
    means, _ = group_means(load_manifest(man))
    assert [m.group for m in means] == ["g1", "g2"]
    subjects, _, _ = load_cohort(load_manifest(man))
    for gm, s in zip(means, subjects):
        assert np.max(np.abs(gm.corr.entries - s.corr.entries)) < 1e-8


def test_group_means_unknown_group(tmp_path):
    rng = np.random.default_rng(12)
    _random_subject(rng, tmp_path / "s1.csv", ["a", "b"])
    man = _manifest_json(
        tmp_path / "cohort.json", [{"subject_id": "s1", "path": "s1.csv"}]
    )
    with pytest.raises(InvalidInput):
        group_means(load_manifest(man), group="nope")


# difference reports ------------------------------------------------------------------


def test_difference_report_thresholding():
    A = np.eye(3)
    B = np.eye(3)
    A[0, 1] = A[1, 0] = 0.6
    A[0, 2] = A[2, 0] = 0.1
    B[1, 2] = B[2, 1] = -0.2
    rep = difference_report(A, B, threshold=0.15, columns=("x", "y", "z"))
    assert np.allclose(rep.difference, A - B)
    assert rep.thresholded[0, 2] == 0.0  # |0.1| below threshold
    assert rep.entries[0] == ("x", "y", 0.6)
    assert rep.entries[1] == ("y", "z", 0.2)
    with pytest.raises(InvalidInput):
        difference_report(A, B, threshold=-0.1)


def test_difference_report_zero_threshold_keeps_everything():
    rng = np.random.default_rng(13)
    A = rng.standard_normal((3, 3))
    rep = difference_report(A, np.zeros((3, 3)), threshold=0.0)
    assert len(rep.entries) == 3
    mags = [abs(v) for _, _, v in rep.entries]
    assert mags == sorted(mags, reverse=True)


# serialization ----------------------------------------------------------------------


def test_matrix_csv_round_trip(tmp_path):
    rng = np.random.default_rng(14)
    M = rng.standard_normal((4, 4))
    p = tmp_path / "m.csv"
    write_matrix_csv(p, M, ["w", "x", "y", "z"])
    M2, labels = read_matrix_csv(p)
    assert labels == ("w", "x", "y", "z")
    assert np.array_equal(M, M2)  # 17 significant digits restore doubles exactly


def test_matrix_csv_byte_stable(tmp_path):
    rng = np.random.default_rng(15)
    M = rng.standard_normal((3, 3))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_matrix_csv(p1, M, ["a", "b", "c"])
    write_matrix_csv(p2, M.copy(), ["a", "b", "c"])
    assert p1.read_bytes() == p2.read_bytes()


def test_factor_csv_round_trip(tmp_path):
    rng = np.random.default_rng(16)
    X = rng.standard_normal((5, 3))
    p = tmp_path / "x.csv"
    write_factor_csv(p, X)
    assert np.array_equal(read_factor_csv(p), X)


def test_run_report_serializes_arrays_and_dataclasses(tmp_path):
    p = tmp_path / "report.json"
    payload = {
        "distances": np.array([[0.0, 1.5], [1.5, 0.0]]),
        "spec": SubjectSpec("s1", "s1.csv", "g"),
        "count": np.int64(3),
    }
    write_run_report(p, payload)
    doc = json.loads(p.read_text())
    assert doc["distances"] == [[0.0, 1.5], [1.5, 0.0]]
    assert doc["spec"]["subject_id"] == "s1"
    assert doc["count"] == 3
