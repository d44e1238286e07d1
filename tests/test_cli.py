import json

import numpy as np

from corrgeo import factorize, write_factor_csv, write_matrix_csv
from corrgeo.cli import main

from conftest import random_correlation, random_point


def _write_csv(path, columns, values):
    lines = [",".join(columns)]
    for row in values:
        lines.append(",".join(f"{v:.12g}" for v in row))
    path.write_text("\n".join(lines) + "\n")


def _cohort(tmp_path, rng, n, columns=("a", "b", "c"), groups=None, T=150):
    subjects = []
    for i in range(n):
        _write_csv(tmp_path / f"s{i}.csv", columns, rng.standard_normal((T, len(columns))))
        entry = {"subject_id": f"s{i}", "path": f"s{i}.csv"}
        if groups:
            entry["group"] = groups[i % len(groups)]
        subjects.append(entry)
    man = tmp_path / "cohort.json"
    man.write_text(json.dumps({"subjects": subjects}))
    return man


# validate --------------------------------------------------------------------


def test_validate_accepts_identity(tmp_path, capsys):
    p = tmp_path / "corr.csv"
    write_matrix_csv(p, np.eye(3), ["a", "b", "c"])
    assert main(["validate", str(p)]) == 0
    out = capsys.readouterr().out
    assert "valid correlation matrix" in out
    assert "rank 3" in out


def test_validate_rejects_bad_diagonal(tmp_path, capsys):
    Z = np.eye(3)
    Z[0, 0] = 0.8
    p = tmp_path / "corr.csv"
    write_matrix_csv(p, Z, ["a", "b", "c"])
    assert main(["validate", str(p)]) == 2
    assert "UnitDiagonalViolation" in capsys.readouterr().out


def test_validate_missing_file_is_io_error(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "absent.csv")]) == 4


# corr ------------------------------------------------------------------------


def test_corr_writes_per_subject_matrices(tmp_path, capsys):
    rng = np.random.default_rng(0)
    man = _cohort(tmp_path, rng, 2)
    out = tmp_path / "out"
    assert main(["corr", str(man), "--out", str(out)]) == 0
    for sid in ("s0", "s1"):
        dest = out / f"{sid}_corr.csv"
        assert dest.exists()
        assert main(["validate", str(dest)]) == 0


# dist ------------------------------------------------------------------------


def test_dist_outputs_and_report(tmp_path, capsys):
    rng = np.random.default_rng(1)
    man = _cohort(tmp_path, rng, 3)
    out = tmp_path / "out"
    assert main(["dist", str(man), "--out", str(out), "--seed", "0"]) == 0
    D_text = (out / "distances.csv").read_text()
    assert D_text.startswith("id,s0,s1,s2")
    doc = json.loads((out / "distances_report.json").read_text())
    assert doc["command"] == "dist"
    assert doc["k"] == 3
    assert len(doc["pairs"]) == 3
    assert all(p["converged"] for p in doc["pairs"])
    assert doc["wall_seconds"] > 0.0


def test_dist_deterministic_bytes(tmp_path):
    rng = np.random.default_rng(2)
    man = _cohort(tmp_path, rng, 3)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["dist", str(man), "--out", str(out1), "--seed", "7"]) == 0
    assert main(["dist", str(man), "--out", str(out2), "--seed", "7"]) == 0
    a = (out1 / "distances.csv").read_bytes()
    b = (out2 / "distances.csv").read_bytes()
    assert a == b


def test_dist_bad_manifest_is_io_error(tmp_path):
    p = tmp_path / "nope.json"
    assert main(["dist", str(p)]) == 4


# mean ------------------------------------------------------------------------


def test_mean_per_group_outputs(tmp_path, capsys):
    rng = np.random.default_rng(3)
    man = _cohort(tmp_path, rng, 4, groups=("g1", "g2"))
    out = tmp_path / "out"
    assert main(["mean", str(man), "--out", str(out), "--seed", "0"]) == 0
    for label in ("g1", "g2"):
        assert (out / f"mean_{label}.csv").exists()
        doc = json.loads((out / f"mean_{label}_report.json").read_text())
        assert doc["converged"] is True
        hist = doc["loss_history"]
        assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))
        # emitted mean must itself be a valid correlation matrix
        assert main(["validate", str(out / f"mean_{label}.csv")]) == 0


def test_mean_single_group_flag(tmp_path):
    rng = np.random.default_rng(4)
    man = _cohort(tmp_path, rng, 4, groups=("g1", "g2"))
    out = tmp_path / "out"
    assert main(["mean", str(man), "--group", "g1", "--out", str(out)]) == 0
    assert (out / "mean_g1.csv").exists()
    assert not (out / "mean_g2.csv").exists()


def test_mean_unknown_group_is_validation_error(tmp_path, capsys):
    rng = np.random.default_rng(5)
    man = _cohort(tmp_path, rng, 2)
    assert main(["mean", str(man), "--group", "missing"]) == 2


def test_mean_rank_above_width_names_subject(tmp_path, capsys):
    rng = np.random.default_rng(6)
    man = _cohort(tmp_path, rng, 2)
    assert main(["mean", str(man), "--k", "2"]) == 2
    err = capsys.readouterr().err
    assert "subject s0: " in err and "exceeds requested width 2" in err


# diff ------------------------------------------------------------------------


def test_diff_thresholded_output(tmp_path, capsys):
    rng = np.random.default_rng(6)
    A = random_correlation(rng, 3, 3)
    B = np.eye(3)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_matrix_csv(pa, A, ["x", "y", "z"])
    write_matrix_csv(pb, B, ["x", "y", "z"])
    out = tmp_path / "out"
    assert main(
        ["diff", str(pa), str(pb), "--threshold", "0.05", "--out", str(out)]
    ) == 0
    assert (out / "diff.csv").exists()
    T_text = (out / "diff_thresholded.csv").read_text()
    assert T_text.startswith("id,x,y,z")
    printed = capsys.readouterr().out
    assert "above threshold" in printed


def test_diff_mismatched_columns(tmp_path, capsys):
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_matrix_csv(pa, np.eye(2), ["x", "y"])
    write_matrix_csv(pb, np.eye(2), ["x", "z"])
    assert main(["diff", str(pa), str(pb), "--threshold", "0.1"]) == 2


# geodesic --------------------------------------------------------------------


def test_geodesic_profile_to_file(tmp_path):
    rng = np.random.default_rng(7)
    X = random_point(rng, 5, 3)
    Z = random_correlation(rng, 5, 3)
    W = factorize(Z, 3)
    px, py = tmp_path / "x.csv", tmp_path / "y.csv"
    write_factor_csv(px, X)
    write_factor_csv(py, W)
    dest = tmp_path / "profile.csv"
    assert main(
        ["geodesic", str(px), str(py), "--samples", "5", "--out", str(dest)]
    ) == 0
    lines = dest.read_text().strip().splitlines()
    assert lines[0] == "t,rank"
    assert len(lines) == 1 + 5 + 2
    ranks = [int(l.split(",")[1]) for l in lines[1:]]
    assert all(1 <= r <= 3 for r in ranks)


def test_geodesic_profile_to_stdout(tmp_path, capsys):
    rng = np.random.default_rng(8)
    X = random_point(rng, 4, 2)
    Y = random_point(rng, 4, 2)
    px, py = tmp_path / "x.csv", tmp_path / "y.csv"
    write_factor_csv(px, X)
    write_factor_csv(py, Y)
    assert main(["geodesic", str(px), str(py), "--samples", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("t,rank")
    assert len(out.strip().splitlines()) == 6


def test_geodesic_invalid_factor_is_validation_error(tmp_path, capsys):
    px, py = tmp_path / "x.csv", tmp_path / "y.csv"
    write_factor_csv(px, np.eye(2) * 2.0)  # rows not unit
    write_factor_csv(py, np.eye(2))
    assert main(["geodesic", str(px), str(py)]) == 2
