import dataclasses
import json

import numpy as np
import pytest

from corrgeo import (
    DEFAULT_CONFIG,
    AlignmentStagnation,
    AntipodalLogarithm,
    CorrGeoError,
    DegenerateInput,
    EmptyFile,
    InvalidCorrelation,
    InvalidInput,
    ParseError,
    RankExceedsK,
    factorize,
    write_factor_csv,
    write_matrix_csv,
)
from corrgeo import SolverReport, cli, product_sphere
from corrgeo.cli import main
from corrgeo.quotient_space import SearchReport, _align_pairs

from conftest import count_decompositions, random_correlation, random_point


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


def _series_cohort(tmp_path, series):
    """A one-group cohort of the given T x m series, columns a, b, ..."""
    subjects = []
    for i, values in enumerate(series):
        _write_csv(tmp_path / f"s{i}.csv", tuple("abcdefgh"[: values.shape[1]]), values)
        subjects.append({"subject_id": f"s{i}", "path": f"s{i}.csv"})
    man = tmp_path / "cohort.json"
    man.write_text(json.dumps({"subjects": subjects}))
    return man


def _report(path):
    return json.loads(path.read_text())


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


def test_validate_mislabeled_rows_is_io_error(tmp_path, capsys):
    p = tmp_path / "corr.csv"
    p.write_text("id,a,b\nx,1,0.5\ny,0.5,1\n")
    assert main(["validate", str(p)]) == 4
    assert "line 2 is labeled 'x', expected 'a'" in capsys.readouterr().err


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
    # every start is counted; the retired ones never win, so one is left
    assert all(0 <= p["retired"] < p["restarts_used"] for p in doc["pairs"])
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


def test_reruns_reproduce_every_output(tmp_path):
    # CSVs byte for byte, JSON reports apart from wall_seconds, the run's
    # wall-clock time: every pair's and every alignment's record, retired
    # and restarts_used among them
    rng = np.random.default_rng(2)
    man = _cohort(tmp_path, rng, 4, groups=("g1", "g2"))
    outs = [tmp_path / "r1", tmp_path / "r2"]
    for out in outs:
        for command in ("dist", "mean"):
            assert main([command, str(man), "--out", str(out), "--seed", "7"]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    assert "distances_report.json" in names and "mean_g2_report.json" in names
    for name in names:
        a, b = ((out / name).read_bytes() for out in outs)
        if name.endswith(".json"):
            a, b = (json.loads(d) for d in (a, b))
            assert a.pop("wall_seconds") > 0.0 and b.pop("wall_seconds") > 0.0
            records = a.get("pairs", a.get("alignments"))
            assert records and all("retired" in r and "restarts_used" in r for r in records)
        assert a == b, name


def test_dist_bad_manifest_is_io_error(tmp_path):
    p = tmp_path / "nope.json"
    assert main(["dist", str(p)]) == 4


def test_dist_bad_manifest_setting_is_io_error(tmp_path, capsys):
    man = _cohort(tmp_path, np.random.default_rng(0), 2)
    man.write_text(json.dumps({**json.loads(man.read_text()), "k": "3"}))
    assert main(["dist", str(man), "--out", str(tmp_path / "out")]) == 4
    assert "k must be" in capsys.readouterr().err


def test_dist_duplicate_subject_id_is_io_error(tmp_path, capsys):
    man = _cohort(tmp_path, np.random.default_rng(0), 2)
    doc = json.loads(man.read_text())
    doc["subjects"][1]["subject_id"] = "s0"
    man.write_text(json.dumps(doc))
    assert main(["dist", str(man), "--out", str(tmp_path / "out")]) == 4
    assert "subject_id 's0' is listed twice" in capsys.readouterr().err
    assert not (tmp_path / "out" / "distances.csv").exists()


def test_dist_one_row_subject_is_validation_error_naming_it(tmp_path, capsys):
    rng = np.random.default_rng(0)
    man = _cohort(tmp_path, rng, 3)
    short = tmp_path / "s1.csv"
    _write_csv(short, ("a", "b", "c"), rng.standard_normal((1, 3)))
    assert main(["dist", str(man), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: subject s1: {short}: need at least 2 observation rows\n"
    assert not (tmp_path / "out" / "distances.csv").exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--seed", "-1", "seed must be an integer >= 0"),
        ("--tol", "nan", "grad_tol must be a finite number > 0"),
        ("--restarts", "-3", "restarts must be an integer >= 1"),
        ("--restarts", "0", "restarts must be an integer >= 1"),
    ],
)
def test_dist_invalid_solver_flag_is_validation_error(tmp_path, capsys, flag, value, message):
    man = _cohort(tmp_path, np.random.default_rng(0), 2)
    assert main(["dist", str(man), flag, value, "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "manifest"])
def test_dist_width_above_column_count_is_validation_error(tmp_path, capsys, source):
    man = _cohort(tmp_path, np.random.default_rng(0), 2)  # 3 columns
    args = ["dist", str(man), "--out", str(tmp_path / "out")]
    if source == "flag":
        args += ["--k", "4"]
    else:
        man.write_text(json.dumps({**json.loads(man.read_text()), "k": 10**20}))
    assert main(args) == 2
    assert "exceeds the 3 columns" in capsys.readouterr().err


def test_dist_cut_locus_stop_exits_3(tmp_path):
    # series (x, x) and (x, -x): the Procrustes start alone stops with one row
    # antipodal and a zero gradient, which is no minimum
    x = np.random.default_rng(1).standard_normal((40, 1))
    man = _series_cohort(tmp_path, [np.hstack([x, x]), np.hstack([x, -x])])
    out = tmp_path / "one"
    assert main(["dist", str(man), "--restarts", "1", "--out", str(out)]) == 3
    (pair,) = _report(out / "distances_report.json")["pairs"]
    assert pair["converged"] is False and pair["clamped_rows"] == [1]
    out = tmp_path / "full"
    assert main(["dist", str(man), "--out", str(out)]) == 0
    (pair,) = _report(out / "distances_report.json")["pairs"]
    assert abs(pair["distance"] - np.pi / np.sqrt(2.0)) < 1e-12


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


def test_mean_report_lists_per_subject_alignments(tmp_path):
    rng = np.random.default_rng(6)
    man = _cohort(tmp_path, rng, 3, groups=("g1",))
    out = tmp_path / "out"
    assert main(["mean", str(man), "--out", str(out)]) == 0
    doc = json.loads((out / "mean_g1_report.json").read_text())
    # the final outer iteration's alignment of every subject to the mean
    assert [a["subject_id"] for a in doc["alignments"]] == doc["subjects"]
    for a in doc["alignments"]:
        assert set(a) == {
            "subject_id",
            "grad_norm",
            "iterations",
            "converged",
            "restarts_used",
            "retired",
            "stagnated",
            "loss",
            "clamped_rows",
        }
        assert 0 <= a["retired"] < a["restarts_used"]
        assert a["converged"] is True and a["stagnated"] is False
        assert a["grad_norm"] <= DEFAULT_CONFIG.grad_tol


def test_both_reports_print_the_search_record(tmp_path):
    search = {f.name for f in dataclasses.fields(SearchReport)}
    man = _cohort(tmp_path, np.random.default_rng(6), 3, groups=("g1",))
    assert main(["dist", str(man), "--out", str(tmp_path / "dist")]) == 0
    assert main(["mean", str(man), "--out", str(tmp_path / "mean")]) == 0
    dist = json.loads((tmp_path / "dist" / "distances_report.json").read_text())
    mean = json.loads((tmp_path / "mean" / "mean_g1_report.json").read_text())
    assert len(dist["pairs"]) == len(mean["alignments"]) == 3
    for p in dist["pairs"]:
        assert set(p) == search | {"subject_a", "subject_b", "distance"}
    for a in mean["alignments"]:
        assert set(a) == search | {"subject_id"}


def test_one_subject_cohort_has_no_pair_to_search(tmp_path):
    # dist writes a 1 x 1 zero matrix without pair records; mean returns the
    # subject itself, at loss 0 and without alignments
    man = _cohort(tmp_path, np.random.default_rng(8), 1)
    assert main(["dist", str(man), "--out", str(tmp_path / "dist")]) == 0
    assert (tmp_path / "dist" / "distances.csv").read_text() == "id,s0\ns0,0\n"
    assert _report(tmp_path / "dist" / "distances_report.json")["pairs"] == []
    assert main(["mean", str(man), "--out", str(tmp_path / "mean")]) == 0
    doc = _report(tmp_path / "mean" / "mean_all_report.json")
    assert doc["loss"] == 0.0 and doc["loss_history"] == [0.0] and doc["alignments"] == []
    # neither command starts the empty batch's search; on its own it yields nothing
    assert list(_align_pairs([], [])) == []


def test_mean_single_group_flag(tmp_path):
    rng = np.random.default_rng(4)
    man = _cohort(tmp_path, rng, 4, groups=("g1", "g2"))
    out = tmp_path / "out"
    assert main(["mean", str(man), "--group", "g1", "--out", str(out)]) == 0
    assert (out / "mean_g1.csv").exists()
    assert not (out / "mean_g2.csv").exists()


def test_mean_stopped_at_max_outer_exits_3(tmp_path, monkeypatch):
    # five short series: one joint iteration does not reach grad_tol
    man = _cohort(tmp_path, np.random.default_rng(3), 4, columns=tuple("abcde"), T=20)
    assert main(["mean", str(man), "--out", str(tmp_path / "full")]) == 0
    full = json.loads((tmp_path / "full" / "mean_all_report.json").read_text())
    assert full["converged"] is True and full["outer_iterations"] > 1
    assert full["grad_norm"] <= full["grad_tol"] == DEFAULT_CONFIG.grad_tol
    monkeypatch.setattr(product_sphere, "MAX_ITERS", 1)
    out = tmp_path / "out"
    assert main(["mean", str(man), "--out", str(out)]) == 3
    doc = json.loads((out / "mean_all_report.json").read_text())
    assert doc["converged"] is False and doc["outer_iterations"] == 1
    assert doc["grad_norm"] > doc["grad_tol"]


def test_floor_stall_within_stagnation_tol_exits_0(tmp_path):
    # grad_tol 1e-17 is below the rounding floor: every solve stops there,
    # stagnated at a gradient far below stagnation_tol, and passes
    rng = np.random.default_rng(0)
    series = [rng.standard_normal((60, 5)) @ rng.standard_normal((5, 5)) for _ in range(4)]
    man = _series_cohort(tmp_path, series)
    tol = DEFAULT_CONFIG.stagnation_tol
    assert main(["dist", str(man), "--tol", "1e-17", "--out", str(tmp_path / "d")]) == 0
    pairs = _report(tmp_path / "d" / "distances_report.json")["pairs"]
    assert len(pairs) == 6
    assert all(p["stagnated"] and p["grad_norm"] <= tol for p in pairs)
    assert main(["mean", str(man), "--tol", "1e-17", "--out", str(tmp_path / "m")]) == 0
    doc = _report(tmp_path / "m" / "mean_all_report.json")
    assert doc["converged"] is False and doc["stagnated"] is True
    assert doc["grad_norm"] <= tol and doc["clamped_rows"] == []


def test_mean_report_carries_the_solve_record(tmp_path):
    # groups g1 (s0, s2) and g2 (s1 alone, its own mean: a converged record
    # with 0 iterations)
    record = {f.name for f in dataclasses.fields(SolverReport)}
    man = _cohort(tmp_path, np.random.default_rng(6), 3, groups=("g1", "g2"))
    out = tmp_path / "out"
    assert main(["mean", str(man), "--out", str(out)]) == 0
    pair = _report(out / "mean_g1_report.json")
    one = _report(out / "mean_g2_report.json")
    assert record <= set(pair) and record <= set(one)
    assert pair["converged"] is True and pair["iterations"] >= 1
    assert pair["loss"] == pair["loss_history"][-1]
    assert {k: one[k] for k in record} == {
        "converged": True,
        "iterations": 0,
        "grad_norm": 0.0,
        "loss": 0.0,
        "stagnated": False,
        "clamped_rows": [],
    }
    assert one["outer_iterations"] == 0 and one["alignments"] == []


def test_mean_unknown_group_is_validation_error(tmp_path, capsys):
    rng = np.random.default_rng(5)
    man = _cohort(tmp_path, rng, 2)
    assert main(["mean", str(man), "--group", "missing"]) == 2


def test_mean_refuses_two_groups_that_share_an_output_name(tmp_path, capsys, monkeypatch):
    # ungrouped subjects are labelled "all"; with a group named "all" beside
    # them, one mean_all.csv would replace the other, so nothing is solved
    # or written
    man = _cohort(tmp_path, np.random.default_rng(5), 4, groups=("all", ""))
    monkeypatch.setattr(cli.pipeline, "group_means", None)
    out = tmp_path / "out"
    assert main(["mean", str(man), "--out", str(out)]) == 2
    assert "mean_all.csv" in capsys.readouterr().err
    assert not out.exists()


def test_mean_rank_above_width_names_subject(tmp_path, capsys):
    rng = np.random.default_rng(6)
    man = _cohort(tmp_path, rng, 2)
    assert main(["mean", str(man), "--k", "2"]) == 2
    err = capsys.readouterr().err
    assert "subject s0: " in err and "exceeds requested width 2" in err


def test_each_subject_correlation_is_decomposed_once(tmp_path, monkeypatch):
    # validate decomposes each subject's matrix and factorize reads that
    # spectrum; mean decomposes each group's mean once more, when it is checked
    calls = count_decompositions(monkeypatch)
    write_matrix_csv(tmp_path / "corr.csv", np.eye(3), ["a", "b", "c"])
    assert main(["validate", str(tmp_path / "corr.csv")]) == 0
    assert len(calls) == 1
    calls.clear()
    man = _cohort(tmp_path, np.random.default_rng(3), 5, groups=("g1", "g2"))
    assert main(["dist", str(man), "--out", str(tmp_path / "dist")]) == 0
    assert len(calls) == 5
    calls.clear()
    assert main(["mean", str(man), "--out", str(tmp_path / "mean")]) == 0
    assert len(calls) == 5 + 2


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


def test_diff_top_must_not_be_negative(tmp_path, capsys):
    # three entries above the threshold: --top 0 prints none of them, and a
    # negative --top is refused before any file is read or written
    A = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3, 1.0]])
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_matrix_csv(pa, A, ["x", "y", "z"])
    write_matrix_csv(pb, np.eye(3), ["x", "y", "z"])
    args = ["diff", str(pa), str(pb), "--threshold", "0.05"]
    assert main([*args, "--out", str(tmp_path / "ok"), "--top", "0"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("3 entries above threshold") and len(printed) == 1
    for top in ("-1", "-3"):
        out = tmp_path / f"top{top}"
        assert main([*args, "--out", str(out), "--top", top]) == 2
        assert capsys.readouterr().err == f"error: top must be an integer >= 0, got {top}\n"
        assert not out.exists()


def test_diff_mismatched_columns(tmp_path, capsys):
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_matrix_csv(pa, np.eye(2), ["x", "y"])
    write_matrix_csv(pb, np.eye(2), ["x", "z"])
    assert main(["diff", str(pa), str(pb), "--threshold", "0.1"]) == 2


def test_diff_reordered_rows_is_io_error(tmp_path, capsys):
    Z = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3, 1.0]])
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_matrix_csv(pa, Z, ["x", "y", "z"])
    lines = pa.read_text().splitlines()
    pb.write_text("\n".join([lines[0], lines[2], lines[1], lines[3]]) + "\n")
    assert main(["diff", str(pa), str(pb), "--threshold", "0.1"]) == 4
    assert "line 2 is labeled 'y', expected 'x'" in capsys.readouterr().err


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


def test_geodesic_sample_count_must_be_a_positive_integer(tmp_path, capsys):
    px, py = tmp_path / "x.csv", tmp_path / "y.csv"
    write_factor_csv(px, np.eye(2))
    write_factor_csv(py, np.eye(2))
    assert main(["geodesic", str(px), str(py), "--samples", "0"]) == 2
    assert "samples must be an integer >= 1" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:  # argparse rejects non-integers
        main(["geodesic", str(px), str(py), "--samples", "2.5"])
    assert exc.value.code == 2


def test_geodesic_invalid_second_factor_names_y(tmp_path, capsys):
    px, py = tmp_path / "x.csv", tmp_path / "y.csv"
    write_factor_csv(px, np.eye(2))
    write_factor_csv(py, np.eye(2) * 2.0)
    assert main(["geodesic", str(px), str(py)]) == 2
    assert "row 0 of Y has norm" in capsys.readouterr().err


def test_geodesic_ragged_factor_is_io_error(tmp_path, capsys):
    px, py = tmp_path / "x.csv", tmp_path / "y.csv"
    px.write_text("x0,x1\n1,0\n0\n")
    write_factor_csv(py, np.eye(2))
    assert main(["geodesic", str(px), str(py)]) == 4
    assert capsys.readouterr().err == f"error: {px}: line 3 has 1 fields, expected 2\n"


# exit codes --------------------------------------------------------------------


@pytest.mark.parametrize(
    "exc, code",
    [
        (EmptyFile("no data rows"), 4),
        (ParseError("row 3, column b: not a number"), 4),
        (FileNotFoundError("missing.csv"), 4),
        (PermissionError("locked.csv"), 4),
        (AlignmentStagnation("stagnated"), 3),
        (AntipodalLogarithm("rows [0] are antipodal"), 2),
        (RankExceedsK("rank 3 exceeds k = 2"), 2),
        (InvalidInput("bad shape"), 2),
        (DegenerateInput("no varying columns"), 2),
        (InvalidCorrelation("not positive semidefinite"), 2),
        (CorrGeoError("other"), 2),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v),
)
def test_exit_code_per_error_class(monkeypatch, capsys, exc, code):
    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_validate", fail)
    assert main(["validate", "any.csv"]) == code
    assert capsys.readouterr().err == f"error: {exc}\n"


def test_unexpected_error_propagates(monkeypatch):
    def fail(args):
        raise ValueError("a bug, not an input error")

    monkeypatch.setattr(cli, "cmd_validate", fail)
    with pytest.raises(ValueError):
        main(["validate", "any.csv"])
