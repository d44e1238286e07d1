import io
import json
import re
import sys
import unicodedata
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from corrgeo import (
    DEFAULT_CONFIG,
    CorrGeoError,
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
from corrgeo.cli import main
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


# cells float() accepts (whitespace, underscores, any Unicode digit, out of
# range) and cells it refuses; both readers of a numeric body must agree with it
ACCEPTED_CELLS = (" 1 ", "nan", "-Infinity", "1_000", "1e400", "\u0663", "+.5e-3", "0.1")
REFUSED_CELLS = ("0x10", "", "_1", "1__0", "1e", "\u0661\u066b\u0665", "1\x1c", "\x1f1")


def test_numeric_cells_are_those_float_accepts(tmp_path):
    p = tmp_path / "cells.csv"
    cols = [f"x{j}" for j in range(len(ACCEPTED_CELLS))]
    p.write_text(",".join(cols) + "\n" + ",".join(ACCEPTED_CELLS) + "\n")
    got = read_factor_csv(p)
    assert got.tobytes() == np.array([[float(c) for c in ACCEPTED_CELLS]]).tobytes()
    finite = [c for c in ACCEPTED_CELLS if np.isfinite(float(c))]
    row = ",".join(finite)
    p.write_text(",".join(cols[: len(finite)]) + f"\n{row}\n{row}\n")
    assert ingest(p).values.tobytes() == np.array([[float(c) for c in finite]] * 2).tobytes()
    for cell in REFUSED_CELLS:
        p.write_text(f"x0,x1\n1,2\n3,{cell}\n")
        for read in (read_factor_csv, ingest):
            bad = f"line 3, column x1: cannot parse {cell!r}"
            with pytest.raises(ParseError, match=re.escape(bad)):
                read(p)


# padding that float() strips (np.loadtxt strips it too)
PADDING = st.text(st.sampled_from(" \t\x0b\x0c\x85\xa0\u2003\u2028"), max_size=2)


@settings(
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    arrays(
        float,
        st.tuples(st.integers(2, 5), st.integers(1, 4)),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    ),
    st.sampled_from((repr, "{:.17g}".format, "{:.6e}".format)),
    st.data(),
)
def test_padded_cells_parse_as_float_does(tmp_path, X, fmt, data):
    cells = [[data.draw(PADDING) + fmt(v) + data.draw(PADDING) for v in row] for row in X.tolist()]
    # a separator float() refuses, although str.isspace() and np.loadtxt take it for space
    refused = data.draw(st.sampled_from(("", "\x1c", "\x1f")))
    if refused:
        i = data.draw(st.integers(0, X.shape[0] - 1))
        j = data.draw(st.integers(0, X.shape[1] - 1))
        cells[i][j] = data.draw(st.sampled_from((refused + cells[i][j], cells[i][j] + refused)))
    p = tmp_path / "padded.csv"
    header = ",".join(f"x{j}" for j in range(X.shape[1]))
    p.write_text("\n".join([header] + [",".join(row) for row in cells]) + "\n")
    for read in (read_factor_csv, lambda q: ingest(q).values):
        if refused:
            bad = f"line {i + 2}, column x{j}: cannot parse {cells[i][j]!r}"
            with pytest.raises(ParseError, match=re.escape(bad)):
                read(p)
        else:
            want = np.array([[float(c) for c in row] for row in cells])
            assert read(p).tobytes() == want.tobytes()


def _cell_outcome(parse, cell):
    """The values parse reads from one cell, or None when it refuses the cell."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # np.loadtxt only warns on a blank body
        try:
            return tuple(np.ravel(parse(cell)))
        except (ValueError, UserWarning):
            return None


def test_loadtxt_only_space_is_where_loadtxt_and_float_disagree():
    # ingest keeps a file holding _LOADTXT_ONLY_SPACE from its np.loadtxt
    # pass; on the numpy that runs this, those must be exactly the space and
    # control code points (line breaks aside) at which the pass and float()
    # read some cell shape differently, or the fast path diverges silently
    points = [
        c
        for c in map(chr, range(sys.maxunicode + 1))
        if (c.isspace() or unicodedata.category(c) in ("Cc", "Cf", "Zs", "Zl", "Zp"))
        and c not in "\n\r"
    ]
    shapes = ("{}", "{}1", "1{}", "1{}5", "1.{}", "1e{}5")
    disagree = {
        c
        for c in points
        for cell in (shape.format(c) for shape in shapes)
        if _cell_outcome(lambda s: pipeline._loadtxt(io.StringIO(s, newline="")), cell)
        != _cell_outcome(float, cell)
    }
    assert disagree == set(pipeline._LOADTXT_ONLY_SPACE)


# Files at the edges of the dialect and of float(), with what ingest returns
# (columns, rows) and what read_factor_csv returns (rows), or the error class
# and message each raises ({p} is the file). The three separators that
# str.splitlines() breaks at inside a cell must keep their row whole.
NAN, INF = float("nan"), float("inf")
ROWS = [[1.0, 2.0], [3.0, 4.0]]
TABLE = (("a", "b"), ROWS)


def _both(error, message):
    """The same error from both readers."""
    return (error, message), (error, message)


FIELDS = _both(ParseError, "{p}: line 2 has 3 fields, expected 2")
EDGE_FILES = {
    "form_feed_in_cell": ("a,b\n1,2\x0c3,4\n5,6\n", *FIELDS),
    "file_separator_in_cell": ("a,b\n1,2\x1c3,4\n5,6\n", *FIELDS),
    "line_separator_in_cell": ("a,b\n1,2\u20283,4\n5,6\n", *FIELDS),
    "file_separator_padding": (
        "a,b\n1,2\x1c\n3,4\n",
        *_both(ParseError, "{p}: line 2, column b: cannot parse '2\\x1c'"),
    ),
    "form_feed_padding": ("a,b\n1,2\x0c\n3,4\n", TABLE, ROWS),
    "crlf": ("a,b\r\n1,2\r\n3,4\r\n", TABLE, ROWS),
    "bare_cr": ("a,b\r1,2\r3,4\r", TABLE, ROWS),
    "quoted_cells": ('a,b\n"1","2"\n3,4\n', TABLE, ROWS),
    "doubled_quote": (
        'a,b\n1,"2"""\n3,4\n',
        *_both(ParseError, "{p}: line 2, column b: cannot parse '2\"'"),
    ),
    # the message names record 3 by line 4 of the file, where it starts
    "quoted_newline_in_body": (
        'a,b\n1,"2\n"\n3,x\n',
        *_both(ParseError, "{p}: line 4, column b: cannot parse 'x'"),
    ),
    "quoted_newline_in_header": ('a,"b\nc"\n1,2\n3,4\n', (("a", "b\nc"), ROWS), ROWS),
    # the header spans lines 1 and 2, so record 2 starts on line 3
    "quoted_newline_in_header_then_bad_cell": (
        'a,"b\nc"\n1,x\n3,4\n',
        *_both(ParseError, "{p}: line 3, column b\nc: cannot parse 'x'"),
    ),
    "quoted_cr_in_cell": ('a,b\n1,"2\r"\n3,4\n', TABLE, ROWS),
    "bom": ("\ufeffa,b\n1,2\n3,4\n", (("\ufeffa", "b"), ROWS), ROWS),
    "trailing_comma": (
        "a,b,\n1,2,\n3,4,\n",
        (ParseError, "{p}: header has an empty column name"),
        (ParseError, "{p}: line 2, column : cannot parse ''"),
    ),
    "padded_cells": ("a , b\n 1 , 2 \n\t3,4\t\n", TABLE, ROWS),
    "comma_only_line": ("a,b\n1,2\n,\n3,4\n", TABLE, ROWS),
    "whitespace_only_line": ("a,b\n1,2\n   \n3,4\n", TABLE, ROWS),
    "blank_lines": ("a,b\n\n1,2\n\n3,4\n\n", TABLE, ROWS),
    "blank_first_line": (
        "\na,b\n1,2\n3,4\n",
        *_both(ParseError, "{p}: line 2 has 2 fields, expected 0"),
    ),
    "empty": ("", *_both(EmptyFile, "{p} is empty")),
    "header_only": ("a,b\n", *_both(EmptyFile, "{p} has a header but no data rows")),
    "one_row": (
        "a,b\n1,2\n",
        (DegenerateInput, "{p}: need at least 2 observation rows"),
        [[1.0, 2.0]],
    ),
    "nan": (
        "a,b\n1,2\nnan,4\n",
        (ParseError, "{p}: line 3, column a: non-finite value 'nan'"),
        [[1.0, 2.0], [NAN, 4.0]],
    ),
    "overflow": (
        "a,b\n1,2\n1e400,4\n",
        (ParseError, "{p}: line 3, column a: non-finite value '1e400'"),
        [[1.0, 2.0], [INF, 4.0]],
    ),
    "underscore": (
        "a,b\n1,2\n1_000,4\n",
        (("a", "b"), [[1.0, 2.0], [1e3, 4.0]]),
        [[1.0, 2.0], [1e3, 4.0]],
    ),
    "arabic_indic_digit": ("a,b\n1,2\n3,\u0664\n", TABLE, ROWS),
    "hash": ("a,b\n#1,2\n3,4\n", *_both(ParseError, "{p}: line 2, column a: cannot parse '#1'")),
    "no_final_newline": ("a,b\n1,2\n3,4", TABLE, ROWS),
}


def _outcome(read, p):
    """A reader's error class and message, or its (columns,) shape and bytes."""
    try:
        got = read(p)
    except CorrGeoError as e:
        return type(e), str(e)
    if isinstance(got, TimeSeriesTable):
        return got.columns, got.values.shape, got.values.tobytes()
    return got.shape, got.tobytes()


def _expected(want, p):
    """An EDGE_FILES entry in the form _outcome gives."""
    if isinstance(want[0], type):
        return want[0], want[1].format(p=p)
    if isinstance(want[0], tuple):
        M = np.array(want[1])
        return want[0], M.shape, M.tobytes()
    M = np.array(want)
    return M.shape, M.tobytes()


@pytest.mark.parametrize("name", sorted(EDGE_FILES))
def test_edge_files_read_as_the_exact_path_does(tmp_path, name):
    text, from_ingest, from_factor = EDGE_FILES[name]
    p = tmp_path / "edge.csv"
    p.write_bytes(text.encode())
    assert _outcome(ingest, p) == _expected(from_ingest, p)
    assert _outcome(read_factor_csv, p) == _expected(from_factor, p)


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


# the CSV dialect shared by every reader -------------------------------------------

# reader, header, two data rows, and the number of rows the reader returned
CSV_READERS = {
    "ingest": (ingest, "a,b", ("1,2", "3,5"), lambda ts: ts.values.shape[0]),
    "read_matrix_csv": (read_matrix_csv, "id,a,b", ("a,1,0", "b,0,1"), lambda r: len(r[0])),
    "read_factor_csv": (read_factor_csv, "x0,x1", ("1,0", "0,1"), len),
    "manifest": (
        load_manifest,
        "subject_id,path",
        ("s1,s1.csv", "s2,s2.csv"),
        lambda man: len(man.subjects),
    ),
}


@pytest.mark.parametrize("reader", sorted(CSV_READERS))
def test_csv_readers_share_one_dialect(tmp_path, reader):
    read, header, (row1, row2), count = CSV_READERS[reader]
    p = tmp_path / "table.csv"
    p.write_text(f"{header}\n\n{row1}\n   \n{row2}\n\n")
    assert count(read(p)) == 2  # blank lines are skipped
    p.write_text(f"{header}\n{row1}\n\n{row2},9\n")
    with pytest.raises(ParseError, match=r"line 4 has \d+ fields, expected"):
        read(p)
    for text in (f"{header}\n\n", ""):
        p.write_text(text)
        with pytest.raises(EmptyFile):
            read(p)
    # str.splitlines() breaks at these; a record keeps them inside its last cell
    for sep in ("\x0c", "\x1c", "\u2028"):
        cell = f"{row2.rsplit(',', 1)[1]}{sep}b"
        p.write_text(f"{header}\n{row1}\n{row2}{sep}b\n")
        if reader == "manifest":
            assert read(p).subjects[1].path == cell
        else:
            bad = f"line 3, column {header.rsplit(',', 1)[1]}: cannot parse {cell!r}"
            with pytest.raises(ParseError, match=re.escape(bad)):
                read(p)


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


@pytest.mark.parametrize("name, text", [
    ("cohort.json", json.dumps({"subjects": [
        {"subject_id": "s0", "path": "a.csv"},
        {"subject_id": "s1", "path": "b.csv"},
        {"subject_id": "s0", "path": "c.csv"},
    ]})),
    ("cohort.csv", "subject_id,path\ns0,a.csv\ns1,b.csv\ns0,c.csv\n"),
], ids=["json", "delimited"])
def test_load_manifest_rejects_duplicate_subject_ids(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    with pytest.raises(ParseError, match="subject_id 's0' is listed twice"):
        load_manifest(p)


ONE_SUBJECT = [{"subject_id": "s1", "path": "s1.csv"}]


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"drop": {"floor": 1e-9}}, "unknown drop key 'floor'"),
        ({"drop": {"variance_floor": "tiny"}}, "drop.variance_floor must be"),
        ({"drop": {"variance_floor": -1e-9}}, "drop.variance_floor must be"),
        ({"drop": {"variance_floor": float("nan")}}, "drop.variance_floor must be"),
        ({"drop": {"variance_floor": float("inf")}}, "drop.variance_floor must be"),
        ({"drop": {"variance_floor": 10**400}}, "drop.variance_floor must be"),
        ({"drop": {"variance_floor": True}}, "drop.variance_floor must be"),
        ({"drop": {"max_zero_variance": -1}}, "drop.max_zero_variance must be"),
        ({"drop": {"max_zero_variance": 2.5}}, "drop.max_zero_variance must be"),
        ({"drop": {"max_zero_variance": "8"}}, "drop.max_zero_variance must be"),
        ({"drop": ["variance_floor"]}, "drop must be an object"),
        ({"k": "3"}, "k must be null or an integer"),
        ({"k": True}, "k must be null or an integer"),
        ({"k": 2.5}, "k must be null or an integer"),
        ({"subjects": 5}, "no subjects list"),
        ({"subjects": [1]}, "subject 0 needs subject_id and path"),
        (ONE_SUBJECT, "no subjects list"),
    ],
)
def test_load_manifest_rejects_bad_values(tmp_path, doc, message):
    if isinstance(doc, dict):
        doc = {"subjects": ONE_SUBJECT, **doc}
    p = tmp_path / "cohort.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=message):
        load_manifest(p)


def test_load_manifest_accepts_boundary_settings(tmp_path):
    p = tmp_path / "cohort.json"
    doc = {
        "subjects": ONE_SUBJECT,
        "k": None,
        "drop": {"variance_floor": 0, "max_zero_variance": 0},
    }
    p.write_text(json.dumps(doc))
    man = load_manifest(p)
    assert man.k is None and man.drop == DropPolicy(variance_floor=0, max_zero_variance=0)


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


def test_cli_dist_one_subject_cohort(tmp_path):
    # no pair to search: an empty stack of pair searches
    rng = np.random.default_rng(8)
    _random_subject(rng, tmp_path / "s1.csv", ["a", "b", "c"])
    man = _manifest_json(tmp_path / "cohort.json", [{"subject_id": "s1", "path": "s1.csv"}])
    out = tmp_path / "out"
    assert main(["dist", str(man), "--out", str(out)]) == 0
    D, labels = read_matrix_csv(out / "distances.csv")
    assert labels == ("s1",)
    assert np.array_equal(D, np.zeros((1, 1)))
    assert json.loads((out / "distances_report.json").read_text())["pairs"] == []


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
    assert [(p.restarts_used, p.retired) for p in r1.pair_reports] == [
        (p.restarts_used, p.retired) for p in r2.pair_reports
    ]


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
        retired=0,
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


@pytest.mark.parametrize("threshold", ["0.1", None, True, -0.1, float("nan"), float("inf")])
def test_difference_report_rejects_a_threshold_that_is_not_a_finite_number_at_least_0(
    threshold,
):
    with pytest.raises(InvalidInput, match="threshold must be a nonnegative number"):
        difference_report(np.eye(2), np.eye(2), threshold)
    for ok in (0, np.float64(0.1)):
        assert difference_report(np.eye(2), np.eye(2), ok).threshold == ok


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


@pytest.mark.parametrize(
    "M, labels",
    [(np.eye(3), ["a", "b"]), (np.zeros((2, 3)), ["a", "b"]), (np.zeros(2), ["a", "b"])],
)
def test_matrix_csv_writes_only_a_square_matrix_with_a_label_per_row(tmp_path, M, labels):
    # a mismatch wrote a file that read_matrix_csv cannot read back
    p = tmp_path / "m.csv"
    with pytest.raises(InvalidInput, match=r"labels need a 2 x 2 matrix"):
        write_matrix_csv(p, M, labels)
    assert not p.exists()


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


ROUND_TRIP = settings(
    derandomize=True,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
# every finite double, with -0.0 and subnormals drawn often
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -2.225073858507201e-308, 1.7976931348623157e308]
)


@ROUND_TRIP
@given(st.integers(1, 4).flatmap(lambda n: arrays(float, (n, n), elements=FINITE)))
def test_matrix_csv_round_trip_is_bitwise(tmp_path, M):
    p = tmp_path / "m.csv"
    write_matrix_csv(p, M, [f"c{i}" for i in range(len(M))])
    assert read_matrix_csv(p)[0].tobytes() == M.tobytes()


@ROUND_TRIP
@given(arrays(float, st.tuples(st.integers(1, 5), st.integers(1, 4)), elements=FINITE))
def test_factor_csv_round_trip_is_bitwise(tmp_path, X):
    p = tmp_path / "x.csv"
    write_factor_csv(p, X)
    assert read_factor_csv(p).tobytes() == X.tobytes()


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
    # an unserializable payload raises before a file is opened: no new file,
    # and an old report keeps its bytes
    before = p.read_bytes()
    for path in (p, tmp_path / "new.json"):
        with pytest.raises(TypeError, match="cannot serialize object"):
            write_run_report(path, {"a": 1, "x": object()})
    assert p.read_bytes() == before and not (tmp_path / "new.json").exists()
