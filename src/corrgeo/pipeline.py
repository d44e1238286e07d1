"""Time series to correlation to quotient-geometry pipeline.

Ingests per-subject CSV time series, drops zero-variance columns under an
explicit policy, intersects the retained columns across a cohort, computes
correlation matrices and their unit-row factors, and runs pairwise
distances, per-group Frechet means, and mean-difference reports.

Every CSV file read or written here has one dialect: a header row, then data
rows exactly as wide as the header, blank lines skipped, records split by
the csv module only at line feeds, carriage returns and CRLF pairs. A
time-series body (ingest) is parsed in one np.loadtxt pass when that pass
proves the file well formed; any other file, and every other reader, takes
the one exact path, csv records then float() per cell, which returns the
same matrix or names the bad line and column. Emitted CSVs are byte-stable
(fixed ordering, 17 significant digits); a rerun's JSON reports differ
only in wall_seconds.
"""

import csv
import functools
import io
import json
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .config import DEFAULT_CONFIG, RESULT, SolverConfig, is_number
from .corr import CorrelationMatrix, _finish, factorize, gram
from .errors import CorrGeoError, DegenerateInput, EmptyFile, InvalidInput, ParseError
from .frechet import MeanReport, frechet_mean
from .quotient_space import SearchReport, _align_pairs, _dist

FLOAT_FMT = "{:.17g}"
# ingest's one-pass parse of a CSV body
_loadtxt = functools.partial(np.loadtxt, delimiter=",", quotechar='"', comments=None, ndmin=2)
# _loadtxt strips these around a number as Unicode whitespace; float() refuses them.
# That they are the only cells _loadtxt takes and float() refuses or reads
# differently is checked on the numpy that runs the tests, over every space and
# control code point in every cell shape, by
# tests/test_pipeline.py::test_loadtxt_only_space_is_where_loadtxt_and_float_disagree.
_LOADTXT_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def _read_text(path) -> str:
    """A file's text with its line endings kept, for the csv module to split."""
    with open(path, newline="") as fh:
        return fh.read()


def _read_csv(path, text):
    """The stripped header and the non-blank (line number, row) pairs of a CSV text.

    This is the exact path every reader shares: csv records, split only at
    line feeds, carriage returns and CRLF pairs. A row's line number is the
    file line on which its record starts (a quoted line break makes a
    record span lines). Raises EmptyFile for no content or a header without
    rows, and ParseError naming the line of a row whose width differs from
    the header's.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    records, start = [], 1
    for row in reader:
        records.append((start, row))
        start = reader.line_num + 1
    if not records:
        raise EmptyFile(f"{path} is empty")
    header = [h.strip() for h in records[0][1]]
    rows = [(lineno, row) for lineno, row in records[1:] if any(c.strip() for c in row)]
    for lineno, row in rows:
        if len(row) != len(header):
            raise ParseError(
                f"{path}: line {lineno} has {len(row)} fields, expected {len(header)}"
            )
    if not rows:
        raise EmptyFile(f"{path} has a header but no data rows")
    return header, rows


def _parse_floats(path, columns, rows, finite=False) -> np.ndarray:
    """The cells of rows as a float matrix; ParseError names a bad cell's line and column."""
    data = []
    for lineno, row in rows:
        parsed = []
        for col, cell in zip(columns, row):
            try:
                parsed.append(float(cell))
            except ValueError:
                raise ParseError(
                    f"{path}: line {lineno}, column {col}: cannot parse {cell!r}"
                ) from None
        data.append(parsed)
    M = np.array(data)
    if finite and not np.all(np.isfinite(M)):
        i, j = np.argwhere(~np.isfinite(M))[0]
        raise ParseError(
            f"{path}: line {rows[i][0]}, column {columns[j]}: "
            f"non-finite value {rows[i][1][j]!r}"
        )
    return M


def _name_fault(header):
    """Why a stripped header cannot name a table's columns, or None."""
    if not header or any(not h for h in header):
        return "header has an empty column name"
    if len(set(header)) != len(header):
        return "header has duplicate column names"
    return None


def _write_csv(path, header, M, labels=None) -> None:
    """Header, then each row of M (after its label, if any) at 17 significant digits."""
    rows = [[FLOAT_FMT.format(v) for v in row] for row in np.asarray(M, dtype=float)]
    if labels is not None:
        rows = [[lab, *row] for lab, row in zip(labels, rows)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


@dataclass(frozen=True)
class TimeSeriesTable:
    """One subject's observations: T rows of m named columns."""

    columns: tuple
    values: np.ndarray
    source: str = ""

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[1] != len(self.columns):
            raise InvalidInput(
                f"values shape {vals.shape} does not match {len(self.columns)} columns"
            )
        if vals.shape[0] < 2:
            where = f"{self.source}: " if self.source else ""
            raise DegenerateInput(f"{where}need at least 2 observation rows")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "columns", tuple(self.columns))


@dataclass(frozen=True)
class DropPolicy:
    """Zero-variance handling: the floor and the per-subject tolerance."""

    variance_floor: float = 1e-12
    max_zero_variance: int = 8


@dataclass(frozen=True)
class SubjectSpec:
    subject_id: str
    path: str
    group: str = ""


@dataclass(frozen=True)
class CohortManifest:
    """A cohort: subject list, factor width, and the drop policy."""

    subjects: tuple
    k: int | None = None
    drop: DropPolicy = field(default_factory=DropPolicy)
    base_dir: str = "."

    def resolve(self, spec: SubjectSpec) -> Path:
        p = Path(spec.path)
        return p if p.is_absolute() else Path(self.base_dir) / p


def load_manifest(path) -> CohortManifest:
    """Read a cohort manifest from JSON or from a delimited subject table.

    JSON files carry {"subjects": [{"subject_id", "path", "group"}, ...]}
    plus optional "k" and "drop" settings (a bad one raises ParseError);
    delimited files have a header subject_id,path,group and take all
    policy values from defaults. A subject_id listed twice raises
    ParseError.
    """
    path = Path(path)
    text = _read_text(path)
    if not text.strip():
        raise EmptyFile(f"{path} is empty")
    base = str(path.parent)
    if path.suffix.lower() == ".json" or text.lstrip().startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise ParseError(f"{path}: invalid JSON ({e})") from None
        subs = doc.get("subjects") if isinstance(doc, dict) else None
        if not subs or not isinstance(subs, list):
            raise ParseError(f"{path}: manifest has no subjects list")
        subjects = []
        for i, s in enumerate(subs):
            if not isinstance(s, dict) or "subject_id" not in s or "path" not in s:
                raise ParseError(f"{path}: subject {i} needs subject_id and path")
            subjects.append(
                SubjectSpec(str(s["subject_id"]), str(s["path"]), str(s.get("group", "")))
            )
        k, drop = _manifest_settings(path, doc)
    else:
        header, rows = _read_csv(path, text)
        if any(c not in header for c in ("subject_id", "path")):
            raise ParseError(f"{path}: delimited manifest needs columns subject_id,path")
        cols = [header.index(c) for c in ("subject_id", "path", "group") if c in header]
        subjects = [SubjectSpec(*(row[i].strip() for i in cols)) for _, row in rows]
        k, drop = None, DropPolicy()
    seen = set()
    for spec in subjects:
        if spec.subject_id in seen:
            raise ParseError(f"{path}: subject_id {spec.subject_id!r} is listed twice")
        seen.add(spec.subject_id)
    return CohortManifest(subjects=tuple(subjects), k=k, drop=drop, base_dir=base)


def _manifest_settings(path, doc):
    """The k and DropPolicy of a parsed JSON manifest, each value checked."""
    k = doc.get("k")
    if k is not None and type(k) is not int:  # rejects bools too
        raise ParseError(f"{path}: k must be null or an integer, got {k!r}")
    drop = doc.get("drop", {})
    if not isinstance(drop, dict):
        raise ParseError(f"{path}: drop must be an object, got {drop!r}")
    wants = {"variance_floor": "a finite number >= 0", "max_zero_variance": "an integer >= 0"}
    for key, v in drop.items():
        if key not in wants:
            raise ParseError(f"{path}: unknown drop key {key!r}")
        # the upper bound rejects nan, inf and ints no float can hold
        number = type(v) in (int, float) and 0 <= v <= sys.float_info.max
        if not number or (key == "max_zero_variance" and type(v) is not int):
            raise ParseError(f"{path}: drop.{key} must be {wants[key]}, got {v!r}")
    return k, DropPolicy(**drop)


def ingest(path) -> TimeSeriesTable:
    """Read one time-series CSV: a header of column names, then float rows.

    The body is parsed in one np.loadtxt pass, from where the header's csv
    record ends, and that result is kept only when the header names distinct
    columns and the body has at least one row, each as wide as the header, of
    finite values. np.loadtxt accepts a subset of the cells float() accepts,
    with the same values, once a file holding _LOADTXT_ONLY_SPACE is kept from
    it. Every other file takes the exact path, where any cell that fails to
    parse or is non-finite raises ParseError naming the file line and column,
    and a file with no data rows raises EmptyFile.
    """
    path = Path(path)
    text = _read_text(path)
    buf = io.StringIO(text, newline="")
    header = [h.strip() for h in next(csv.reader(buf), ())]
    fault = _name_fault(header)
    values = None
    if (
        not fault
        and text[buf.tell() :].strip()  # np.loadtxt only warns on a blank body
        and not any(c in text for c in _LOADTXT_ONLY_SPACE)
    ):
        try:
            values = _loadtxt(buf)
        except ValueError:
            pass
    if not (
        values is not None
        and len(values)
        and values.shape[1] == len(header)
        and np.isfinite(values).all()
    ):
        _, rows = _read_csv(path, text)  # the same header; its own errors come first
        if fault:
            raise ParseError(f"{path}: {fault}")
        values = _parse_floats(path, header, rows, finite=True)
    return TimeSeriesTable(columns=tuple(header), values=values, source=str(path))


def correlation_of(ts: TimeSeriesTable, policy: DropPolicy = DropPolicy()):
    """Pearson correlation of the columns surviving the variance floor.

    Returns (correlation, kept_columns, dropped_columns). The matrix is
    symmetrized, clipped to [-1, 1], and given an exactly unit diagonal.
    """
    var = ts.values.var(axis=0)
    keep = var > policy.variance_floor
    dropped = tuple(c for c, k in zip(ts.columns, keep) if not k)
    kept = tuple(c for c, k in zip(ts.columns, keep) if k)
    if len(kept) < 2:
        raise DegenerateInput(
            f"{ts.source or 'table'}: fewer than 2 columns with positive variance"
        )
    return _pearson(ts.values[:, keep]), kept, dropped


def _pearson(vals) -> CorrelationMatrix:
    """Pearson correlation of the columns of vals, all of positive variance."""
    centered = vals - vals.mean(axis=0)
    std = np.sqrt((centered * centered).mean(axis=0))
    S = centered / std
    return _finish((S.T @ S) / vals.shape[0])


@dataclass
class SubjectData:
    spec: SubjectSpec
    corr: CorrelationMatrix
    columns: tuple
    factor: np.ndarray | None = None


@dataclass(frozen=True, kw_only=True)
class PairReport(SearchReport):
    """One pairwise distance and its rotation search's record (quotient_space.SearchReport)."""

    subject_a: str = field(metadata=RESULT)
    subject_b: str = field(metadata=RESULT)
    distance: float = field(metadata=RESULT)


@dataclass
class DistanceRun:
    subject_ids: tuple
    distances: np.ndarray
    pair_reports: list
    common_columns: tuple
    dropped_subjects: tuple
    k: int
    stagnation_tol: float = DEFAULT_CONFIG.stagnation_tol

    @property
    def any_stagnation(self) -> bool:
        return any(r.failed(self.stagnation_tol) for r in self.pair_reports)


def load_cohort(manifest: CohortManifest):
    """Ingest every subject, apply the drop policy, intersect columns.

    Subjects with more zero-variance columns than the policy allows are
    dropped (and reported); the survivors' correlation matrices are
    restricted to the ordered intersection of their retained columns. An
    ingest error is re-raised naming the subject. Returns (subjects,
    common_columns, dropped_subjects).
    """
    tables = []
    dropped_subjects = []
    for spec in manifest.subjects:
        try:
            ts = ingest(manifest.resolve(spec))
        except CorrGeoError as e:
            e.args = (f"subject {spec.subject_id}: {e}",)
            raise
        keep = ts.values.var(axis=0) > manifest.drop.variance_floor
        n_zero = int(np.count_nonzero(~keep))
        if n_zero > manifest.drop.max_zero_variance:
            dropped_subjects.append((spec.subject_id, n_zero))
            continue
        tables.append((spec, ts, {c for c, k in zip(ts.columns, keep) if k}))
    if not tables:
        raise DegenerateInput("every subject was dropped by the zero-variance policy")

    common_set = set.intersection(*(kept for _, _, kept in tables))
    # deterministic order: first retained subject's column order
    common = tuple(c for c in tables[0][1].columns if c in common_set)
    if len(common) < 2:
        raise DegenerateInput("fewer than 2 columns shared by all subjects")

    # every common column passed each subject's variance screen above
    subjects = []
    for spec, ts, _ in tables:
        corr = _pearson(ts.values[:, [ts.columns.index(c) for c in common]])
        subjects.append(SubjectData(spec=spec, corr=corr, columns=common))
    return subjects, common, tuple(dropped_subjects)


def _factorized_cohort(manifest: CohortManifest, k=None):
    """load_cohort plus factors; returns (subjects, common, dropped, width).

    The width is k, else the manifest's k, else the column count. A
    factorization error is re-raised with its payload, naming the subject.
    """
    subjects, common, dropped = load_cohort(manifest)
    width = k if k is not None else manifest.k
    if width is None:
        width = len(common)
    if width < 2:
        raise InvalidInput(f"factor width must be at least 2, got {width}")
    if width > len(common):
        raise InvalidInput(
            f"factor width {width} exceeds the {len(common)} columns shared by all subjects"
        )
    width = int(width)
    for s in subjects:
        try:
            s.factor = factorize(s.corr, width)
        except CorrGeoError as e:
            e.args = (f"subject {s.spec.subject_id}: {e}",)
            raise
    return subjects, common, dropped, width


def pairwise_distances(
    manifest: CohortManifest, cfg: SolverConfig = DEFAULT_CONFIG, k=None
) -> DistanceRun:
    """Pairwise quotient distances between all retained subjects.

    All n(n-1)/2 pair searches are one lockstep stack.
    """
    subjects, common, dropped, width = _factorized_cohort(manifest, k)
    n = len(subjects)
    D = np.zeros((n, n))
    reports = []
    iu, ju = np.triu_indices(n, 1)
    factors = [s.factor for s in subjects]
    pairs = _align_pairs([factors[i] for i in iu], [factors[j] for j in ju], cfg)
    for i, j, r in zip(iu, ju, pairs):
        d = _dist(r)
        D[i, j] = D[j, i] = d
        reports.append(
            PairReport(
                subject_a=subjects[i].spec.subject_id,
                subject_b=subjects[j].spec.subject_id,
                distance=d,
                **r.summary(),
            )
        )
    return DistanceRun(
        subject_ids=tuple(s.spec.subject_id for s in subjects),
        distances=D,
        pair_reports=reports,
        common_columns=common,
        dropped_subjects=dropped,
        k=width,
        stagnation_tol=cfg.stagnation_tol,
    )


@dataclass
class GroupMean:
    group: str
    subject_ids: tuple
    corr: CorrelationMatrix
    columns: tuple
    report: MeanReport


def group_means(
    manifest: CohortManifest, cfg: SolverConfig = DEFAULT_CONFIG, group=None, k=None
):
    """Frechet mean correlation matrix of each group (or one named group)."""
    subjects, common, dropped, width = _factorized_cohort(manifest, k)
    groups = {}
    for s in subjects:
        groups.setdefault(s.spec.group, []).append(s)
    if group is not None:
        if group not in groups:
            raise InvalidInput(f"group {group!r} has no retained subjects")
        groups = {group: groups[group]}
    means = []
    for name in sorted(groups):
        members = groups[name]
        report = frechet_mean([m.factor for m in members], cfg)
        means.append(
            GroupMean(
                group=name,
                subject_ids=tuple(m.spec.subject_id for m in members),
                corr=gram(report.mean.rep),
                columns=common,
                report=report,
            )
        )
    return means, dropped


@dataclass
class DiffReport:
    """Entrywise difference of two mean correlation matrices."""

    columns: tuple
    difference: np.ndarray
    thresholded: np.ndarray
    threshold: float
    entries: list  # (column_i, column_j, value), strongest first


def difference_report(A, B, threshold: float, columns=None) -> DiffReport:
    """Difference A - B with entries at or below the threshold zeroed.

    The surviving upper-triangle entries are listed strongest-magnitude
    first (ties broken by index) for direct inspection.
    """
    A = A.entries if isinstance(A, CorrelationMatrix) else np.asarray(A, dtype=float)
    B = B.entries if isinstance(B, CorrelationMatrix) else np.asarray(B, dtype=float)
    if A.shape != B.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidInput(f"incompatible shapes {A.shape} vs {B.shape}")
    if not is_number(threshold, 0):
        raise InvalidInput(f"threshold must be a nonnegative number, got {threshold}")
    m = A.shape[0]
    cols = tuple(columns) if columns is not None else tuple(f"c{i}" for i in range(m))
    if len(cols) != m:
        raise InvalidInput(f"{len(cols)} column names for a {m} x {m} matrix")
    D = A - B
    T = np.where(np.abs(D) <= threshold, 0.0, D)
    entries = [
        (cols[i], cols[j], float(T[i, j]))
        for i in range(m)
        for j in range(i + 1, m)
        if T[i, j] != 0.0
    ]
    entries.sort(key=lambda e: (-abs(e[2]), e[0], e[1]))
    return DiffReport(
        columns=cols, difference=D, thresholded=T, threshold=threshold, entries=entries
    )


def write_matrix_csv(path, M, labels) -> None:
    """Labeled square matrix as CSV, 17 significant digits, byte-stable.

    M must be n x n with n labels, else InvalidInput before the file is opened.
    """
    M = np.asarray(M, dtype=float)
    labels = list(labels)
    n = len(labels)
    if M.shape != (n, n):
        raise InvalidInput(f"{n} labels need a {n} x {n} matrix, got shape {M.shape}")
    _write_csv(path, ["id"] + labels, M, labels)


def read_matrix_csv(path):
    """Inverse of write_matrix_csv: returns (matrix, labels).

    Each row's first cell must be the header name at the same position;
    otherwise ParseError names the line.
    """
    path = Path(path)
    header, rows = _read_csv(path, _read_text(path))
    labels = header[1:]
    M = _parse_floats(path, labels, [(n, row[1:]) for n, row in rows])
    if M.shape[0] != M.shape[1]:
        raise ParseError(f"{path}: matrix is {M.shape[0]} x {M.shape[1]}, expected square")
    for (lineno, row), label in zip(rows, labels):
        if row[0].strip() != label:
            raise ParseError(
                f"{path}: line {lineno} is labeled {row[0].strip()!r}, expected {label!r}"
            )
    return M, tuple(labels)


def write_factor_csv(path, X) -> None:
    """Unit-row factor as plain CSV with a generic header."""
    X = np.asarray(X, dtype=float)
    _write_csv(path, [f"x{i}" for i in range(X.shape[1])], X)


def read_factor_csv(path) -> np.ndarray:
    """Read a numeric CSV (one header row, float body) as a matrix."""
    path = Path(path)
    header, rows = _read_csv(path, _read_text(path))
    return _parse_floats(path, header, rows)


def write_run_report(path, payload: dict) -> None:
    """JSON report with sorted keys; wall time and diagnostics live here.

    The payload is serialized before the file is opened, so one that
    cannot be (TypeError) leaves no file behind and an old report as it was.
    """
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True, default=_jsonable) + "\n")


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if hasattr(obj, "__dataclass_fields__"):
        return asdict(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")
