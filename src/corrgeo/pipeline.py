"""Time series to correlation to quotient-geometry pipeline.

Ingests per-subject CSV time series, drops zero-variance columns under an
explicit policy, intersects the retained columns across a cohort, computes
correlation matrices and their unit-row factors, and runs pairwise
distances, per-group Frechet means, and mean-difference reports. All
emitted CSV files are deterministic: fixed ordering and 17-significant-
digit decimal formatting.
"""

import csv
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .config import DEFAULT_CONFIG, SolverConfig
from .corr import CorrelationMatrix, as_correlation, factorize
from .errors import CorrGeoError, DegenerateInput, EmptyFile, InvalidInput, ParseError
from .frechet import MeanReport, frechet_mean
from .quotient_space import _align_pair

FLOAT_FMT = "{:.17g}"


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
            raise DegenerateInput("need at least 2 observation rows")
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
    plus optional "k" and "drop" objects; delimited files have a header
    subject_id,path,group and take all policy values from defaults.
    """
    path = Path(path)
    text = path.read_text()
    if not text.strip():
        raise EmptyFile(f"{path} is empty")
    base = str(path.parent)
    if path.suffix.lower() == ".json" or text.lstrip().startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise ParseError(f"{path}: invalid JSON ({e})") from None
        subs = doc.get("subjects")
        if not subs:
            raise ParseError(f"{path}: manifest has no subjects")
        subjects = []
        for i, s in enumerate(subs):
            if "subject_id" not in s or "path" not in s:
                raise ParseError(f"{path}: subject {i} needs subject_id and path")
            subjects.append(
                SubjectSpec(str(s["subject_id"]), str(s["path"]), str(s.get("group", "")))
            )
        drop = DropPolicy(**doc.get("drop", {}))
        k = doc.get("k")
        return CohortManifest(
            subjects=tuple(subjects), k=k, drop=drop, base_dir=base
        )
    rows = list(csv.reader(text.splitlines()))
    header = [h.strip() for h in rows[0]]
    required = ("subject_id", "path")
    if any(c not in header for c in required):
        raise ParseError(f"{path}: delimited manifest needs columns subject_id,path")
    idx = {c: header.index(c) for c in header}
    subjects = []
    for r, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(header):
            raise ParseError(f"{path}: line {r} has {len(row)} fields, expected {len(header)}")
        group = row[idx["group"]].strip() if "group" in idx else ""
        subjects.append(
            SubjectSpec(row[idx["subject_id"]].strip(), row[idx["path"]].strip(), group)
        )
    if not subjects:
        raise EmptyFile(f"{path}: manifest has no subject rows")
    return CohortManifest(subjects=tuple(subjects), base_dir=base)


def ingest(path) -> TimeSeriesTable:
    """Read one time-series CSV: a header of column names, then float rows.

    Any cell that fails to parse or is non-finite raises ParseError naming
    the file line and column; a file with no data rows raises EmptyFile.
    """
    path = Path(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise EmptyFile(f"{path} is empty")
    header = [h.strip() for h in rows[0]]
    if not header or any(not h for h in header):
        raise ParseError(f"{path}: header has an empty column name")
    if len(set(header)) != len(header):
        raise ParseError(f"{path}: header has duplicate column names")
    data = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(header):
            raise ParseError(
                f"{path}: line {lineno} has {len(row)} fields, expected {len(header)}"
            )
        parsed = []
        for col, cell in zip(header, row):
            try:
                v = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: line {lineno}, column {col}: cannot parse {cell!r}"
                ) from None
            if not math.isfinite(v):
                raise ParseError(
                    f"{path}: line {lineno}, column {col}: non-finite value {cell!r}"
                )
            parsed.append(v)
        data.append(parsed)
    if not data:
        raise EmptyFile(f"{path} has a header but no data rows")
    return TimeSeriesTable(columns=tuple(header), values=np.array(data), source=str(path))


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
    vals = ts.values[:, keep]
    centered = vals - vals.mean(axis=0)
    std = np.sqrt((centered * centered).mean(axis=0))
    S = centered / std
    C = (S.T @ S) / vals.shape[0]
    C = np.clip(0.5 * (C + C.T), -1.0, 1.0)
    np.fill_diagonal(C, 1.0)
    return as_correlation(C), kept, dropped


@dataclass
class SubjectData:
    spec: SubjectSpec
    corr: CorrelationMatrix
    columns: tuple
    factor: np.ndarray | None = None


@dataclass
class PairReport:
    """Convergence diagnostics of one pairwise distance."""

    subject_a: str
    subject_b: str
    distance: float
    loss: float
    grad_norm: float
    iterations: int
    converged: bool
    restarts_used: int
    stagnated: bool


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
        # stops at the rounding floor are benign; see SolverConfig.stagnation_tol
        return any(
            r.stagnated and r.grad_norm > self.stagnation_tol
            for r in self.pair_reports
        )


def load_cohort(manifest: CohortManifest):
    """Ingest every subject, apply the drop policy, intersect columns.

    Subjects with more zero-variance columns than the policy allows are
    dropped (and reported); the survivors' correlation matrices are
    restricted to the ordered intersection of their retained columns.
    Returns (subjects, common_columns, dropped_subjects).
    """
    tables = []
    dropped_subjects = []
    for spec in manifest.subjects:
        ts = ingest(manifest.resolve(spec))
        var = ts.values.var(axis=0)
        n_zero = int(np.count_nonzero(var <= manifest.drop.variance_floor))
        if n_zero > manifest.drop.max_zero_variance:
            dropped_subjects.append((spec.subject_id, n_zero))
            continue
        tables.append((spec, ts))
    if not tables:
        raise DegenerateInput("every subject was dropped by the zero-variance policy")

    kept_sets = []
    for spec, ts in tables:
        var = ts.values.var(axis=0)
        kept_sets.append(
            {c for c, v in zip(ts.columns, var) if v > manifest.drop.variance_floor}
        )
    common_set = set.intersection(*kept_sets)
    # deterministic order: first retained subject's column order
    common = tuple(c for c in tables[0][1].columns if c in common_set)
    if len(common) < 2:
        raise DegenerateInput("fewer than 2 columns shared by all subjects")

    subjects = []
    for spec, ts in tables:
        sel = [ts.columns.index(c) for c in common]
        sub = TimeSeriesTable(columns=common, values=ts.values[:, sel], source=ts.source)
        corr, kept, _ = correlation_of(sub, manifest.drop)
        if kept != common:
            raise DegenerateInput(
                f"{spec.subject_id}: column variance degenerated on the common set"
            )
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
    """Pairwise quotient distances between all retained subjects."""
    subjects, common, dropped, width = _factorized_cohort(manifest, k)
    n = len(subjects)
    D = np.zeros((n, n))
    reports = []
    for i in range(n):
        for j in range(i + 1, n):
            r = _align_pair(subjects[i].factor, subjects[j].factor, cfg)
            d = float(np.sqrt(max(r.loss, 0.0)))
            D[i, j] = D[j, i] = d
            reports.append(
                PairReport(
                    subject_a=subjects[i].spec.subject_id,
                    subject_b=subjects[j].spec.subject_id,
                    distance=d,
                    loss=r.loss,
                    grad_norm=r.grad_norm,
                    iterations=r.iterations,
                    converged=r.converged,
                    restarts_used=r.restarts_used,
                    stagnated=r.stagnated,
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
    from .corr import gram

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
    if threshold < 0.0 or not math.isfinite(threshold):
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
    """Labeled square matrix as CSV, 17 significant digits, byte-stable."""
    M = np.asarray(M, dtype=float)
    labels = list(labels)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id"] + labels)
        for lab, row in zip(labels, M):
            writer.writerow([lab] + [FLOAT_FMT.format(v) for v in row])


def read_matrix_csv(path):
    """Inverse of write_matrix_csv: returns (matrix, labels)."""
    path = Path(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise EmptyFile(f"{path} is empty")
    labels = [h.strip() for h in rows[0][1:]]
    data = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(labels) + 1:
            raise ParseError(
                f"{path}: line {lineno} has {len(row)} fields, expected {len(labels) + 1}"
            )
        try:
            data.append([float(c) for c in row[1:]])
        except ValueError:
            raise ParseError(f"{path}: line {lineno} has a non-numeric cell") from None
    if not data:
        raise EmptyFile(f"{path} has no data rows")
    M = np.array(data)
    if M.shape[0] != M.shape[1]:
        raise ParseError(f"{path}: matrix is {M.shape[0]} x {M.shape[1]}, expected square")
    return M, tuple(labels)


def write_factor_csv(path, X) -> None:
    """Unit-row factor as plain CSV with a generic header."""
    X = np.asarray(X, dtype=float)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"x{i}" for i in range(X.shape[1])])
        for row in X:
            writer.writerow([FLOAT_FMT.format(v) for v in row])


def read_factor_csv(path) -> np.ndarray:
    """Read a numeric CSV (one header row, float body) as a matrix."""
    path = Path(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise EmptyFile(f"{path} is empty")
    data = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        try:
            data.append([float(c) for c in row])
        except ValueError:
            raise ParseError(f"{path}: line {lineno} has a non-numeric cell") from None
    if not data:
        raise EmptyFile(f"{path} has no data rows")
    return np.array(data)


def write_run_report(path, payload: dict) -> None:
    """JSON report with sorted keys; wall time and diagnostics live here."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_jsonable)
        fh.write("\n")


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if hasattr(obj, "__dataclass_fields__"):
        return asdict(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")
