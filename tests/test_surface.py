"""The public surface is the paper's geometry; test references live in tests."""

import ast
import dataclasses
import importlib
import inspect
import io
import json
import subprocess
import sys
import tokenize
from pathlib import Path

import numpy as np
import pytest

import corrgeo
from corrgeo import DegenerateInput, InvalidInput, ParseError, product_sphere


def test_all_names_are_unique_and_resolve():
    assert len(corrgeo.__all__) == len(set(corrgeo.__all__))
    for name in corrgeo.__all__:
        assert hasattr(corrgeo, name), name


def test_surface_size():
    assert len(corrgeo.__all__) <= 75


def _code_lines(path):
    """The lines of a module that hold a token other than a comment, outside docstrings."""
    source = path.read_text()
    docstrings = {
        line
        for node in ast.walk(ast.parse(source, str(path)))
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and ast.get_docstring(node, clean=False) is not None
        for line in range(node.body[0].lineno, node.body[0].end_lineno + 1)
    }
    layout = {
        tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENDMARKER,
    }
    code = {
        line
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type not in layout
        for line in range(tok.start[0], tok.end[0] + 1)
    }
    return len(code - docstrings)


def test_code_size():
    # lines of package code, without docstrings, comments or blank lines; a
    # change that adds code raises the bound in its own diff
    package = Path(corrgeo.__file__).parent
    assert sum(_code_lines(path) for path in package.rglob("*.py")) <= 1781


def test_solver_config_fields_are_the_settings_callers_set():
    # the CLI sets grad_tol, restarts and seed; stagnation_tol is part of the
    # distance report. Every other tolerance or cap is a module constant, and
    # orbit_exp always checks horizontality.
    fields = {f.name for f in dataclasses.fields(corrgeo.SolverConfig)}
    assert fields == {"grad_tol", "restarts", "seed", "stagnation_tol"}


@pytest.mark.parametrize("module", ["sphere", "orthogonal_group", "oracle"])
def test_reference_modules_are_not_in_the_package(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(f"corrgeo.{module}")


def test_numpy_is_the_only_runtime_dependency():
    # a fresh interpreter, so modules the tests import do not count
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import corrgeo, corrgeo.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(src)], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_library_code_never_prints():
    # the library reports through return values, exceptions and logging; only
    # the CLI writes to the terminal
    package = Path(corrgeo.__file__).parent
    modules = sorted(p for p in package.rglob("*.py") if p.name != "cli.py")
    assert len(modules) > 5
    prints = [
        f"{path.relative_to(package)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "print"
    ]
    assert prints == []


def test_the_solver_knows_no_pair_search():
    # the rotation search's start policy (the gate on first starts, the
    # certificate's retirement, the release of pending starts) lives in
    # quotient_space; the shared solver takes one idle rule and names none
    # of the policy's parts
    params = inspect.signature(product_sphere._trust_region).parameters
    assert list(params) == ["model", "retract", "x", "cfg", "idle"]
    path = Path(product_sphere.__file__)
    names = {
        value
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        for field in ("id", "arg", "attr", "name", "asname")
        if isinstance(value := getattr(node, field, None), str)
    }
    assert names.isdisjoint({"certify", "block", "wait", "retired", "START_TOL"})


def test_solve_records_are_read_by_name():
    # outside product_sphere a _trust_region result is bound to one name and
    # read by field: never unpacked, star-unpacked or indexed by position
    package = Path(product_sphere.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "product_sphere.py":
            continue
        nodes = list(ast.walk(ast.parse(path.read_text(), str(path))))
        calls = [n for n in nodes if isinstance(n, ast.Call)]
        calls = [n for n in calls if getattr(n.func, "id", "") == "_trust_region"]
        binds = [n for n in nodes if isinstance(n, ast.Assign) and n.value in calls]
        targets = [t for n in binds for t in n.targets]
        assert len(targets) == len(calls), path.name
        assert all(isinstance(t, ast.Name) for t in targets), path.name
        names = {t.id for t in targets}
        positional = [
            n.lineno
            for n in nodes
            if isinstance(n, (ast.Subscript, ast.Starred)) and getattr(n.value, "id", "") in names
        ]
        assert positional == [], path.name


def _file(directory, name, text):
    path = directory / name
    path.write_text(text)
    return path


def _subjects(directory, tables, drop=None):
    """A JSON manifest of one time-series CSV per (columns, values) table."""
    doc = {"subjects": [], "drop": drop or {}}
    for i, (columns, values) in enumerate(tables):
        rows = [",".join(columns)] + [",".join(repr(float(v)) for v in row) for row in values]
        _file(directory, f"s{i}.csv", "\n".join(rows) + "\n")
        doc["subjects"].append({"subject_id": f"s{i}", "path": f"s{i}.csv"})
    return _file(directory, "cohort.json", json.dumps(doc))


_NOISE = np.random.default_rng(0).standard_normal((6, 3))
_EYE2, _EYE3 = np.eye(2), np.eye(3)

# (public call of a directory, exception class, message pattern)
_INPUT_CHECKS = {
    "ps_dist shape": (lambda d: corrgeo.ps_dist(_EYE2, _EYE3), InvalidInput, r"shape mismatch"),
    "ps_dist non-matrix": (
        lambda d: corrgeo.ps_dist(np.ones(3), np.ones(3)),
        InvalidInput,
        r"X must be a matrix, got shape \(3,\)",
    ),
    "ps_log shape": (lambda d: corrgeo.ps_log(_EYE2, _EYE3), InvalidInput, r"shape mismatch"),
    "ps_project shape": (
        lambda d: corrgeo.ps_project(_EYE2, np.zeros((3, 2))),
        InvalidInput,
        r"shape mismatch \(3, 2\) vs \(2, 2\)",
    ),
    "ProductTangent shape": (
        lambda d: corrgeo.ProductTangent(_EYE2, np.zeros((3, 2))),
        InvalidInput,
        r"tangent shape \(3, 2\) does not match base \(2, 2\)",
    ),
    "ps_exp NaN velocity": (
        lambda d: corrgeo.ps_exp(_EYE2, [[0.0, np.nan], [0.0, 0.0]]),
        InvalidInput,
        r"tangent has non-finite entries",
    ),
    "ps_frechet_fixed no samples": (
        lambda d: corrgeo.ps_frechet_fixed([], []),
        InvalidInput,
        r"need at least one sample",
    ),
    "ps_frechet_fixed weights shape": (
        lambda d: corrgeo.ps_frechet_fixed([_EYE2, _EYE2], [1.0]),
        InvalidInput,
        r"weights shape \(1,\) does not match 2 samples",
    ),
    "quotient_metric raw array": (
        lambda d: corrgeo.quotient_metric(np.zeros((2, 2)), np.zeros((2, 2))),
        InvalidInput,
        r"quotient_metric expects tangent objects",
    ),
    "lift_gradient shape": (
        lambda d: corrgeo.lift_gradient(_EYE2, np.zeros((3, 2))),
        InvalidInput,
        r"gradient shape \(3, 2\) does not match \(2, 2\)",
    ),
    "sym_eig non-finite": (
        lambda d: corrgeo.sym_eig([[np.nan, 0.0], [0.0, 1.0]]),
        InvalidInput,
        r"E has non-finite entries",
    ),
    "numerical_rank non-finite": (
        lambda d: corrgeo.numerical_rank([[np.inf]]),
        InvalidInput,
        r"rank of a non-finite matrix is undefined",
    ),
    "validate non-square": (
        lambda d: corrgeo.validate(np.ones((2, 3))),
        InvalidInput,
        r"expected a nonempty square matrix, got shape \(2, 3\)",
    ),
    "validate empty": (
        lambda d: corrgeo.validate(np.zeros((0, 0))),
        InvalidInput,
        r"expected a nonempty square matrix, got shape \(0, 0\)",
    ),
    "as_correlation empty": (
        lambda d: corrgeo.as_correlation(np.zeros((0, 0))),
        InvalidInput,
        r"expected a nonempty square matrix, got shape \(0, 0\)",
    ),
    "factorize empty": (
        lambda d: corrgeo.factorize(np.zeros((0, 0)), 2),
        InvalidInput,
        r"expected a nonempty square matrix, got shape \(0, 0\)",
    ),
    "factorize zero CorrelationMatrix": (
        lambda d: corrgeo.factorize(corrgeo.CorrelationMatrix(np.zeros((2, 2))), 2),
        InvalidInput,
        r"a row of the factor collapsed to zero norm",
    ),
    "gram no rows": (
        lambda d: corrgeo.gram(np.zeros((0, 2))),
        InvalidInput,
        r"expected a nonempty square matrix, got shape \(0, 0\)",
    ),
    "sym_eig empty": (
        lambda d: corrgeo.sym_eig(np.zeros((0, 0))),
        InvalidInput,
        r"E must be a nonempty square matrix, got shape \(0, 0\)",
    ),
    "sylvester_spd empty": (
        lambda d: corrgeo.sylvester_spd(np.zeros((0, 0)), np.zeros((0, 0))),
        InvalidInput,
        r"W must be a nonempty square matrix, got shape \(0, 0\)",
    ),
    "WeightedSampleSet mixed shapes": (
        lambda d: corrgeo.WeightedSampleSet(points=(_EYE2, _EYE3), weights=[1.0, 1.0]),
        InvalidInput,
        r"sample 1 has shape \(3, 3\), expected \(2, 2\)",
    ),
    "TimeSeriesTable width": (
        lambda d: corrgeo.TimeSeriesTable(("a", "b"), np.zeros((3, 3))),
        InvalidInput,
        r"values shape \(3, 3\) does not match 2 columns",
    ),
    "load_manifest bad JSON": (
        lambda d: corrgeo.load_manifest(_file(d, "m.json", "{not json")),
        ParseError,
        r"invalid JSON",
    ),
    "load_manifest delimited columns": (
        lambda d: corrgeo.load_manifest(_file(d, "m.csv", "id,file\ns0,s0.csv\n")),
        ParseError,
        r"delimited manifest needs columns subject_id,path",
    ),
    "load_cohort every subject dropped": (
        lambda d: corrgeo.load_cohort(
            corrgeo.load_manifest(
                _subjects(d, [("abc", _NOISE * [1, 1, 0])], drop={"max_zero_variance": 0})
            )
        ),
        DegenerateInput,
        r"every subject was dropped by the zero-variance policy",
    ),
    "load_cohort shared columns": (
        lambda d: corrgeo.load_cohort(
            corrgeo.load_manifest(_subjects(d, [("ab", _NOISE[:, :2]), ("ac", _NOISE[:, 1:])]))
        ),
        DegenerateInput,
        r"fewer than 2 columns shared by all subjects",
    ),
    "pairwise_distances k=1": (
        lambda d: corrgeo.pairwise_distances(
            corrgeo.load_manifest(_subjects(d, [("abc", _NOISE), ("abc", _NOISE[::-1])])), k=1
        ),
        InvalidInput,
        r"factor width must be at least 2, got 1",
    ),
    "difference_report shape": (
        lambda d: corrgeo.difference_report(_EYE2, _EYE3, 0.1),
        InvalidInput,
        r"incompatible shapes \(2, 2\) vs \(3, 3\)",
    ),
    "difference_report columns": (
        lambda d: corrgeo.difference_report(_EYE2, _EYE2, 0.1, columns=["a"]),
        InvalidInput,
        r"1 column names for a 2 x 2 matrix",
    ),
    "read_matrix_csv non-square": (
        lambda d: corrgeo.read_matrix_csv(_file(d, "m.csv", "id,a,b\na,1,0\n")),
        ParseError,
        r"matrix is 1 x 2, expected square",
    ),
    "write_run_report unserializable": (
        lambda d: corrgeo.write_run_report(d / "r.json", {"x": object()}),
        TypeError,
        r"cannot serialize object",
    ),
}


@pytest.mark.parametrize("case", list(_INPUT_CHECKS))
def test_public_calls_check_their_input(tmp_path, case):
    call, error, message = _INPUT_CHECKS[case]
    with pytest.raises(error, match=message):
        call(tmp_path)


def test_numerical_rank_of_an_empty_matrix_is_zero():
    assert corrgeo.numerical_rank(np.zeros((0, 3))) == 0
