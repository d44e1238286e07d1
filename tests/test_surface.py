"""The public surface is the paper's geometry; test references live in tests."""

import ast
import dataclasses
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import corrgeo
from corrgeo import product_sphere


def test_all_names_are_unique_and_resolve():
    assert len(corrgeo.__all__) == len(set(corrgeo.__all__))
    for name in corrgeo.__all__:
        assert hasattr(corrgeo, name), name


def test_surface_size():
    assert len(corrgeo.__all__) <= 75


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
