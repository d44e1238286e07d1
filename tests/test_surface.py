"""The public surface is the paper's geometry; test references live in tests."""

import ast
import dataclasses
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import corrgeo


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
