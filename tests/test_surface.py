"""The public surface is the paper's geometry; test references live in tests."""

import importlib

import pytest

import corrgeo


def test_all_names_are_unique_and_resolve():
    assert len(corrgeo.__all__) == len(set(corrgeo.__all__))
    for name in corrgeo.__all__:
        assert hasattr(corrgeo, name), name


def test_surface_size():
    assert len(corrgeo.__all__) <= 80


@pytest.mark.parametrize("module", ["sphere", "orthogonal_group", "oracle"])
def test_reference_modules_are_not_in_the_package(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(f"corrgeo.{module}")
