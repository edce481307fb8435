"""Package surface: every name a module exports exists on it."""

import ast
import importlib
import pathlib

import pytest

import gridcap

MODULES = ("_streams", "exact1d", "grid_model", "injections", "io_formats", "ld_rates", "montecarlo", "region", "thermal")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    # a stale __all__ entry breaks `from gridcap.<module> import *`
    module = importlib.import_module(f"gridcap.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_reexports_only_listed_names():
    # each name `gridcap` re-exports is public in its home module: listed in its __all__
    tree = ast.parse(pathlib.Path(gridcap.__file__).read_text())
    unlisted = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"gridcap.{node.module}")
            if hasattr(module, "__all__"):
                unlisted += [f"{node.module}.{a.name}" for a in node.names if a.name not in module.__all__]
    assert unlisted == []
