"""Package surface: every name a module exports exists on it."""

import importlib

import pytest

MODULES = ("_streams", "exact1d", "grid_model", "injections", "io_formats", "ld_rates", "montecarlo", "region", "thermal")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    # a stale __all__ entry breaks `from gridcap.<module> import *`
    module = importlib.import_module(f"gridcap.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
