"""Every name listed in ``__all__`` exists, in the package root and in
each module; tools that walk ``__all__`` (the benchmark's span tracer
among them) would otherwise fail on a stale entry."""

import importlib
import pkgutil

import pytest

import bmgon

MODULES = ["bmgon", *(f"bmgon.{info.name}" for info in pkgutil.iter_modules(bmgon.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []
