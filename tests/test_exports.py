"""Every name listed in ``__all__`` exists, in the package root and in
each module; tools that walk ``__all__`` (the benchmark's span tracer
among them) would otherwise fail on a stale entry."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import bmgon

MODULES = ["bmgon", *(f"bmgon.{info.name}" for info in pkgutil.iter_modules(bmgon.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []


def test_the_benchmark_hooks_resolve(monkeypatch):
    # the benchmark's tracer names functions of the package and reads
    # ``oracle.SearchSettings().starts``; a rename breaks it only there
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    spans = importlib.import_module("spans")
    traced = set(spans.traced_functions())
    named = {f"{short}.{name}" for short, names in spans.SELECTED.items() for name in names}
    assert named | set(spans.EXTRAS) <= traced
    metrics = spans.layer_metrics([], 0, 0.0, 0.0)
    assert metrics["oracle.bm_distance.starts"] == (0.0, "count/op")
