"""Every name listed in ``__all__`` exists, in the package root and in
each module; tools that walk ``__all__`` (the benchmark's span tracer
among them) would otherwise fail on a stale entry.  Every such name is
also used: by the package or its scripts, or by the benchmark's
tracer; so is every public method and property of an exported class."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path
from types import FunctionType

import pytest

import bmgon

ROOT = Path(__file__).resolve().parents[1]
MODULES = ["bmgon", *(f"bmgon.{info.name}" for info in pkgutil.iter_modules(bmgon.__path__))]


def _defined(statement: ast.stmt) -> set[str]:
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {statement.name}
    targets = getattr(statement, "targets", [getattr(statement, "target", None)])
    return {target.id for target in targets if isinstance(target, ast.Name)}


def _uses(path: Path) -> set[str]:
    """Identifiers a file reads, as names or attributes, outside type
    annotations and outside the top-level statement that defines them; a
    name imported under another name counts under both."""
    tree = ast.parse(path.read_text())
    annotations = {
        id(inner)
        for node in ast.walk(tree)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None))
        if annotation is not None
        for inner in ast.walk(annotation)
    }
    used: set[str] = set()
    for statement in tree.body:
        used |= {
            node.attr if isinstance(node, ast.Attribute) else node.id
            for node in ast.walk(statement)
            if id(node) not in annotations
            and (
                isinstance(node, ast.Attribute)
                or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            )
        } - _defined(statement)
    renamed = {
        alias.asname: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.asname
    }
    return used | {renamed[name] for name in used & set(renamed)}


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


def _package_uses() -> set[str]:
    files = [*(ROOT / "src" / "bmgon").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    return set().union(*map(_uses, files))


def test_every_exported_name_is_used(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spans = importlib.import_module("spans")
    used = _package_uses()
    traced = {f"bmgon.{short}.{name}" for short, names in spans.SELECTED.items() for name in names}
    unused = [
        f"{name}.{entry}"
        for name in MODULES
        for entry in importlib.import_module(name).__all__
        if not (entry.startswith("__") and entry.endswith("__"))
        and entry not in used
        and f"{name}.{entry}" not in traced
    ]
    assert unused == []


def test_every_public_method_of_an_exported_class_is_used():
    # methods and properties are read as attributes, so the benchmark's
    # tracer counts through its source, not through its traced names
    used = _package_uses() | _uses(ROOT / "perfbench" / "spans.py")
    exported = {
        getattr(module, entry)
        for module in map(importlib.import_module, MODULES)
        for entry in module.__all__
    }
    unused = [
        f"{cls.__module__}.{cls.__qualname__}.{attr}"
        for cls in filter(inspect.isclass, exported)
        for attr, member in vars(cls).items()
        if not attr.startswith("_")
        and isinstance(member, (FunctionType, classmethod, staticmethod, property))
        and attr not in used
    ]
    assert sorted(unused) == []
