"""In-memory span tracing of the bmgon package, from outside it.

``Tracer.installed()`` replaces each traced public function with a
wrapper in every bmgon namespace that bound it, including the names that
other modules imported with ``from ... import``, and restores the
originals on exit.  A span records its name, start, end, parent span and
op id; spans stay in memory until ``write`` is called.

Traced are the public functions of ``oracle``, ``hexagon`` and
``evengon``, ``cli.main``, and in ``geom`` and ``pgram`` the four
functions the per-layer metrics name.  Their other public functions
(``gauge``, ``apply_linear`` and the like) are the inner loops of the
traced ones and are left unwrapped so that tracing does not swamp them.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

MODULES = ("geom", "pgram", "hexagon", "evengon", "oracle", "cli")
SELECTED = {
    "geom": ("boundary_point", "polygon_symmetries"),
    "pgram": ("circum_ratio", "vertex_hausdorff"),
    "cli": ("main",),
}


def _grid_scan_extra(bound: inspect.BoundArguments, result) -> tuple[int, int]:
    return bound.arguments["grid"], len(bound.arguments["c"].vertices) // 2


def _argmin_orbit_extra(bound: inspect.BoundArguments, result) -> int:
    return len(result)


# span extras computed from the call arguments or the result
EXTRAS = {
    "oracle.grid_scan": _grid_scan_extra,
    "oracle.argmin_orbit": _argmin_orbit_extra,
}


def traced_functions() -> dict[str, object]:
    """Qualified name -> original function for every traced function."""
    found = {}
    for short in MODULES:
        module = importlib.import_module(f"bmgon.{short}")
        names = SELECTED.get(short, module.__all__)
        for name in names:
            fn = getattr(module, name)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                found[f"{short}.{name}"] = fn
    return found


class Tracer:
    """Collects spans as tuples (name, start, end, parent, op, extra);
    parent is the index of the enclosing span or -1."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._originals = traced_functions()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        extra_fn = EXTRAS.get(name)
        signature = inspect.signature(fn) if extra_fn else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id, None)
            if extra_fn is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                spans[index] = spans[index][:5] + (extra_fn(bound, result),)
            return result

        return traced

    @contextmanager
    def installed(self, op_id: int):
        """Traces every call made inside the block under ``op_id``."""
        by_id = {id(fn): self._wrap(name, fn) for name, fn in self._originals.items()}
        patched = []
        for short in ("", *(f".{m}" for m in MODULES)):
            module = importlib.import_module(f"bmgon{short}")
            for attr, value in list(vars(module).items()):
                # the originals stay referenced, so their ids are unique
                if id(value) in by_id:
                    setattr(module, attr, by_id[id(value)])
                    patched.append((module, attr, value))
        self.op_id = op_id
        try:
            yield
        finally:
            self.op_id = -1
            for module, attr, value in patched:
                setattr(module, attr, value)

    def write(self, path: Path) -> None:
        """Writes the spans as gzipped JSON lines, times in nanoseconds
        from the first span."""
        t0 = min((s[1] for s in self.spans), default=0.0)
        with gzip.open(path, "wt") as out:
            for i, (name, start, end, parent, op, extra) in enumerate(self.spans):
                record = [i, name, round((start - t0) * 1e9), round((end - t0) * 1e9), parent, op]
                if extra is not None:
                    record.append(extra)
                out.write(json.dumps(record) + "\n")


def _self_times(spans: list[tuple]) -> list[float]:
    covered = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _, _) in enumerate(spans)]


def layer_metrics(spans: list[tuple], traced_ops: int, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics, per traced op, from the spans of a traced run.

    Cell counts and array sizes are computed from the grid_scan call
    arguments, not measured."""
    ops = max(traced_ops, 1)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    cells = evals = array_bytes = classes = 0
    for span, own in zip(spans, _self_times(spans)):
        name, extra = span[0], span[5]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        if name == "oracle.grid_scan":
            grid, m = extra
            cells += grid * grid
            evals += grid * grid * m
            array_bytes += grid * grid * 8
        elif name == "oracle.argmin_orbit":
            classes += extra

    def ms(name: str) -> float:
        return 1e3 * self_s.get(name, 0.0) / ops

    def module_ms(prefix: str) -> float:
        return 1e3 * sum(v for k, v in self_s.items() if k.startswith(prefix)) / ops

    scan_calls = calls.get("oracle.grid_scan", 0)
    default_starts = importlib.import_module("bmgon.oracle").SearchSettings().starts
    starts = calls.get("oracle.bm_distance", 0) * default_starts
    metrics = {
        "oracle.grid_scan.calls": (scan_calls / ops, "count/op"),
        "oracle.grid_scan.self_ms": (ms("oracle.grid_scan"), "ms/op"),
        "oracle.grid_scan.self_share": (
            self_s.get("oracle.grid_scan", 0.0) / traced_wall if traced_wall else 0.0,
            "fraction",
        ),
        "oracle.grid_scan.cells": (cells / ops, "count/op"),
        "oracle.grid_scan.cell_vertex_evals": (evals / ops, "count/op"),
        "oracle.grid_scan.ns_per_cell_vertex": (
            1e9 * self_s.get("oracle.grid_scan", 0.0) / evals if evals else 0.0,
            "ns",
        ),
        "oracle.grid_scan.array_mb": (array_bytes / scan_calls / 1e6 if scan_calls else 0.0, "MB"),
        "oracle.bm_distance.calls": (calls.get("oracle.bm_distance", 0) / ops, "count/op"),
        "oracle.bm_distance.self_ms": (ms("oracle.bm_distance"), "ms/op"),
        "oracle.bm_distance.starts": (starts / ops, "count/op"),
        "oracle.bm_distance.ms_per_start": (
            1e3 * self_s.get("oracle.bm_distance", 0.0) / starts if starts else 0.0,
            "ms",
        ),
        "oracle.argmin_orbit.calls": (calls.get("oracle.argmin_orbit", 0) / ops, "count/op"),
        "oracle.argmin_orbit.self_ms": (ms("oracle.argmin_orbit"), "ms/op"),
        "oracle.argmin_orbit.classes": (classes / ops, "count/op"),
    }
    for name in (
        "geom.polygon_symmetries",
        "pgram.vertex_hausdorff",
        "geom.boundary_point",
        "pgram.circum_ratio",
    ):
        metrics[f"{name}.calls"] = (calls.get(name, 0) / ops, "count/op")
        metrics[f"{name}.self_ms"] = (ms(name), "ms/op")
    metrics["hexagon.self_ms"] = (module_ms("hexagon."), "ms/op")
    metrics["evengon.self_ms"] = (module_ms("evengon."), "ms/op")
    metrics["cli.self_ms"] = (ms("cli.main"), "ms/op")
    metrics["trace.overhead_frac"] = (
        traced_wall / untraced_wall - 1.0 if untraced_wall else 0.0,
        "fraction",
    )
    metrics["trace.spans"] = (len(spans) / ops, "count/op")
    return metrics
