"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
DECLARED_WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(workload):
    first = workloads.inputs_digest(workloads.build_ops(workload, 7))
    assert workloads.inputs_digest(workloads.build_ops(workload, 7)) == first
    assert workloads.inputs_digest(workloads.build_ops(workload, 8)) != first
    probe = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, "7"],
        capture_output=True, text=True, check=True,
    )
    assert probe.stdout.strip() == first


def test_metric_names_and_declared_sets():
    layer_names = set(spans.layer_metrics([], 0, 0.0, 0.0))
    declared_e2e = {m["name"] for m in BENCHMARK["end_to_end"]}
    declared_layers = {m["name"] for m in BENCHMARK["per_layer"]}
    assert declared_e2e == set(run.END_TO_END_UNITS)
    assert declared_layers == layer_names
    for name in declared_e2e | declared_layers | set(DECLARED_WORKLOADS):
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_tail_percentile_leaves_ten_samples_beyond():
    for samples in range(1, 2000):
        rank = run.tail_rank(samples)
        if samples < 11:
            assert rank is None
            continue
        assert samples - rank >= 10  # at least 10 samples beyond the tail
        assert samples - (rank + 1) < 10  # and it is the highest such rank


def test_raising_op_is_counted_as_failed():
    hexagon = workloads.regular_polygon(6)
    op = workloads.Op(
        index=0, kind="distance", family=0, role="scaled",
        polygon=workloads.scaled(hexagon, 1e-7), grid=360,
    )
    loop = run.run_loop(workloads, [op], 0.0, None)
    assert loop["failed"] == 1 and len(loop["walls"]) == 1
    assert "cross(u, v) > 0" in loop["failures"][0]


def test_wrong_class_count_fails_the_check():
    ops = workloads.build_ops("orbit_classes", 0)
    op = next(op for op in ops if op.role == "base" and workloads.expected_classes(op) == 2)
    result, reps = workloads.run_op(op)
    assert workloads.check_op(op, (result, reps), {}) is None
    assert "symmetry classes" in workloads.check_op(op, (result, reps[:1]), {})


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", DECLARED_WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.01", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace and workload == "verify_all":
        # one pass of `bmgon verify all` makes exactly these calls; a call
        # site the wrappers missed would show as a lower count
        metrics = result["metrics"]
        assert metrics["oracle.bm_distance.calls"]["value"] == 32
        assert metrics["oracle.grid_scan.calls"]["value"] == 34
        assert metrics["oracle.argmin_orbit.calls"]["value"] == 1


def test_fails_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_all", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
