"""Smoke runs of the scripts under scripts/, each in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True, text=True, timeout=120, env=env,
    )


def test_make_figures_writes_every_figure(tmp_path):
    proc = run_script("make_figures.py", "--grid", "90", "--out", str(tmp_path / "figs"))
    assert proc.returncode == 0, proc.stderr
    written = sorted(path.name for path in (tmp_path / "figs").iterdir())
    assert written == [
        "beta_curve_j1.csv",
        "hexagon_b0.svg",
        "hexagon_critical.svg",
        "hexagon_curve.csv",
        "hexagon_optimal.svg",
        "octagon_optimal.svg",
    ]
    assert "hexagon_optimal.svg (2 configurations)" in proc.stdout


def test_probe_conjectures_skips_the_proven_hexagon():
    proc = run_script("probe_conjectures.py", "--n", "6,10", "--grids", "90")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "skipping n with proven values: [6]"
    rows = [line.split() for line in lines if line[:4].strip().isdigit()]
    assert [row[:2] for row in rows] == [["10", "8j+2"]]
    assert abs(float(rows[0][3])) < 1e-6
