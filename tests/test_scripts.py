"""Smoke runs of the scripts under scripts/, each in a fresh interpreter,
and of the README's library example and command lines, in process."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from bmgon.cli import main

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True, text=True, timeout=120, env=env,
    )


def test_make_figures_writes_every_figure(tmp_path):
    proc = run_script("make_figures.py", "--out", str(tmp_path / "figs"))
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
    # each figure is drawn by the render command, which prints its count
    (optimal,) = [
        block for block in proc.stdout.split("command: ")
        if block.rstrip().endswith("hexagon_optimal.svg")
    ]
    assert "configurations: 2" in optimal


def _readme_blocks(lang):
    text = (ROOT / "README.md").read_text()
    return re.findall(rf"^```{lang}\n(.*?)^```", text, flags=re.M | re.S)


def test_readme_library_example_runs():
    (block,) = _readme_blocks("python")
    exec(compile(block, "README.md", "exec"), {})


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = [
        shlex.split(line, comments=True)
        for block in _readme_blocks("sh")
        for line in block.splitlines()
        if line.startswith("bmgon ")
    ]
    assert len(commands) == 7
    for argv in commands:
        assert main(argv[1:]) == 0, argv
    capsys.readouterr()
