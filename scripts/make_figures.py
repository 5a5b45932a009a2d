#!/usr/bin/env python3
"""Produce the standard figures and curve data.

Writes into the output directory (default ./figures), through the
``render`` and ``curve`` commands of the bmgon CLI:
  - hexagon_b0.svg, hexagon_critical.svg, hexagon_optimal.svg
  - octagon_optimal.svg
  - hexagon_curve.csv, beta_curve_j1.csv

Usage:
    python scripts/make_figures.py [--out figures]
"""

from __future__ import annotations

import argparse
from pathlib import Path

from bmgon import hex_critical_b
from bmgon.cli import main as cli_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=Path("figures"))
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    for command, target, name, *options in (
        ("render", "P6", "hexagon_b0.svg", "--b", "0"),
        ("render", "P6", "hexagon_critical.svg", "--b", repr(hex_critical_b())),
        ("render", "P6", "hexagon_optimal.svg", "--b", "optimal"),
        ("render", "P8", "octagon_optimal.svg", "--b", "optimal"),
        ("curve", "hexagon", "hexagon_curve.csv", "--samples", "201"),
        ("curve", "beta", "beta_curve_j1.csv", "--samples", "201", "--j", "1"),
    ):
        code = cli_main([command, target, str(args.out / name), *options])
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
