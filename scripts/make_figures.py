#!/usr/bin/env python3
"""Produce the standard figures and curve data.

Writes into the output directory (default ./figures):
  - hexagon_b0.svg, hexagon_critical.svg, hexagon_optimal.svg
  - octagon_optimal.svg
  - hexagon_curve.csv, beta_curve_j1.csv

Usage:
    python scripts/make_figures.py [--out figures] [--grid 360]
"""

from __future__ import annotations

import argparse
from pathlib import Path

from bmgon import (
    HEXAGON,
    argmin_orbit,
    bm_distance,
    circum_ratio,
    contacts,
    hex_build,
    hex_critical_b,
    regular_polygon,
)
from bmgon.cli import main as cli_main
from bmgon.cli import render_svg


def write_member_figure(path: Path, b: float) -> None:
    p = hex_build(b).parallelogram
    lam = circum_ratio(p, HEXAGON)
    path.write_text(render_svg(HEXAGON, [(p, lam, contacts(p, HEXAGON, lam))]))
    print(f"wrote {path} (b={b:.6g}, lambda={lam:.9g})")


def write_optimal_figure(path: Path, n: int, grid: int) -> None:
    gon = regular_polygon(n)
    reps = argmin_orbit(gon, bm_distance(gon, grid=grid))
    configs = [
        (p, circum_ratio(p, gon), contacts(p, gon, circum_ratio(p, gon))) for p in reps
    ]
    path.write_text(render_svg(gon, configs))
    print(f"wrote {path} ({len(configs)} configurations)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=Path("figures"))
    parser.add_argument("--grid", type=int, default=360)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    write_member_figure(args.out / "hexagon_b0.svg", 0.0)
    write_member_figure(args.out / "hexagon_critical.svg", hex_critical_b())
    write_optimal_figure(args.out / "hexagon_optimal.svg", 6, args.grid)
    write_optimal_figure(args.out / "octagon_optimal.svg", 8, args.grid)

    for target, name, extra in (
        ("hexagon", "hexagon_curve.csv", []),
        ("beta", "beta_curve_j1.csv", ["--j", "1"]),
    ):
        out = args.out / name
        code = cli_main(["curve", target, str(out), "--samples", "201", *extra])
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
