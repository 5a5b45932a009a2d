"""Command line front end: polygon generation and ingestion, distance
computation, verification suites, curve sampling to CSV, and
deterministic SVG rendering.

Output is line-oriented ``key: value`` text with numbers at 9 significant
digits; ``--json`` switches to one JSON record per result line.  Exit
status is 0 on success (for verify: all rows passed), 1 when verification
rows fail, 2 on bad input, and 141 (128 + SIGPIPE, as for a writer the
signal kills) when the reader closes stdout before the output is written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from .evengon import (
    axis_parallelogram,
    beta_b_max,
    beta_h,
    beta_k,
    beta_square,
    dist_pn_phn,
    theorem2_value,
)
from .geom import (
    CentralPolygon,
    Vec2,
    boundary_projection,
    format_polygon,
    linear_image,
    parse_polygon,
    regular_polygon,
    strip_ratios,
)
from .hexagon import (
    B_REGIME_MAX,
    HEXAGON,
    hex_build,
    hex_critical_b,
    hex_h,
    hex_h_derivative,
    hex_optimal_positions,
)
from .oracle import BMResult, _class_key_fn, argmin_orbit, bm_distance, grid_scan
from .pgram import Parallelogram, circum_ratio, contacts

__all__ = ["Claim", "main", "render_svg"]

_SQRT2 = math.sqrt(2.0)
_SHORTHAND = re.compile(r"[Pp]([0-9]+)$")

# the kinds of claim and the note each carries in the output
_NOTES = {
    "exact": "",
    "at_least": "one-sided",
    "upper_bound": "conjecture support",
}


@dataclass(frozen=True)
class Claim:
    """One verification result: a claimed value, the computed value, the
    tolerance, and the kind of claim, which decides the verdict:

    - "exact": passes when |claimed - computed| <= tolerance;
    - "at_least": passes when computed >= claimed - tolerance;
    - "upper_bound" (a conjectured-sharp bound): the verdict of "exact", so
      a search that beats the bound fails as one that misses it does.
    """

    label: str
    claimed: float
    computed: float
    tolerance: float
    kind: str = "exact"

    def __post_init__(self) -> None:
        if self.kind not in _NOTES:
            raise ValueError(f"claim kind must be one of {sorted(_NOTES)}, got {self.kind!r}")

    @property
    def gap(self) -> float:
        return self.claimed - self.computed

    @property
    def passed(self) -> bool:
        if self.kind == "at_least":
            return self.computed >= self.claimed - self.tolerance
        return abs(self.gap) <= self.tolerance

    @property
    def note(self) -> str:
        return _NOTES[self.kind]


def _nine(x: float) -> str:
    return f"{x:.9g}"


def _vec(v: Vec2) -> str:
    return f"{_nine(v.x)},{_nine(v.y)}"


def _load_polygon(arg: str) -> tuple[CentralPolygon, str, int]:
    """Returns the polygon ("Pn" builds the regular n-gon, anything else
    is read as a polygon file), a display name and n: the vertex count if
    the vertices are the regular n-gon's bit for bit, else 0."""
    if match := _SHORTHAND.fullmatch(arg):
        n = int(match.group(1))
        return regular_polygon(n), f"P{n}", n
    try:
        text = Path(arg).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read polygon file {arg}: {exc}") from exc
    gon = parse_polygon(text)
    n = len(gon.vertices)
    return gon, str(Path(arg)), n if gon.vertices == regular_polygon(n).vertices else 0


def _family(n: int) -> tuple[CentralPolygon, float, Callable, Callable]:
    """The inscribed family drawn on the regular n-gon, as (polygon,
    largest slope, member at slope b, closed-form ratio at b): the
    hexagon's balanced family for n = 6, the square family for n = 8j."""
    if n == 6:
        return HEXAGON, B_REGIME_MAX, hex_build, hex_h
    if n >= 8 and n % 8 == 0:
        j = n // 8
        return regular_polygon(n), beta_b_max(j), partial(beta_square, j), partial(beta_h, j)
    raise ValueError("a family member needs P6 or a regular 8j-gon, j >= 1")


def _family_samples(n: int, count: int) -> list[tuple[float, float, float]]:
    """(b, closed-form ratio, ratio of the constructed member) at count
    evenly spaced slopes from 0 to the family's largest."""
    gon, hi, member, ratio = _family(n)
    slopes = (hi * (i / (count - 1)) for i in range(count))
    return [(b, ratio(b), circum_ratio(member(b), gon)) for b in slopes]


# ---------------------------------------------------------------------------
# verification suites


def _bisect_zero(f, lo: float, hi: float) -> float:
    """Zero of f on [lo, hi], where f(lo) > 0 > f(hi), bisected until
    the midpoint no longer lies strictly between the ends."""
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return mid


def suite_theorem1() -> list[Claim]:
    """Hexagon distance 3/2 and the ratio curve of the balanced family."""
    rows = [_search_row("P6 distance equals 3/2", 6, 360)]
    _, _, f = grid_scan(HEXAGON, 360)
    floor = float(f.min())  # F holds finite values and +inf
    rows.append(Claim("P6 grid objective never below 3/2", 1.5, floor, 1e-12, "at_least"))
    rows.append(Claim("hex family ratio at b=0", 1.5, hex_h(0.0), 1e-12))
    rows.append(Claim("hex family ratio at b=sqrt(3)/5", 1.5, hex_h(B_REGIME_MAX), 1e-12))
    root = _bisect_zero(hex_h_derivative, 0.0, B_REGIME_MAX)
    rows.append(Claim("hex critical slope closed form", hex_critical_b(), root, 1e-12))
    # the paper states h(b*) to 4 decimals: the claim is that rounding
    rows.append(Claim("hex ratio at critical slope", 1.5224, hex_h(hex_critical_b()), 5e-5))
    dev = max(abs(h - geometric) for _, h, geometric in _family_samples(6, 101))
    rows.append(Claim("hex closed form vs construction, 101 samples", 0.0, dev, 1e-12))
    return rows


def suite_remark() -> list[Claim]:
    """The two known optimal positions and the search's symmetry classes,
    matched by the class key of their generators' boundary parameters."""
    key = _class_key_fn(HEXAGON)

    def class_key(p: Parallelogram) -> tuple[tuple[float, float], float]:
        # the key, and the larger distance of a generator from the boundary
        (t1, du), (t2, dv) = (boundary_projection(HEXAGON, w) for w in (p.u, p.v))
        return key(t1, (t2 - t1) % (2 * HEXAGON.m)), max(du, dv)

    rows, known = [], []
    for i, p in enumerate(hex_optimal_positions(), start=1):
        k, dist = class_key(p)
        known.append(k)
        rows.append(Claim(f"known position {i} inscribed", 0.0, dist, 1e-12))
        rows.append(Claim(f"known position {i} ratio 3/2", 1.5, circum_ratio(p, HEXAGON), 1e-12))
    found = [class_key(p)[0] for p in argmin_orbit(HEXAGON, bm_distance(HEXAGON, grid=360))]
    rows.append(Claim("P6 optimal symmetry classes", 2.0, float(len(found)), 0.0))
    gaps = [[max(abs(a - c), abs(b - d)) for c, d in found] for a, b in known]
    match = max(max(map(min, gaps)), max(map(min, zip(*gaps))))
    rows.append(Claim("P6 optimal classes match known positions", 0.0, match, 1e-13))
    return rows


def _search_row(label: str, n: int, grid: int) -> Claim:
    """The search's distance of the regular n-gon at the given grid
    against its family value, at 1e-13 and with the value's kind."""
    family = theorem2_value(n)
    result = bm_distance(regular_polygon(n), grid=grid)
    return Claim(label, family.value, result.lam, 1e-13, family.kind)


def suite_theorem2() -> list[Claim]:
    """Even-gon family values: exact distances, the witnessing axis
    construction, probes of the conjectured bounds, and consistency
    identities across the families."""
    rows = [
        _search_row(f"P{n} distance equals {desc}", n, 360)
        for n, desc in (
            (8, "sqrt(2)"),
            (16, "sqrt(2)"),
            (12, "sqrt(2)cos(pi/12)"),
            (20, "sqrt(2)cos(pi/20)"),
        )
    ]
    for n in range(8, 22, 2):
        gon = regular_polygon(n)
        built = circum_ratio(axis_parallelogram(gon), gon)
        rows.append(
            Claim(f"axis parallelogram value, P{n}", theorem2_value(n).value, built, 1e-12)
        )
    rows += [_search_row(f"P{n} probe of conjectured bound", n, 720) for n in (10, 14)]
    rows.append(Claim("family value at n=6 equals 3/2", 1.5, theorem2_value(6).value, 1e-12))
    dev = max(
        abs(dist_pn_phn(4, 2 * j + 1) - theorem2_value(8 * j + 4).value)
        for j in range(1, 9)
    )
    rows.append(Claim("square vs (8j+4)-gon identity, j=1..8", 0.0, dev, 1e-12))
    return rows


def suite_families() -> list[Claim]:
    """Theorem 2 across n: the search at grid 720 against the family
    value of every regular n-gon with n = 6, 8, ..., 66; the rows of
    n = 8j + 2 and 8j + 6 other than 6 carry "conjecture support"."""
    return [
        _search_row(f"P{n} distance, family {theorem2_value(n).family}", n, 720)
        for n in range(6, 68, 2)
    ]


def suite_beta() -> list[Claim]:
    """The square family of the 8j-gon: endpoint ratio sqrt(2), strict
    interior excess, and squareness of the search optimum.

    The excess of h(b) = sqrt(2) (k - b) / (k (b^2 + 1)) over sqrt(2)
    factors as sqrt(2) b (-1/k - b) / (b^2 + 1), positive exactly for
    0 < b < -1/k since k < 0.  So h exceeds sqrt(2) at every interior
    slope of [0, tan(pi/(8j))] once -1/k >= tan(pi/(8j)), which the
    interior row checks; the two are equal in exact arithmetic."""
    rows = []
    for j in range(1, 5):
        hi = beta_b_max(j)
        dev = max(abs(beta_h(j, 0.0) - _SQRT2), abs(beta_h(j, hi) - _SQRT2))
        rows.append(Claim(f"beta endpoints at sqrt(2), j={j}", 0.0, dev, 1e-12))
        label = f"beta interior exceeds sqrt(2): -1/k >= tan(pi/8j), j={j}"
        rows.append(Claim(label, hi, -1.0 / beta_k(j), 1e-12, "at_least"))
    for n in (8, 16):
        result = bm_distance(regular_polygon(n), grid=360)
        u, v = result.parallelogram.u, result.parallelogram.v
        square_defect = max(abs(u.norm() - v.norm()), abs(u.dot(v)))
        rows.append(Claim(f"P{n} optimum is a square", 0.0, square_defect, 1e-13))
    return rows


def suite_lemma(seed: int) -> list[Claim]:
    """Randomized check that nested parallel strips cut every transversal
    through the origin in the ratio of their widths.

    Each instance draws the strips' normal angle theta, the outer
    half-width, the inner's share of it and the transversal's angle phi,
    in that order, and draws phi again while the transversal is within
    1e-6 of parallel to the strips.  Each is ``Generator.uniform``'s
    value low + (high - low) * r for the next ``random()`` draw r."""
    rng = np.random.default_rng(seed)

    def draws():
        while True:
            yield from rng.random(4000).tolist()

    r = draws()
    worst = 0.0
    for _ in range(1000):
        theta = math.pi * next(r)
        nx, ny = math.cos(theta), math.sin(theta)
        outer_hw = 0.5 + 2.5 * next(r)
        inner_hw = outer_hw * (0.05 + 0.95 * next(r))
        while True:
            phi = 2.0 * math.pi * next(r)
            dx, dy = math.cos(phi), math.sin(phi)
            if abs(dx * nx + dy * ny) > 1e-6:
                break
        norm = math.hypot(dx, dy)
        wr, cr = strip_ratios(nx, ny, inner_hw, outer_hw, dx / norm, dy / norm)
        worst = max(worst, abs(wr - cr))
    return [Claim("strip ratio identity, 1000 seeded instances", 0.0, worst, 1e-10)]


def _random_map(rng: np.random.Generator) -> list[list[float]]:
    """Random nonsingular 2x2 matrix with condition number at most 20,
    by rejection."""
    while True:
        mat = rng.uniform(-2.0, 2.0, size=(2, 2))
        s = np.linalg.svd(mat, compute_uv=False)
        if s[1] > 1e-6 and s[0] / s[1] <= 20.0:
            return mat.tolist()


def suite_affine(seed: int) -> list[Claim]:
    """Distance invariance under random well-conditioned linear maps."""
    rng = np.random.default_rng(seed)
    rows = []
    for n in (6, 8):
        gon = regular_polygon(n)
        base = bm_distance(gon, grid=720).lam
        dev = 0.0
        for _ in range(10):
            image = linear_image(gon, _random_map(rng))
            dev = max(dev, abs(bm_distance(image, grid=720).lam - base))
        rows.append(Claim(f"affine invariance of P{n} distance, 10 maps", 0.0, dev, 1e-12))
    return rows


# in the order `verify all` runs them
_SUITES = {
    "theorem1": lambda seed: suite_theorem1(),
    "remark": lambda seed: suite_remark(),
    "theorem2": lambda seed: suite_theorem2(),
    "beta": lambda seed: suite_beta(),
    "lemma": suite_lemma,
    "affine": suite_affine,
}
# run by name only: `all` keeps its 41 rows, which the benchmark pins
_STANDALONE = {"families": lambda seed: suite_families()}


# ---------------------------------------------------------------------------
# output plumbing


def _emit_report(
    args: argparse.Namespace, rows: list[Claim], runtime_ms: int, suite_runtime_ms: dict[str, int]
) -> bool:
    """Prints the verify report, as text or as JSON lines, and returns
    whether every row passed.  Only the JSON summary carries the time of
    each suite."""
    count = sum(1 for row in rows if row.passed)
    passed = count == len(rows)
    inputs = {"suite": args.suite, "seed": str(args.seed)}
    if args.json:
        for row in rows:
            print(
                json.dumps(
                    {
                        "label": row.label,
                        "claimed": row.claimed,
                        "computed": row.computed,
                        "tolerance": row.tolerance,
                        "passed": row.passed,
                        "note": row.note,
                    },
                    sort_keys=True,
                )
            )
        print(
            json.dumps(
                {
                    "command": "verify",
                    "inputs": inputs,
                    "passed": passed,
                    "checks": len(rows),
                    "runtime_ms": runtime_ms,
                    "suite_runtime_ms": suite_runtime_ms,
                },
                sort_keys=True,
            )
        )
        return passed
    print("command: verify")
    for key, value in inputs.items():
        print(f"{key}: {value}")
    for row in rows:
        verdict = "PASS" if row.passed else "FAIL"
        line = (
            f"check: {row.label} | claimed={_nine(row.claimed)}"
            f" computed={_nine(row.computed)} tol={_nine(row.tolerance)}"
            f" gap={_nine(row.gap)} | {verdict}"
        )
        if row.note:
            line += f" | {row.note}"
        print(line)
    print(f"result: {'PASS' if passed else 'FAIL'} ({count}/{len(rows)} checks)")
    print(f"runtime_ms: {runtime_ms}")
    return passed


# ---------------------------------------------------------------------------
# commands


def _seed(text: str) -> int:
    """The --seed argument: a non-negative integer, as numpy's generators
    take, rejected by argparse before any suite runs."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text}")
    return seed


def _cmd_gen(args: argparse.Namespace) -> int:
    gon = regular_polygon(args.n)
    Path(args.out).write_text(format_polygon(gon))
    print("command: gen")
    print(f"n: {args.n}")
    print(f"out: {args.out}")
    print(f"vertices: {len(gon.vertices)}")
    return 0


def _distance_record(name: str, n: int, result: BMResult) -> dict:
    """Shared structured record for the distance command; its "note"
    labels values of conjectured (not proven) families."""
    record: dict = {
        "command": "distance",
        "polygon": name,
        "grid": result.grid_resolution,
        "lambda": result.lam,
        "u": [result.parallelogram.u.x, result.parallelogram.u.y],
        "v": [result.parallelogram.v.x, result.parallelogram.v.y],
        "t_u": result.t_u,
        "t_v": result.t_v,
        "contacts": [[w.x, w.y] for w in result.contacts],
        "starts": [asdict(r) for r in result.starts],
    }
    if n >= 6:
        family = theorem2_value(n)
        record["claimed"] = family.value
        record["claim_kind"] = family.kind
        record["gap"] = family.value - result.lam
        if note := _NOTES[family.kind]:
            record["note"] = note
    return record


def _cmd_distance(args: argparse.Namespace) -> int:
    gon, name, n = _load_polygon(args.polygon)
    start = time.perf_counter()
    result = bm_distance(gon, grid=args.grid)
    runtime_ms = int(round(1000.0 * (time.perf_counter() - start)))
    record = _distance_record(name, n, result)
    record["runtime_ms"] = runtime_ms
    if args.json:
        print(json.dumps(record, sort_keys=True))
        return 0
    print("command: distance")
    print(f"polygon: {name}")
    print(f"grid: {result.grid_resolution}")
    print(f"lambda: {_nine(result.lam)}")
    print(f"u: {_vec(result.parallelogram.u)}")
    print(f"v: {_vec(result.parallelogram.v)}")
    print(f"t_u: {_nine(result.t_u)}")
    print(f"t_v: {_nine(result.t_v)}")
    print(f"contacts: {' ; '.join(_vec(w) for w in result.contacts)}")
    if "claimed" in record:
        print(f"claimed: {_nine(record['claimed'])} ({record['claim_kind']})")
        print(f"gap: {_nine(record['gap'])}")
    if "note" in record:
        print(f"note: {record['note']}")
    print(f"runtime_ms: {runtime_ms}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    suites = {**_SUITES, **_STANDALONE}
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    marks = [time.perf_counter()]
    rows: list[Claim] = []
    for name in names:
        rows.extend(suites[name](args.seed))
        marks.append(time.perf_counter())
    # each suite's time is the step between rounded running totals, so
    # the suites add up to runtime_ms exactly
    totals = [int(round(1000.0 * (mark - marks[0]))) for mark in marks]
    suite_runtime_ms = {name: b - a for name, a, b in zip(names, totals, totals[1:])}
    return 0 if _emit_report(args, rows, totals[-1], suite_runtime_ms) else 1


def _cmd_curve(args: argparse.Namespace) -> int:
    if args.samples < 2:
        raise ValueError(f"samples must be at least 2, got {args.samples}")
    samples = _family_samples(6 if args.target == "hexagon" else 8 * args.j, args.samples)
    lines = ["b,h,h_geometric", *(f"{b!r},{h!r},{g!r}" for b, h, g in samples)]
    Path(args.out).write_text("\n".join(lines) + "\n")
    print("command: curve")
    print(f"target: {args.target}")
    print(f"samples: {args.samples}")
    print(f"out: {args.out}")
    return 0


def _svg_num(x: float) -> str:
    text = f"{x:.6f}".rstrip("0").rstrip(".")
    return "0" if text in ("", "-0") else text


def _svg_xy(w: Vec2, e: int, r: float, lam: float = 1.0) -> tuple[str, str]:
    return _svg_num(lam * (math.ldexp(w.x, -e) / r)), _svg_num(lam * (math.ldexp(w.y, -e) / r))


def _svg_points(points, e: int, r: float, lam: float = 1.0) -> str:
    return " ".join(",".join(_svg_xy(p, e, r, lam)) for p in points)


def render_svg(
    c: CentralPolygon, configs: list[tuple[Parallelogram, float, tuple[Vec2, ...]]]
) -> str:
    """Deterministic SVG: per configuration the polygon, the scaled
    circumscribed parallelogram, the inscribed parallelogram, and the
    contact vertices, in that element order, at 6-decimal precision.
    Every coordinate is divided by 2**e and then by the polygon's radius,
    both on the scale of its boundary table, before the circumscribed
    parallelogram's are scaled by lambda, so each drawing fits its 5 x 5
    box at any scale and no product overflows."""
    e, r = c.boundary[0], c.radius
    count = len(configs)
    width = 5.0 * count
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        (
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1"'
            f' width="{300 * count}" height="300"'
            f' viewBox="-2.5 -2.5 {_svg_num(width)} 5">'
        ),
    ]
    for k, (p, lam, contacts) in enumerate(configs):
        lines.append(f'  <g transform="translate({_svg_num(5.0 * k)},0) scale(1,-1)">')
        lines.append(
            f'    <polygon points="{_svg_points(c.vertices, e, r)}"'
            ' fill="none" stroke="#202020" stroke-width="0.02"/>'
        )
        lines.append(
            f'    <polygon points="{_svg_points(p.vertices(), e, r, lam)}"'
            ' fill="none" stroke="#c03030" stroke-width="0.015"'
            ' stroke-dasharray="0.08 0.05"/>'
        )
        lines.append(
            f'    <polygon points="{_svg_points(p.vertices(), e, r)}"'
            ' fill="none" stroke="#3050c0" stroke-width="0.02"/>'
        )
        for w in contacts:
            cx, cy = _svg_xy(w, e, r)
            lines.append(f'    <circle cx="{cx}" cy="{cy}" r="0.06" fill="#c03030"/>')
        lines.append("  </g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _render_configs(
    gon: CentralPolygon, n: int, b_arg: str, grid: int
) -> list[tuple[Parallelogram, float, tuple[Vec2, ...]]]:
    if b_arg == "optimal":
        result = bm_distance(gon, grid=grid)
        reps = argmin_orbit(gon, result)
        lams = [circum_ratio(p, gon) for p in reps]
        return [(p, lam, contacts(p, gon, lam)) for p, lam in zip(reps, lams)]
    try:
        b = float(b_arg)
    except ValueError:
        raise ValueError(f"--b must be a number or 'optimal', got {b_arg!r}") from None
    _, _, member, _ = _family(n)
    p = member(b)
    lam = circum_ratio(p, gon)
    return [(p, lam, contacts(p, gon, lam))]


def _cmd_render(args: argparse.Namespace) -> int:
    gon, name, n = _load_polygon(args.polygon)
    configs = _render_configs(gon, n, args.b, args.grid)
    Path(args.out).write_text(render_svg(gon, configs))
    print("command: render")
    print(f"polygon: {name}")
    print(f"b: {args.b}")
    print(f"configurations: {len(configs)}")
    print(f"lambda: {' ; '.join(_nine(lam) for _, lam, _ in configs)}")
    print(f"out: {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmgon",
        description=(
            "Distances from the parallelogram to centrally symmetric polygons:"
            " closed forms, constructions, and a brute-force search."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a regular n-gon polygon file")
    gen.add_argument("n", type=int, help="even vertex count, at least 4")
    gen.add_argument("out", help="output path")

    dist = sub.add_parser("distance", help="minimal circumscribed ratio of a polygon")
    dist.add_argument("polygon", help="polygon file path or Pn shorthand")
    dist.add_argument("--grid", type=int, default=360, help="grid resolution (default 360)")
    dist.add_argument("--json", action="store_true", help="machine-readable output")

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=[*_SUITES, *_STANDALONE, "all"])
    verify.add_argument("--seed", type=_seed, default=0, help="seed for randomized suites")
    verify.add_argument("--json", action="store_true", help="machine-readable output")

    curve = sub.add_parser("curve", help="sample a ratio curve to CSV")
    curve.add_argument("target", choices=["hexagon", "beta"])
    curve.add_argument("out", help="output CSV path")
    curve.add_argument("--j", type=int, default=1, help="family index for beta (default 1)")
    curve.add_argument("--samples", type=int, default=101, help="sample count (default 101)")

    render = sub.add_parser("render", help="draw configurations to SVG")
    render.add_argument("polygon", help="polygon file path or Pn shorthand")
    render.add_argument("out", help="output SVG path")
    render.add_argument(
        "--b", default="optimal", help="family slope, or 'optimal' (default) for argmin"
    )
    render.add_argument("--grid", type=int, default=360, help="grid for optimal search")
    return parser


_HANDLERS = {
    "gen": _cmd_gen,
    "distance": _cmd_distance,
    "verify": _cmd_verify,
    "curve": _cmd_curve,
    "render": _cmd_render,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        status = _HANDLERS[args.command](args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return status
    except BrokenPipeError:
        # the reader has gone: exit as a writer killed by SIGPIPE does,
        # and point stdout at devnull so that the flush at exit succeeds
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
