"""Acceptance gate: every shipped claim checked at its stated tolerance.

Each test prints one ``ACCEPTANCE <k>: PASS|FAIL`` line directly to the
terminal (bypassing capture) so a ``pytest -v`` run shows the verdict per
criterion next to the test outcome.
"""

import math

import numpy as np
import pytest

from bmgon.evengon import (
    axis_parallelogram,
    beta_h,
    dist_pn_phn,
    theorem2_value,
)
from bmgon.geom import (
    Strip,
    Vec2,
    apply_linear,
    boundary_distance,
    linear_image,
    polygon_symmetries,
    regular_polygon,
    transversal_ratio,
)
from bmgon.hexagon import (
    B_REGIME_MAX,
    HEXAGON,
    hex_build,
    hex_critical_b,
    hex_h,
    hex_optimal_positions,
)
from bmgon.cli import Claim
from bmgon.oracle import argmin_orbit, bm_distance, grid_scan
from bmgon.pgram import Parallelogram, circum_ratio, vertex_hausdorff

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


@pytest.fixture(scope="module")
def dist():
    """Shared cache of search results keyed by (n, grid)."""
    cache = {}

    def get(n: int, grid: int):
        key = (n, grid)
        if key not in cache:
            cache[key] = bm_distance(regular_polygon(n), grid=grid)
        return cache[key]

    return get


@pytest.fixture
def report(capsys):
    def emit(k: int, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"ACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} | {detail}")
        assert ok, f"criterion {k}: {detail}"

    return emit


def test_criterion_1_hexagon_distance(dist, report):
    result = dist(6, 360)
    _, _, f = grid_scan(HEXAGON, 360)
    floor = float(np.min(f[np.isfinite(f)]))
    ok = abs(result.lam - 1.5) <= 1e-5 and floor >= 1.5 - 1e-6 and result.lam >= 1.5 - 1e-6
    report(1, ok, f"P6 lambda={result.lam!r} (tol 1e-5), grid floor={floor!r} >= 1.5-1e-6")


def test_criterion_2_hexagon_curve(report):
    closed = (-10.0 * SQRT3 + math.sqrt(384.0)) / 14.0
    checks = [
        abs(hex_h(0.0) - 1.5) <= 1e-12,
        abs(hex_h(SQRT3 / 5.0) - 1.5) <= 1e-12,
        abs(hex_critical_b() - closed) <= 1e-12,
        abs(hex_h(hex_critical_b()) - 1.5224) <= 5e-4,
    ]
    dev = max(
        abs(hex_h(b) - circum_ratio(hex_build(b).parallelogram, HEXAGON))
        for b in (B_REGIME_MAX * (i / 100.0) for i in range(101))
    )
    checks.append(dev < 1e-9)
    report(
        2,
        all(checks),
        f"endpoints at 3/2 (tol 1e-12), critical b={hex_critical_b()!r}, "
        f"h(crit)={hex_h(hex_critical_b())!r} vs 1.5224 (tol 5e-4), "
        f"101-sample construction dev={dev:.3g} (tol 1e-9)",
    )


def _match_up_to_symmetry(reps, targets):
    maps = polygon_symmetries(HEXAGON)

    def orbit(p):
        return [
            Parallelogram.from_unordered(apply_linear(m, p.u), apply_linear(m, p.v))
            for m in maps
        ]

    target_orbits = [orbit(t) for t in targets]
    d_reps = max(
        min(vertex_hausdorff(r, img) for o in target_orbits for img in o) for r in reps
    )
    d_targets = max(
        min(vertex_hausdorff(img, r) for img in o for r in reps) for o in target_orbits
    )
    return max(d_reps, d_targets)


def test_criterion_3_optimal_positions(dist, report):
    positions = hex_optimal_positions()
    inscribed = max(
        max(boundary_distance(HEXAGON, p.u), boundary_distance(HEXAGON, p.v))
        for p in positions
    )
    ratio_dev = max(abs(circum_ratio(p, HEXAGON) - 1.5) for p in positions)
    reps = argmin_orbit(HEXAGON, dist(6, 360), tol=1e-4)
    match = _match_up_to_symmetry(reps, positions) if len(reps) == 2 else math.inf
    ok = inscribed <= 1e-9 and ratio_dev <= 1e-12 and len(reps) == 2 and match <= 1e-3
    report(
        3,
        ok,
        f"both positions inscribed (dev {inscribed:.3g}), ratio dev {ratio_dev:.3g} "
        f"(tol 1e-12), {len(reps)} symmetry classes, match dev {match:.3g} (tol 1e-3)",
    )


def test_criterion_4_exact_families(dist, report):
    targets = {
        8: SQRT2,
        16: SQRT2,
        12: SQRT2 * math.cos(math.pi / 12.0),
        20: SQRT2 * math.cos(math.pi / 20.0),
    }
    devs = {n: abs(dist(n, 360).lam - v) for n, v in targets.items()}
    ok = all(d <= 1e-5 for d in devs.values())
    report(4, ok, f"P8/P16 vs sqrt2, P12/P20 vs sqrt2*cos: max dev {max(devs.values()):.3g} (tol 1e-5)")


def test_criterion_5_axis_constructions(report):
    devs = []
    for n in range(8, 22, 2):
        gon = regular_polygon(n)
        devs.append(abs(circum_ratio(axis_parallelogram(gon), gon) - theorem2_value(n).value))
    ok = max(devs) <= 1e-12
    report(5, ok, f"axis parallelogram vs family value, n=8..20: max dev {max(devs):.3g} (tol 1e-12)")


def test_criterion_6_conjecture_probes(dist, report):
    outcomes = []
    for n, claimed in ((10, 1.4270510), (14, 1.4254273)):
        # the upper_bound rule: lam <= claimed + 1e-6 and |claimed - lam| < 1e-4
        claim = Claim(f"P{n}", claimed, dist(n, 720).lam, 1e-4, "upper_bound")
        outcomes.append(claim.passed and claim.note == "conjecture support")
    p10, p14 = dist(10, 720).lam, dist(14, 720).lam
    report(
        6,
        all(outcomes),
        f"P10 lambda={p10!r} vs 1.4270510, P14 lambda={p14!r} vs 1.4254273 "
        "(within +1e-6, gap < 1e-4, labeled conjecture support)",
    )


def test_criterion_7_beta_family(dist, report):
    endpoint_dev = max(
        max(
            abs(beta_h(j, 0.0) - SQRT2),
            abs(beta_h(j, math.tan(math.pi / (8.0 * j))) - SQRT2),
        )
        for j in range(1, 5)
    )
    hi = math.tan(math.pi / 8.0)
    samples = [beta_h(1, hi * (i / 9999.0)) for i in range(10000)]
    interior_min = min(samples[1:-1])
    attained_only_at_ends = (
        abs(samples[0] - SQRT2) <= 1e-12
        and abs(samples[-1] - SQRT2) <= 1e-12
        and interior_min > SQRT2
    )
    square_defect = 0.0
    for n in (8, 16):
        p = dist(n, 360).parallelogram
        square_defect = max(
            square_defect, abs(p.u.norm() - p.v.norm()), abs(p.u.dot(p.v))
        )
    ok = endpoint_dev <= 1e-12 and attained_only_at_ends and square_defect < 1e-4
    report(
        7,
        ok,
        f"beta endpoints dev {endpoint_dev:.3g} (tol 1e-12), interior min "
        f"{interior_min!r} > sqrt2, P8/P16 square defect {square_defect:.3g} (tol 1e-4)",
    )


def test_criterion_8_strip_ratio_identity(report):
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        theta = rng.uniform(0.0, math.pi)
        normal = Vec2(math.cos(theta), math.sin(theta))
        outer_hw = rng.uniform(0.5, 3.0)
        inner_hw = outer_hw * rng.uniform(0.05, 1.0)
        while True:
            phi = rng.uniform(0.0, 2.0 * math.pi)
            direction = Vec2(math.cos(phi), math.sin(phi))
            if abs(direction.dot(normal)) > 1e-6:
                break
        wr, cr = transversal_ratio(
            Strip(normal, inner_hw), Strip(normal, outer_hw), direction
        )
        worst = max(worst, abs(wr - cr))
    ok = worst <= 1e-10
    report(8, ok, f"1000 seeded strip/transversal instances: max |width-coord| {worst:.3g} (tol 1e-10)")


def test_criterion_9_consistency_identities(report):
    six_dev = abs(theorem2_value(6).value - 1.5)
    cross_dev = max(
        abs(dist_pn_phn(4, 2 * j + 1) - theorem2_value(8 * j + 4).value)
        for j in range(1, 9)
    )
    ok = six_dev <= 1e-12 and cross_dev <= 1e-12
    report(
        9,
        ok,
        f"family value at n=6 dev {six_dev:.3g}, square-to-(8j+4)-gon identity "
        f"max dev {cross_dev:.3g} (tol 1e-12)",
    )


def test_criterion_10_affine_invariance(dist, report):
    rng = np.random.default_rng(2024)
    worst = 0.0
    for n in (6, 8):
        gon = regular_polygon(n)
        base = dist(n, 720).lam
        for _ in range(10):
            while True:
                mat = rng.uniform(-2.0, 2.0, size=(2, 2))
                s = np.linalg.svd(mat, compute_uv=False)
                if s[1] > 1e-6 and s[0] / s[1] <= 20.0:
                    break
            image = linear_image(gon, mat.tolist())
            worst = max(worst, abs(bm_distance(image, grid=720).lam - base))
    ok = worst < 2e-4
    report(
        10,
        ok,
        f"20 seeded linear images of P6/P8 (cond <= 20) at grid 720: max dev {worst:.3g} (tol 2e-4)",
    )
