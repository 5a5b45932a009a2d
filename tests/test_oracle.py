import math
import warnings
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    mapped_parallelogram,
    random_central_polygon,
    random_linear_map,
    spread_central_polygon,
)
from bmgon.geom import (
    CentralPolygon,
    Vec2,
    apply_linear,
    boundary_point,
    linear_image,
    polygon_symmetries,
    regular_polygon,
    symmetry_map,
)
from bmgon import geom
from bmgon.cli import Claim
from bmgon.evengon import theorem2_value
from bmgon.hexagon import hex_optimal_positions
from bmgon import oracle
from bmgon.oracle import (
    DEFAULT_SETTINGS,
    KEY_TOL,
    SearchSettings,
    _box_min,
    _cell_forms,
    _class_key_fn,
    _local_minima_mask,
    _lowest_cells,
    _make_objective,
    _make_walk,
    _prune,
    _same_class,
    argmin_orbit,
    bm_distance,
    grid_scan,
)
from bmgon.pgram import Parallelogram, circum_ratio, gauge, vertex_hausdorff

SQRT2 = math.sqrt(2.0)


def _pushed_hexagon(factor=1.0):
    """The regular hexagon with its antipodal pair v0, v3 pushed outward
    by 1e-6 of its norm, scaled by ``factor``."""
    verts = list(regular_polygon(6).vertices)
    verts[0] = verts[0] * (1.0 + 1e-6)
    verts[3] = -verts[0]
    return CentralPolygon([v * factor for v in verts])


def _orientation_preserving_map(rng):
    # swapping the rows keeps the condition number and flips the sign of
    # the determinant
    mat = random_linear_map(rng)
    return mat if np.linalg.det(mat) > 0.0 else mat[::-1]


def _workspace_cases():
    """Scans that view the block buffers at many shapes: regular polygons
    whose rotations keep the scan to a few rows, and polygons without
    rotations whose rows fill several blocks, each at two grids."""
    rng = np.random.default_rng(2026)
    regular = [regular_polygon(n) for n in (6, 8, 14)]
    rand = [random_central_polygon(rng, m) for m in (3, 7, 12)]
    return [(gon, grid) for gon in regular for grid in (91, 720)] + [
        (gon, grid) for gon in rand for grid in (180, 499)
    ]


class TestGridScan:
    def test_shape_and_feasibility(self, p6):
        # one rotation period t1 in [0, 1): ceil(64 / 6) rows
        t1, s, f = grid_scan(p6, 64)
        assert t1.shape == (11,) and s.shape == (32,) and f.shape == (11, 32)
        assert np.isfinite(f).any()
        finite = f[np.isfinite(f)]
        assert (finite >= 1.0).all()

    def test_hexagon_floor(self, p6):
        for grid in (60, 180, 360):
            _, _, f = grid_scan(p6, grid)
            assert float(np.min(f[np.isfinite(f)])) >= 1.5 - 1e-12

    def test_square_floor(self, p4):
        _, _, f = grid_scan(p4, 120)
        assert float(np.min(f[np.isfinite(f)])) >= 1.0 - 1e-12

    def test_rejects_tiny_grid(self, p6):
        with pytest.raises(ValueError):
            grid_scan(p6, 7)

    def test_rejects_huge_grid(self, p6):
        with pytest.raises(ValueError, match=f"grid must be at most {oracle.MAX_GRID}"):
            grid_scan(p6, oracle.MAX_GRID + 1)

    @pytest.mark.parametrize("grid", [64, 45, 8, 9, 90])
    def test_fundamental_domain_matches_the_scalar_objective(self, grid):
        # every cell, for m = 2, 3, 5 and 12 with rotation step k = 1
        # (regular) and k = m (random); every parallelogram turns by one
        # vertex, so m = 2 has k = 1 only.  The rhombus +-(1, 0),
        # +-(0, 1e-299) has cells with 0 < cross(u, v) <= FEASIBLE_DEN on
        # its table, where its coordinates are halved, and cells above it,
        # which both must tell apart
        half = (grid + 1) // 2
        rng = np.random.default_rng(grid)
        cases = [(regular_polygon(2 * m), 1) for m in (2, 3, 5, 12)]
        cases += [(random_central_polygon(rng, m=m), 1 if m == 2 else m) for m in (2, 3, 5, 12)]
        cases += [(CentralPolygon([(1.0, 0.0), (0.0, 1e-299), (-1.0, 0.0), (0.0, -1e-299)]), 1)]
        for gon, k in cases:
            m = len(gon.vertices) // 2
            assert gon.rotation_step == k
            rows = (k * grid + 2 * m - 1) // (2 * m)
            t1, s, f = grid_scan(gon, grid)
            assert t1.shape == (rows,) and s.shape == (half,) and f.shape == (rows, half)
            assert (t1 < k).all() and (s > 0.0).all() and (s <= m / 2.0).all()
            evaluate = _make_objective(gon)
            expected = [[evaluate(float(a), float(b)) for b in s] for a in t1]
            assert f.tolist() == expected, (m, k)
        assert 0 < np.isinf(f).sum() < f.size  # the rhombus, last

    def test_every_cell_sum_is_exact_on_the_lattice(self):
        # t1[i] + s[j] must be (2i + j + 1/2) h exactly, so that v at a
        # cell is the lattice point 2i + j.  For every grid and every m up
        # to 500 the step h has at most 36 significant bits, and the
        # largest odd multiple of h/2 that a cell takes, 4(r - 1) +
        # 2(half - 1) + 1 with r <= half rows, is below 2**17: every
        # multiple of h/2 up to it is then a float
        ms = np.arange(2, 501)
        for grid in range(8, oracle.MAX_GRID + 1):
            h = oracle._lattice_step(ms, grid)
            assert (h <= ms / grid).all() and (ms / grid - h < 2.0**-35 * h).all(), grid
            mantissa, _ = np.frexp(h)
            assert (np.ldexp(mantissa, 36) % 1.0 == 0.0).all(), grid
            assert 6 * ((grid + 1) // 2) - 5 < 2**17, grid
        # and on scans with the most rows, the largest grids and m = 500,
        # every sum is compared with its multiple of h/2 in exact integers
        rng = np.random.default_rng(4096)
        cases = [(regular_polygon(4), 4096), (random_central_polygon(rng, 3), 4095)]
        cases += [(random_central_polygon(rng, 7), 720), (regular_polygon(1000), 4096)]
        for gon, grid in cases:
            t1, s, _ = grid_scan(gon, grid)
            numerator, denominator = float(oracle._lattice_step(gon.m, grid)).as_integer_ratio()
            # the sums times 2 * denominator, a power of two, are whole
            # floats below 2**53, so they convert to int64 exactly
            sums = ((t1[:, None] + s) * (2 * denominator)).astype(np.int64)
            i, j = np.indices(sums.shape)
            assert np.array_equal(sums, (4 * i + 2 * j + 1) * numerator), (gon.m, grid)

    def test_rows_on_both_sides_of_each_block_seam_match_the_scalar_objective(self):
        # a polygon without rotations at an odd grid: 3 full row blocks
        # and a partial last one
        grid = 2 * 249 + 1
        gon = random_central_polygon(np.random.default_rng(7), m=5)
        half = (grid + 1) // 2
        step = oracle.BLOCK_CELLS // half
        t1, s, f = grid_scan(gon, grid)
        assert gon.rotation_step == 5 and 3 * step < len(t1) < 4 * step
        evaluate = _make_objective(gon)
        for seam in range(step, len(t1), step):
            for i in (seam - 1, seam):
                expected = [evaluate(float(t1[i]), float(b)) for b in s]
                assert f[i].tolist() == expected, i

    def test_scan_memory_is_f_and_one_block(self):
        gon = random_central_polygon(np.random.default_rng(2048), m=5)
        grid_scan(gon, 64)  # first-call allocations stay out of the count
        tracemalloc.start()
        try:
            _, _, f = grid_scan(gon, 2048)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert f.shape == (1024, 1024)
        assert peak <= f.nbytes + 4_000_000

    def test_a_warm_scan_allocates_only_f(self, p6):
        # the block buffers are kept from the warm-up scan on, so what a
        # scan allocates beyond F is the per-row arrays and one block's
        # masks, not another 1 MiB of buffers
        gon = random_central_polygon(np.random.default_rng(2048), m=5)
        for polygon, grid in ((gon, 720), (gon, 2048), (p6, 720)):
            grid_scan(polygon, 64)
            tracemalloc.start()
            try:
                _, _, f = grid_scan(polygon, grid)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= f.nbytes + 384 * 1024, (grid, peak - f.nbytes)

    def test_no_value_passes_from_one_scan_to_the_next(self):
        cases = _workspace_cases()
        expected = [grid_scan(gon, grid)[2] for gon, grid in cases]
        for (gon, grid), f in zip(cases, expected):
            for buf in oracle._WORKSPACE.buffers:
                buf.fill(-7 if buf.dtype.kind == "i" else np.nan)
            assert np.array_equal(grid_scan(gon, grid)[2], f), (gon.m, grid)

    def test_threads_scanning_at_once_get_the_sequential_scans(self):
        # more threads than cores, switching as often as the interpreter
        # allows, each scanning every case five times in its own order;
        # with one set of buffers shared by all threads some scans differ
        cases = _workspace_cases()
        expected = [grid_scan(gon, grid)[2] for gon, grid in cases]
        results = {}

        def scan(seed):
            order = np.random.default_rng(seed).permutation(5 * len(cases)) % len(cases)
            results[seed] = [
                np.array_equal(grid_scan(*cases[i])[2], expected[i]) for i in order
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=scan, args=(seed,)) for seed in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert sorted(results) == list(range(6))
        mismatches = sum(not same for scans in results.values() for same in scans)
        assert mismatches == 0, f"{mismatches} of {6 * 5 * len(cases)} scans differ"


def _ends(gon, t1, s):
    """The generators u, v at (t1, s) as the objective reads them, both
    parameters reduced modulo n."""
    return boundary_point(gon, t1), boundary_point(gon, t1 + s)


def _numerators(gon, u, v):
    """Sheet numerators N_w = |cross(w, v)| + |cross(u, w)| over the first
    m vertices, in the objective's expression."""
    m = len(gon.vertices) // 2
    return [
        abs(w.x * v.y - w.y * v.x) + abs(u.x * w.y - u.y * w.x) for w in gon.vertices[:m]
    ]


def _sheets(gon, t1, s):
    """Every sheet N_w / den at (t1, s); inf where den <= 1e-300."""
    u, v = _ends(gon, t1, s)
    den = u.x * v.y - u.y * v.x
    numerators = _numerators(gon, u, v)
    if not den > 1e-300:
        return [math.inf] * len(numerators)
    return [g / den for g in numerators]


class TestObjective:
    def test_fused_objective_is_the_largest_sheet_bit_for_bit(self):
        rng = np.random.default_rng(2000)
        for gon in (regular_polygon(6), regular_polygon(50), random_central_polygon(rng, m=7)):
            m = len(gon.vertices) // 2
            evaluate = _make_objective(gon)
            # t1 well outside [0, 2m) and s outside (0, m)
            t1s = rng.uniform(-3.0 * m, 5.0 * m, 2000)
            ss = rng.uniform(-0.5, m + 0.5, 2000)
            assert (t1s < 0).any() and (t1s >= 2 * m).any()
            assert (ss < 0.0).any() and (ss > m).any()
            for t1, s in zip(t1s.tolist(), ss.tolist()):
                assert evaluate(t1, s) == max(_sheets(gon, t1, s)), (t1, s)

    def test_objective_is_infinite_where_the_generators_coincide(self, p6):
        # at t1 = 1e17 adding s rounds away, so both generators are one
        # point and the denominator is 0
        assert _sheets(p6, 1e17, 0.5) == [math.inf] * 3
        assert _make_objective(p6)(1e17, 0.5) == math.inf


def _sample(gon, a, k, box, count=65):
    """The objective on a count x count lattice of the box (f0, f1, g0, g1)
    of the cell with u on edge a and v on edge a + k, from the boundary
    table: (values, numerators per sheet, denominators)."""
    x, y, dx, dy = (np.array(column) for column in gon.boundary[1:])
    n, m = len(x), gon.m
    b = (a + k) % n
    f0, f1, g0, g1 = box
    f, g = np.linspace(f0, f1, count)[:, None], np.linspace(g0, g1, count)[None, :]
    ux, uy, vx, vy = x[a] + f * dx[a], y[a] + f * dy[a], x[b] + g * dx[b], y[b] + g * dy[b]
    wx, wy = x[:m, None, None], y[:m, None, None]
    num = np.abs(wx * vy - wy * vx) + np.abs(ux * wy - uy * wx)
    den = ux * vy - uy * vx
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.where(den > 1e-300, num.max(axis=0) / den, np.inf)
    return values, num, den


def _kernel_boxes():
    """(polygon, a, k, box) of seeded boxes: random ones in random cells,
    ones around the optimum, a side of each and a point, on P6, P10 and
    random polygons with m = 3..12."""
    rng = np.random.default_rng(2029)
    gons = [regular_polygon(6), regular_polygon(10)]
    gons += [random_central_polygon(rng, m) for m in range(3, 13)]
    for gon in gons:
        n, m = len(gon.vertices), gon.m
        boxes = []
        for _ in range(8):
            a, k = int(rng.integers(0, n)), int(rng.integers(0, m + 1))
            f0, f1 = sorted(rng.uniform(0.0, 1.0, 2).tolist())
            g0, g1 = sorted(rng.uniform(0.0, 1.0, 2).tolist())
            boxes.append((a, k, (f0, f1, g0, g1)))
        # boxes of sizes 1e-1 to 1e-4 around the optimum, in its cell
        result = bm_distance(gon, grid=91)
        a, b = math.floor(result.t_u), math.floor(result.t_v)
        f, g = result.t_u - a, result.t_v - b
        for half in (1e-1, 1e-2, 1e-3, 1e-4):
            lo, hi = rng.uniform(0.2, 1.0, 2).tolist()
            box = (max(f - lo * half, 0.0), min(f + hi * half, 1.0))
            box += (max(g - hi * half, 0.0), min(g + lo * half, 1.0))
            boxes.append((a % n, b - a, box))
        for a, k, (f0, f1, g0, g1) in boxes[:4] + boxes[-2:]:
            boxes.append((a, k, (f0, f0, g0, g1)))
            boxes.append((a, k, (f1, f1, g1, g1)))
        for a, k, box in boxes:
            yield gon, a, k, box


class TestBoxMin:
    """The exact kernel: ``_cell_forms``, ``_prune`` and ``_box_min``."""

    def test_cell_forms_are_the_sheets_on_unit_coordinates(self):
        rng = np.random.default_rng(2015)
        gons = [regular_polygon(6), regular_polygon(50), random_central_polygon(rng, m=2)]
        gons += [random_central_polygon(rng, m=7), linear_image(regular_polygon(8), random_linear_map(rng))]
        for gon in gons:
            n, m = len(gon.vertices), gon.m
            e, xs, ys, _, _ = gon.boundary
            unit = [geom.Vec2(x, y) for x, y in zip(xs, ys)]
            for _ in range(300):
                a, k = int(rng.integers(0, n)), int(rng.integers(0, m + 1))
                f, g = rng.uniform(0.0, 1.0, 2).tolist()
                sheets, (d0, d1, d2, d3) = _cell_forms(gon, a, (a + k) % n)
                u, v = (boundary_point(gon, t) * math.ldexp(1.0, -e) for t in (a + f, a + k + g))
                expected = [
                    abs(w.x * v.y - w.y * v.x) + abs(u.x * w.y - u.y * w.x) for w in unit[:m]
                ]
                got = [n0 + nf * f + ng * g for n0, nf, ng in sheets]
                assert np.allclose(got, expected, rtol=0.0, atol=1e-14), (gon, a, k, f, g)
                den = d0 + d1 * f + d2 * g + d3 * f * g
                assert abs(den - u.cross(v)) <= 1e-14, (gon, a, k, f, g)

    def test_the_box_minimum_is_at_or_below_a_fine_sample(self):
        # within 1e-13 relative: the forms round apart from evaluate where
        # cross(u, v) nearly cancels, at values far above the optimum
        checked = 0
        for gon, a, k, box in _kernel_boxes():
            n, m = len(gon.vertices), gon.m
            forms = _cell_forms(gon, a, (a + k) % n)
            keep = _prune(forms[0], box, range(m))
            value, f, g, _ = _box_min(forms, box, keep)
            values, num, den = _sample(gon, a, k, box)
            if value == math.inf:
                assert (values == np.inf).all(), (gon, a, k, box)
                continue
            f0, f1, g0, g1 = box
            assert f0 <= f <= f1 and g0 <= g <= g1, (gon, a, k, box, f, g)
            at = _make_objective(gon)(a + f, (a + k + g) - (a + f))
            assert abs(value - at) <= 1e-13 * at, (gon, a, k, box, value, at)
            assert at <= values.min() * (1.0 + 1e-13), (gon, a, k, box, at, values.min())
            # no pruned sheet leads anywhere on the sample
            feasible = den > 1e-300
            kept = num[keep].max(axis=0)
            assert (kept[feasible] >= num.max(axis=0)[feasible] * (1.0 - 1e-14)).all(), (gon, box)
            checked += 1
        assert checked >= 150, checked

    def test_a_minimum_on_a_tie_line_inside_the_box_is_found(self):
        # hand-made forms: N = 1 + |f + g - 1| over D = 1 + f g has its
        # minimum 0.8 at (1/2, 1/2), a critical point of the ratio along
        # the tie line f + g = 1 of the two sheets, where D is concave;
        # the best corner or side tie of the box is (0.4, 0.6), at 1/1.24
        forms = ([(0.0, 1.0, 1.0), (2.0, -1.0, -1.0)], (1.0, 0.0, 0.0, 1.0))
        box = (0.4, 0.6, 0.4, 0.6)
        value, f, g, _ = _box_min(forms, box, _prune(forms[0], box, range(2)))
        assert abs(value - 0.8) <= 1e-15 and abs(f - 0.5) <= 1e-15 and abs(g - 0.5) <= 1e-15

    def test_a_point_box_keeps_its_leading_sheet(self):
        # every sheet's largest and least value are equal on a point, so
        # the leader is kept by ">=" and the point is its own minimum
        rng = np.random.default_rng(2030)
        for gon in (regular_polygon(6), random_central_polygon(rng, 5)):
            n, m = len(gon.vertices), gon.m
            evaluate = _make_objective(gon)
            for a in range(n):
                f, g = rng.uniform(0.0, 1.0, 2).tolist()
                forms = _cell_forms(gon, a, (a + 1) % n)
                keep = _prune(forms[0], (f, f, g, g), range(m))
                value, *point, _ = _box_min(forms, (f, f, g, g), keep)
                assert keep and point == [f, g], (gon, a, keep)
                at = evaluate(a + f, (a + 1 + g) - (a + f))
                assert abs(value - at) <= 1e-14 * at, (gon, a, value, at)


def _walk_starts():
    """(polygon, t1, s, grid) of 144 seeded walks on nine polygons."""
    rng = np.random.default_rng(2011)
    gons = [regular_polygon(n) for n in (4, 6, 8, 14, 50)]
    gons += [random_central_polygon(rng, m) for m in (2, 3, 7, 12)]
    for gon in gons:
        m = len(gon.vertices) // 2
        for t1, s in zip(rng.uniform(0.0, 2.0 * m, 8), rng.uniform(0.05 * m, 0.5 * m, 8)):
            for grid in (91, 720):
                yield gon, float(t1), float(s), grid


class TestWalk:
    def test_walks_end_at_local_minima_below_their_starts(self):
        # rings of 16 points at 1e-4, 1e-6 and 1e-8 around each end are
        # nowhere below it beyond rounding
        angles = [2.0 * math.pi * i / 16 for i in range(16)]
        stops = []
        for gon, t1, s, grid in _walk_starts():
            evaluate = _make_objective(gon)
            a, b, value, boxes, candidates, stop = _make_walk(gon, gon.m / grid)(t1, s)
            stops.append(stop)
            assert value == evaluate(a, b) <= evaluate(t1, s), (gon, t1, s, grid)
            assert 1 <= boxes <= candidates, (gon, t1, s, grid)
            for r in (1e-4, 1e-6, 1e-8):
                ring = min(evaluate(a + r * math.cos(x), b + r * math.sin(x)) for x in angles)
                assert ring >= value * (1.0 - 1e-15), (gon, t1, s, grid, r, value - ring)
        assert len(stops) == 144 and set(stops) <= {"minimum", "rounding"}

    @pytest.mark.parametrize("exponent", [-400, 400])
    def test_walk_ends_do_not_move_under_power_of_two_scaling(self, exponent):
        # the boxes and evaluate read the boundary table, the same for
        # both, so every step decides as on the unscaled polygon
        rng = np.random.default_rng(400)
        factor = math.ldexp(1.0, exponent)
        for gon in (regular_polygon(6), regular_polygon(8), random_central_polygon(rng, 7)):
            scaled = CentralPolygon([factor * v for v in gon.vertices])
            assert scaled.boundary[1:] == gon.boundary[1:]
            m = gon.m
            for t1, s in zip(rng.uniform(0.0, 2.0 * m, 6).tolist(), rng.uniform(0.05 * m, 0.5 * m, 6).tolist()):
                for grid in (91, 360):
                    expected = _make_walk(gon, m / grid)(t1, s)
                    assert _make_walk(scaled, m / grid)(t1, s) == expected, (gon, t1, s, grid)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(-700, 1000))
    @settings(max_examples=30)
    def test_the_scan_and_the_walks_are_the_same_at_every_power_of_two(self, seed, m, k):
        # far beyond the scales where the polygon's own products would
        # overflow or underflow
        rng = np.random.default_rng(seed)
        gon = random_central_polygon(rng, m)
        scaled = CentralPolygon([(math.ldexp(v.x, k), math.ldexp(v.y, k)) for v in gon.vertices])
        for got, expected in zip(grid_scan(scaled, 91), grid_scan(gon, 91)):
            assert np.array_equal(got, expected)
        walk, expected = _make_walk(scaled, m / 91), _make_walk(gon, m / 91)
        for t1, s in zip(rng.uniform(0.0, 2.0 * m, 3).tolist(), rng.uniform(0.05 * m, 0.5 * m, 3).tolist()):
            assert walk(t1, s) == expected(t1, s), (t1, s)

    def test_a_start_of_infinite_value_stops_there(self, p6):
        # at t1 = 1e17 adding s rounds away and both generators coincide
        t1, _, value, boxes, _, stop = _make_walk(p6, 0.1)(1e17, 0.5)
        assert (t1, value, stop) == (1e17, math.inf, "rounding") and boxes >= 1

    def test_running_out_of_steps_is_reported(self, monkeypatch):
        # from P10's lowest grid-10 cell the walk takes two steps
        gon = regular_polygon(10)
        assert [r.stop for r in bm_distance(gon, grid=10).starts] == ["rounding"]
        monkeypatch.setattr(oracle, "DEFAULT_SETTINGS", SearchSettings(max_steps=1))
        assert [r.stop for r in bm_distance(gon, grid=10).starts] == ["max_steps"]

    def test_a_coarse_grid_reaches_the_fine_optimum(self):
        # from grid 45 the best walk reaches the grid-2880 optimum; a
        # descent along frames from central differences of the pair's gap
        # stopped 2.5e-3 above it here
        gon = random_central_polygon(np.random.default_rng(31), 6)
        optimum = bm_distance(gon, grid=2880).lam
        assert bm_distance(gon, grid=45).lam <= optimum + 1e-9

    def test_a_grid_180_walk_reaches_the_fine_optimum(self):
        # polygon 1045 of a seeded list of random polygons with m = 2..16,
        # whose walks from grid 180 must reach the optimum; a descent
        # along the exact crease frame stopped 6.3e-4 above it
        rng = np.random.default_rng(20261018)
        for k in range(1046):
            gon = random_central_polygon(rng, int(rng.integers(2, 17)))
            if k % 3 == 2:
                # every third polygon of the list is a linear image; draw
                # its map so that the later polygons keep their inputs
                random_linear_map(rng)
        optimum = bm_distance(gon, grid=2880).lam
        assert bm_distance(gon, grid=180).lam <= optimum + 1e-9


class TestRelabelling:
    """The scan covers only t1 in [0, m), s in (0, m/2] because the four
    labellings of a parallelogram give F(t1, s) = F(t1 + m, s) =
    F(t1 + s, m - s)."""

    @staticmethod
    def _ratio(gon, t1, s):
        u, v = boundary_point(gon, t1), boundary_point(gon, t1 + s)
        return circum_ratio(Parallelogram(u, v), gon)

    def test_objective_is_invariant_under_relabelling(self):
        rng = np.random.default_rng(2008)
        gons = [regular_polygon(6), regular_polygon(10)]
        gons += [random_central_polygon(rng) for _ in range(3)]
        for gon in gons:
            m = len(gon.vertices) // 2
            for t1, s in zip(rng.uniform(0.0, 2.0 * m, 200), rng.uniform(0.02 * m, 0.98 * m, 200)):
                base = self._ratio(gon, t1, s)
                assert math.isclose(self._ratio(gon, t1 + m, s), base, rel_tol=1e-12)
                assert math.isclose(self._ratio(gon, t1 + s, m - s), base, rel_tol=1e-12)


class TestBMDistance:
    def test_square_distance_is_one(self, p4):
        result = bm_distance(p4, grid=360)
        assert abs(result.lam - 1.0) <= 1e-9

    def test_hexagon(self, p6):
        result = bm_distance(p6, grid=360)
        assert abs(result.lam - 1.5) <= 1e-9
        assert len(result.contacts) >= 4

    def test_octagon(self, p8):
        result = bm_distance(p8, grid=360)
        assert abs(result.lam - SQRT2) <= 1e-9

    def test_lam_is_recomputed_from_witness(self, p6):
        result = bm_distance(p6, grid=360)
        assert result.lam == circum_ratio(result.parallelogram, p6)

    def test_contacts_reach_lam(self, p6):
        result = bm_distance(p6, grid=360)
        for w in result.contacts:
            assert abs(gauge(result.parallelogram, w) - result.lam) <= 1e-9

    def test_deterministic(self, p6):
        a = bm_distance(p6, grid=180)
        b = bm_distance(p6, grid=180)
        assert a.lam == b.lam
        assert a.parallelogram == b.parallelogram

    @pytest.mark.parametrize("factor", [0.5, 0.99, 1.0 - 4e-16])
    def test_lambda_and_classes_hold_up_to_the_largest_float(self, factor):
        # the search and the parallelograms it builds read unit
        # coordinates, so nothing overflows or warns up to the largest
        # float, where the polygon's own cross products are inf
        rng = np.random.default_rng(26)
        gons = [regular_polygon(n) for n in range(4, 18, 2)]
        gons += [random_central_polygon(rng, m) for m in (3, 5, 7, 9)]
        for gon in gons:
            result = bm_distance(gon, grid=90)
            big = CentralPolygon([factor * sys.float_info.max / gon.radius * v for v in gon.vertices])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                found = bm_distance(big, grid=90)
                classes = len(argmin_orbit(big, found))
            # the scaled vertices are rounded, so lambda may move by ulps
            assert abs(found.lam - result.lam) <= 1e-15, (gon, found.lam - result.lam)
            assert classes == len(argmin_orbit(gon, result)), gon

    @pytest.mark.parametrize("e", [77, 153, 154, 200, 308])
    def test_the_hexagon_keeps_its_value_and_classes_at_every_large_scale(self, p6, e):
        gon = CentralPolygon([10.0**e * v for v in p6.vertices])
        result = bm_distance(gon, grid=90)
        assert abs(result.lam - 1.5) <= 1e-15
        assert len(argmin_orbit(gon, result)) == 2

    @given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.integers(-8, 1020))
    @settings(max_examples=30)
    def test_lambda_and_its_witness_scale_exactly_by_powers_of_two(self, seed, m, k):
        # from 2**-8 up, Parallelogram's absolute tolerance passes the
        # witnesses of these polygons (ROADMAP item 2); the search, the
        # witness's gauges and its contacts read unit coordinates, so
        # nothing moves but the witness's exponent, up to 2**1020 P
        gon = random_central_polygon(np.random.default_rng(seed), m)
        scaled = CentralPolygon([(math.ldexp(v.x, k), math.ldexp(v.y, k)) for v in gon.vertices])
        result, found = bm_distance(gon, grid=91), bm_distance(scaled, grid=91)
        assert (found.lam, found.t_u, found.t_v) == (result.lam, result.t_u, result.t_v)
        p, q = result.parallelogram, found.parallelogram
        assert (q.u.x, q.u.y, q.v.x, q.v.y) == tuple(math.ldexp(a, k) for a in (p.u.x, p.u.y, p.v.x, p.v.y))
        assert found.contacts == tuple(Vec2(math.ldexp(w.x, k), math.ldexp(w.y, k)) for w in result.contacts)

    def test_a_polygon_without_a_feasible_cell_is_refused_by_the_threshold(self):
        # the table of the rhombus +-(1, 0), +-(0, 1e-301) holds its
        # coordinates halved, where every cross(u, v) is at most 2.5e-302
        thin = CentralPolygon([(1.0, 0.0), (0.0, 1e-301), (-1.0, 0.0), (0.0, -1e-301)])
        _, _, f = grid_scan(thin, 90)
        assert f.size == 1035 and (f == np.inf).all()
        with pytest.raises(ValueError, match=re.escape(f"above {oracle.FEASIBLE_DEN},")):
            bm_distance(thin, grid=90)

    def test_refinement_washes_out_grid_resolution(self, p6):
        refined = [bm_distance(p6, grid=g).lam for g in (45, 90, 180, 360)]
        assert all(abs(lam - 1.5) <= 1e-9 for lam in refined)

    def test_doubling_the_grid_never_worsens_refined_results(self):
        for n in (6, 10):
            gon = regular_polygon(n)
            values = [bm_distance(gon, grid=g).lam for g in (90, 180, 360)]
            for coarse, fine in zip(values, values[1:]):
                assert fine <= coarse + 1e-9

    def test_refinement_never_worsens_the_grid(self):
        rng = np.random.default_rng(90)
        gons = [regular_polygon(6), regular_polygon(8), regular_polygon(10), random_central_polygon(rng)]
        for gon in gons:
            _, _, f = grid_scan(gon, 90)
            result = bm_distance(gon, grid=90)
            assert result.grid_resolution == 90
            assert result.lam <= float(f[np.isfinite(f)].min()) + 1e-12

    @pytest.mark.xfail(
        reason="ROADMAP item 3: the walks reach one of the two optimal classes, "
        "which one depends on the grid, so the least key moves with it",
    )
    @pytest.mark.parametrize("n", [14, 22])
    def test_the_witness_key_does_not_move_with_the_grid(self, n):
        gon = regular_polygon(n)
        results = [bm_distance(gon, grid=grid) for grid in (180, 360, 720)]
        keys = [(r.t_u, r.t_v - r.t_u) for r in results]
        assert all(_same_class(key, keys[0]) for key in keys[1:]), keys

    @pytest.mark.parametrize(
        "factor",
        [
            1e-5,
            *(
                pytest.param(
                    factor,
                    marks=pytest.mark.xfail(
                        raises=ValueError,
                        reason="ROADMAP item 2: pgram.Parallelogram's absolute "
                        "DEGENERATE_TOL rejects the witness, cross(u, v) > 0",
                    ),
                )
                for factor in (1e-6, 1e-7, 1e-12)
            ),
        ],
    )
    def test_a_small_hexagon_keeps_its_distance(self, p6, factor):
        gon = CentralPolygon([v * factor for v in p6.vertices])
        assert abs(bm_distance(gon, grid=360).lam - 1.5) <= 1e-14

    def test_witness_parameters_lie_in_one_period(self):
        rng = np.random.default_rng(360)
        gons = [regular_polygon(n) for n in range(4, 26, 2)]
        gons += [random_central_polygon(rng, int(rng.integers(2, 12))) for _ in range(20)]
        for gon in gons:
            result = bm_distance(gon, grid=360)
            k = gon.rotation_step
            assert -KEY_TOL < result.t_u < k, (gon, result.t_u)
            assert 0.0 < result.t_v - result.t_u <= gon.m / 2 + KEY_TOL, (gon, result.t_v)

    def test_affine_invariance_spot_check(self, p6):
        rng = np.random.default_rng(42)
        base = bm_distance(p6, grid=360).lam
        image = linear_image(p6, random_linear_map(rng))
        assert abs(bm_distance(image, grid=360).lam - base) <= 1e-4

    def test_random_polygon_bounds(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            gon = random_central_polygon(rng)
            result = bm_distance(gon, grid=120)
            assert 1.0 - 1e-9 <= result.lam <= 1.5 + 1e-6


class TestStarts:
    """The walks start from the ceil(starts / r) lowest cells of one
    rotation period, where r = m / k counts the rotated copies of a cell
    over [0, m)."""

    @pytest.mark.parametrize(
        "name, expected",
        [("P6", 2), ("P10", 1), ("P14", 1), ("P18", 1), ("P22", 1), ("P26", 1), ("random", 5)],
    )
    def test_walks_at_grid_720(self, name, expected):
        if name == "random":
            gon = random_central_polygon(np.random.default_rng(720), m=6)
        else:
            gon = regular_polygon(int(name[1:]))
        result = bm_distance(gon, grid=720)
        assert len(result.starts) == expected
        for record in result.starts:
            assert record.stop in ("minimum", "rounding")
            assert 1 <= record.boxes <= record.candidates
            assert record.value >= result.lam - 1e-12

    @pytest.mark.parametrize("grid", [45, 91, 360, 720])
    def test_walks_start_from_the_lowest_cells_of_one_period(self, grid):
        rng = np.random.default_rng(grid)
        # (polygon, rotation step k)
        cases = [(regular_polygon(6), 1), (regular_polygon(10), 1), (regular_polygon(12), 1)]
        cases.append((linear_image(regular_polygon(8), random_linear_map(rng)), 1))
        cases.append((random_central_polygon(rng, m=5), 5))
        starts = DEFAULT_SETTINGS.starts
        for gon, k in cases:
            m = len(gon.vertices) // 2
            assert gon.rotation_step == k
            t1s, ss, f = grid_scan(gon, grid)
            result = bm_distance(gon, grid=grid)
            rows, cols = t1s.tolist(), ss.tolist()
            walked = [(rows.index(r.t1), cols.index(r.s)) for r in result.starts]
            # (a) every one of the ceil(starts / r) lowest cells, lowest first
            assert walked == _lowest_cells(f, -(-starts // (m // k)))

            # (b) none of them is a rotated copy of another
            rotations = [
                mat
                for mat in polygon_symmetries(gon)
                if mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0] > 0.0
            ]
            tol = 1e-9 * max(v.norm() for v in gon.vertices)

            def pgram(cell):
                t1, s = rows[cell[0]], cols[cell[1]]
                return Parallelogram(boundary_point(gon, t1), boundary_point(gon, t1 + s))

            def is_rotated_copy(a, b):
                p, q = pgram(a), pgram(b)
                return any(
                    vertex_hausdorff(mapped_parallelogram(mat, p), q) <= tol
                    for mat in rotations
                )

            for x, a in enumerate(walked):
                for b in walked[x + 1 :]:
                    assert not is_rotated_copy(a, b), (a, b)

            # (c) the identity the cut to t1 in [0, k) relies on
            evaluate = _make_objective(gon)
            t1s = rng.uniform(0.0, 2.0 * m, 200).tolist()
            for t1, s in zip(t1s, rng.uniform(0.02 * m, 0.98 * m, 200).tolist()):
                base = evaluate(t1, s)
                assert math.isclose(evaluate(t1 + k, s), base, rel_tol=1e-12), (t1, s)

    def test_lambda_matches_the_closed_form(self):
        rng = np.random.default_rng(12)
        for n in (6, 8, 12, 16, 20, 24):
            claimed = theorem2_value(n).value
            gon = regular_polygon(n)
            for poly in (gon, linear_image(gon, random_linear_map(rng))):
                for grid in (90, 360, 720):
                    result = bm_distance(poly, grid=grid)
                    assert abs(result.lam - claimed) <= 1e-15, (n, grid, result.lam - claimed)
                    assert all(r.stop != "max_steps" for r in result.starts), (n, grid)

    @pytest.mark.parametrize("seed", [0, 3, 5, 7])
    def test_no_walk_runs_out_of_steps(self, seed, monkeypatch):
        # argmin_orbit's walks are in no result, so every stop is
        # recorded here
        stops = []
        make_walk = oracle._make_walk

        def recording(*args):
            walk = make_walk(*args)

            def recorded(*point):
                out = walk(*point)
                stops.append(out[-1])
                return out

            return recorded

        monkeypatch.setattr(oracle, "_make_walk", recording)
        rng = np.random.default_rng(seed)
        gon = random_central_polygon(rng, int(rng.integers(3, 13)))
        argmin_orbit(gon, bm_distance(gon, grid=360))
        assert stops and "max_steps" not in stops, stops


def _reference_lowest_cells(f, count):
    """The ``count`` lowest cells of F by a full sort on (value, row-major
    index): the reference for ``_lowest_cells``."""
    flat = f.ravel()
    idx = np.lexsort((np.arange(flat.size), flat))[:count]
    return [divmod(int(j), f.shape[1]) for j in idx]


class TestLowestCells:
    @pytest.mark.parametrize("grid", [8, 45, 360])
    def test_scans_match_a_full_sort(self, grid):
        rng = np.random.default_rng(grid + 5)
        gons = [regular_polygon(n) for n in range(4, 26, 2)]
        gons += [random_central_polygon(rng) for _ in range(8)]
        for gon in gons:
            f = grid_scan(gon, grid)[2]
            for count in range(1, 7):
                assert _lowest_cells(f, count) == _reference_lowest_cells(f, count), (gon, count)

    @pytest.mark.parametrize("shape", [(1, 8000), (1000, 8), (8, 1000), (100, 80)])
    def test_ties_go_to_the_lowest_index(self, shape):
        # a partition orders these ties by its pivots, not by their index
        f = np.tile([3.0, 1.0, 1.0, 2.0, 1.0, 0.5, 1.0, 1.0], 1000).reshape(shape)
        for count in (1, 2, 3, 5, 1001):
            assert _lowest_cells(f, count) == _reference_lowest_cells(f, count), count

    def test_cells_at_infinity_come_last(self):
        f = np.full((6, 5), np.inf)
        f[1, 3], f[4, 0], f[4, 2] = 2.0, 1.0, 2.0
        assert _lowest_cells(f, 5) == [(4, 0), (1, 3), (4, 2), (0, 0), (0, 1)]
        assert _lowest_cells(f, 40) == _reference_lowest_cells(f, 40)
        f[:] = np.inf
        assert _lowest_cells(f, 3) == [(0, 0), (0, 1), (0, 2)]

    def test_fewer_rows_than_cells_asked(self):
        # the 4th row minimum bounds only 4 cells; the 5th lowest is (0, 1)
        f = np.array([[1.0, 9.0, 9.0], [2.0, 9.0, 9.0], [3.0, 9.0, 9.0], [4.0, 9.0, 9.0]])
        assert _lowest_cells(f, 5) == [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1)]


class TestGoldenTrajectories:
    """Walk ends and class representatives pinned bit for bit, so a change
    to the search that claims identical results fails here if any walk
    moves."""

    # (t1, s) of every start, and its walk's end t1 and s, value, boxes,
    # candidates and stop
    WALKS = {
        ("P6", 360): [
            (0.3333333333284827, 1.3374999999805368, "0x1.5555555555554p-2",
             "0x1.5555555555555p+0", "0x1.8000000000002p+0", 1, 11, "minimum"),
            (0.49999999999272404, 1.495833333311566, "0x1.fffffffffffffp-2",
             "0x1.8000000000000p+0", "0x1.8000000000001p+0", 2, 12, "minimum"),
        ],
        ("P10", 360): [
            (0.7777777777664596, 2.4374999999645297, "0x1.91215bf32e6a6p-1",
             "0x1.376f520668cacp+1", "0x1.6d5336963eefdp+0", 1, 11, "minimum"),
        ],
        ("P14", 360): [
            (0.4666666666598758, 3.4902777777269876, "0x1.fffffffffffffp-2",
             "0x1.c000000000000p+1", "0x1.6ce8d1b115359p+0", 4, 24, "minimum"),
        ],
        ("random", 720): [
            (3.1333333332877373, 2.829166666625497, "0x1.9112c27b5d004p+1",
             "0x1.6a2f74c6c5e54p+1", "0x1.44848d30ab3e9p+0", 1, 11, "minimum"),
            (3.1499999999541615, 2.829166666625497, "0x1.9112c27b5d004p+1",
             "0x1.6a2f74c6c5e54p+1", "0x1.44848d30ab3e9p+0", 3, 27, "minimum"),
            (3.1333333332877373, 2.837499999958709, "0x1.9112c27b5d004p+1",
             "0x1.6a2f74c6c5e54p+1", "0x1.44848d30ab3e9p+0", 1, 11, "minimum"),
            (3.1666666666205856, 2.820833333292285, "0x1.9112c27b5d004p+1",
             "0x1.6a2f74c6c5e54p+1", "0x1.44848d30ab3e9p+0", 4, 35, "minimum"),
            (3.116666666621313, 2.829166666625497, "0x1.9112c27b5d004p+1",
             "0x1.6a2f74c6c5e54p+1", "0x1.44848d30ab3e9p+0", 3, 27, "minimum"),
        ],
    }

    # (u.x, u.y, v.x, v.y) of each argmin_orbit representative at grid 360
    REPRESENTATIVES = {
        6: [
            ("0x1.0000000000000p+0", "0x0.0p+0",
             "0x1.8000000000000p-53", "0x1.bb67ae8584caap-1"),
            ("0x1.aaaaaaaaaaaabp-1", "0x1.279a74590331bp-2",
             "-0x1.5555555555548p-3", "0x1.bb67ae8584cabp-1"),
        ],
        8: [
            ("0x1.0000000000000p+0", "0x0.0p+0",
             "0x1.1a62633145c07p-54", "0x1.0000000000000p+0"),
            ("0x1.b504f333f9de7p-1", "0x1.6a09e667f3bcbp-2",
             "-0x1.6a09e667f3bccp-2", "0x1.b504f333f9de6p-1"),
        ],
    }

    @pytest.mark.parametrize("name, grid", list(WALKS))
    def test_walk_ends(self, name, grid):
        if name == "random":
            gon = random_central_polygon(np.random.default_rng(720), 6)
        else:
            gon = regular_polygon(int(name[1:]))
        walk = _make_walk(gon, gon.m / grid)
        records = []
        for r in bm_distance(gon, grid=grid).starts:
            t1, s, value, *outcome = walk(r.t1, r.s)
            assert (value, *outcome) == (r.value, r.boxes, r.candidates, r.stop)
            records.append((r.t1, r.s, t1.hex(), s.hex(), value.hex(), *outcome))
        assert records == self.WALKS[name, grid]

    @pytest.mark.parametrize("n", list(REPRESENTATIVES))
    def test_class_representatives(self, n):
        gon = regular_polygon(n)
        reps = argmin_orbit(gon, bm_distance(gon, grid=360))
        assert [(p.u.x.hex(), p.u.y.hex(), p.v.x.hex(), p.v.y.hex()) for p in reps] == (
            self.REPRESENTATIVES[n]
        )


class TestLocalMinimaMask:
    @pytest.mark.parametrize("rows", [1, 2, 5])
    def test_matches_a_brute_force_neighbor_check(self, rows):
        # rows wrap around (one row is its own neighbor), columns do not
        rng = np.random.default_rng(rows)
        for _ in range(20):
            f = rng.integers(0, 4, size=(rows, 7)).astype(float)
            f[rng.random(f.shape) < 0.2] = np.inf
            expected = np.array(
                [
                    [
                        all(
                            f[i, j] <= f[(i + di) % rows, j + dj]
                            for di in (-1, 0, 1)
                            for dj in (-1, 0, 1)
                            if 0 <= j + dj < f.shape[1]
                        )
                        for j in range(f.shape[1])
                    ]
                    for i in range(rows)
                ]
            )
            assert np.array_equal(_local_minima_mask(f), expected), f


class TestArgminOrbit:
    def test_square(self, p4):
        result = bm_distance(p4, grid=180)
        assert len(argmin_orbit(p4, result)) == 1

    def test_hexagon_has_two_classes(self, p6):
        result = bm_distance(p6, grid=360)
        reps = argmin_orbit(p6, result)
        assert len(reps) == 2
        for p in reps:
            assert abs(circum_ratio(p, p6) - 1.5) <= 1e-6

    @pytest.mark.xfail(
        reason="ROADMAP item 3: at grid 91 every walk from the scan's local "
        "minima ends in the same one of the two optimal classes",
    )
    @pytest.mark.parametrize("n", [14, 18, 32])
    def test_grid_91_finds_both_classes(self, n):
        gon = regular_polygon(n)
        assert len(argmin_orbit(gon, bm_distance(gon, grid=91))) == 2

    def test_octagon_has_two_square_classes(self, p8):
        result = bm_distance(p8, grid=360)
        reps = argmin_orbit(p8, result)
        assert len(reps) == 2
        for p in reps:
            assert abs(p.u.norm() - p.v.norm()) <= 1e-6
            assert abs(p.u.dot(p.v)) <= 1e-6

    def test_classes_across_the_seam_and_the_wrap(self):
        # optima of P16 and of a linear image of P8 sit at s = m/2 and at
        # t1 near m, where the scan's seam and period meet
        rng = np.random.default_rng(16)
        for gon in (regular_polygon(16), linear_image(regular_polygon(8), random_linear_map(rng))):
            result = bm_distance(gon, grid=360)
            reps = argmin_orbit(gon, result)
            assert len(reps) == 2
            for p in reps:
                assert circum_ratio(p, gon) <= result.lam + 1e-4

    def test_classes_when_the_period_is_not_whole_rows(self):
        # k * grid / 2m is not whole, so the scan's t1 wrap is approximate
        rng = np.random.default_rng(91)
        cases = [
            (regular_polygon(14), 360),
            (linear_image(regular_polygon(10), random_linear_map(rng)), 91),
        ]
        for gon, grid in cases:
            m = len(gon.vertices) // 2
            assert (gon.rotation_step * grid) % (2 * m) != 0
            result = bm_distance(gon, grid=grid)
            reps = argmin_orbit(gon, result)
            assert len(reps) == 2
            for p in reps:
                assert circum_ratio(p, gon) <= result.lam + 1e-4

    @pytest.mark.parametrize(
        "seed, m, grid",
        [(83, 8, 360), (13, 4, 45), (13, 4, 60), (15, 6, 90), (97, 11, 60), (188, 3, 60)],
    )
    def test_a_start_off_the_local_minima_still_gives_a_class(self, seed, m, grid):
        # the best walk of bm_distance starts from a cell that is not a
        # local minimum of the grid here
        gon = random_central_polygon(np.random.default_rng(seed), m)
        result = bm_distance(gon, grid=grid)
        reps = argmin_orbit(gon, result)
        assert len(reps) >= 1
        assert min(circum_ratio(p, gon) for p in reps) <= result.lam + 1e-4

    @pytest.mark.parametrize("seed, low, high, grid", [(3, 3, 13, 360), (116, 2, 11, 90)])
    def test_every_class_is_optimal(self, seed, low, high, grid):
        # local minima a little above the optimum (a kink at a vertex, a
        # slow walk) are not classes of optimal positions
        rng = np.random.default_rng(seed)
        gon = random_central_polygon(rng, int(rng.integers(low, high)))
        result = bm_distance(gon, grid=grid)
        reps = argmin_orbit(gon, result)
        assert reps
        for p in reps:
            assert circum_ratio(p, gon) <= result.lam + 1e-9

    def test_classes_follow_linear_maps_and_scalings(self):
        # an orientation-preserving map keeps the vertex order, so the
        # keys, and the classes drawn at them, map along; a reversing one
        # reverses the order and with it the keys
        rng = np.random.default_rng(2013)
        gons = [regular_polygon(n) for n in range(6, 26, 2)]
        gons += [random_central_polygon(rng, int(rng.integers(2, 9))) for _ in range(6)]
        for gon in gons:
            reps = argmin_orbit(gon, bm_distance(gon, grid=360))
            maps = [_orientation_preserving_map(rng), _orientation_preserving_map(rng)]
            maps += [[[f, 0.0], [0.0, f]] for f in (1e-5, 1e8)]
            for mat in maps:
                image = linear_image(gon, mat)
                size = max(v.norm() for v in image.vertices)
                got = argmin_orbit(image, bm_distance(image, grid=360))
                assert len(got) == len(reps), (gon, mat)
                for p, q in zip(reps, got):
                    assert (apply_linear(mat, p.u) - q.u).norm() <= 1e-9 * size, (gon, mat)
                    assert (apply_linear(mat, p.v) - q.v).norm() <= 1e-9 * size, (gon, mat)

    def test_representatives_are_distinct_classes(self, p6):
        from bmgon.geom import polygon_symmetries

        result = bm_distance(p6, grid=360)
        reps = argmin_orbit(p6, result)
        maps = polygon_symmetries(p6)
        a, b = reps
        images = [mapped_parallelogram(m, a) for m in maps]
        assert all(vertex_hausdorff(b, img) > 1e-5 for img in images)


class TestClassKey:
    """The key takes the least of four images under the rotation step and
    one reflection; it must agree with the whole group that
    ``symmetry_map`` accepts, in every labelling."""

    # polygon and the order of its symmetry group
    CASES = [
        (regular_polygon(6), 12),
        (regular_polygon(8), 16),
        (regular_polygon(10), 20),
        (linear_image(regular_polygon(8), random_linear_map(np.random.default_rng(8))), 16),
        (random_central_polygon(np.random.default_rng(5), 5), 2),
        (_pushed_hexagon(), 4),
    ]

    @staticmethod
    def _images(gon, t1, s):
        """(t1, s) under every symmetry of the polygon, in all four
        labellings; the map v_i -> v_(k + step*i) sends parameter t to
        k + step*t, and a reflection swaps the generators."""
        m = gon.m
        images = []
        for k in range(2 * m):
            for step in (1, -1):
                if symmetry_map(gon, k, step) is not None:
                    a = k + t1 if step == 1 else k - t1 - s
                    images += [(a, s), (a + m, s), (a + s, m - s), (a + s + m, m - s)]
        return images

    @staticmethod
    def _gap(a, b):
        return max(abs(a[0] - b[0]), abs(a[1] - b[1]))

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_key_is_constant_on_every_orbit(self, case):
        gon, order = self.CASES[case]
        m, k = gon.m, gon.rotation_step
        key = _class_key_fn(gon)
        rng = np.random.default_rng(case)
        t1s, ss = rng.uniform(0.0, 2.0 * m, 40), rng.uniform(0.01, m - 0.01, 40)
        for t1, s in zip(t1s.tolist(), ss.tolist()):
            images = self._images(gon, t1, s)
            assert len(images) == 4 * order
            expected = key(t1, s)
            assert -KEY_TOL < expected[0] < k and 0.0 < expected[1] <= m / 2 + KEY_TOL
            for image in images:
                assert self._gap(key(*image), expected) <= 1e-12, (t1, s, image)
            # the key is itself a position of the class
            ratio = TestRelabelling._ratio(gon, t1, s)
            assert math.isclose(TestRelabelling._ratio(gon, *expected), ratio, rel_tol=1e-12)

    @pytest.mark.parametrize(
        "n, positions",
        [
            # the axis square and the edge-midpoint square of P8
            (8, [(0.0, 2.0), (0.5, 2.0)]),
            # the two optimal positions of P6, from a vertex to an edge
            # midpoint and from a third to two thirds along two edges
            (6, [(0.0, 1.5), (1.0 / 3.0, 4.0 / 3.0)]),
            # a polygon with no symmetry to mirror the rounding: a vertex,
            # and s = m/2
            (0, [(0.0, 1.2), (0.3, 2.0)]),
        ],
    )
    def test_rounding_at_a_vertex_or_at_half_period_keeps_the_key(self, n, positions):
        gon = regular_polygon(n) if n else random_central_polygon(np.random.default_rng(4), 4)
        assert len(polygon_symmetries(gon)) == (2 * n if n else 2)
        if n == 6:
            for (t1, s), p in zip(positions, hex_optimal_positions()):
                assert (boundary_point(gon, t1) - p.u).norm() <= 1e-15
                assert (boundary_point(gon, t1 + s) - p.v).norm() <= 1e-15
        key = _class_key_fn(gon)
        for t1, s in positions:
            expected = key(t1, s)
            for dt in (-1e-15, 0.0, 1e-15):
                for ds in (-1e-15, 0.0, 1e-15):
                    got = key(t1 + dt, s + ds)
                    assert _same_class(got, expected) and self._gap(got, expected) <= 1e-12


class TestRotationStep:
    """Symmetries are decided relative to the polygon's size, so a
    scaled or linearly mapped regular polygon keeps its whole group and
    its one-vertex rotation step, and a polygon that is only nearly
    regular keeps none of the lost maps."""

    @staticmethod
    def _scaled(gon, factor):
        # antipodal vertices stay exact negations under scaling
        return CentralPolygon([v * factor for v in gon.vertices])

    @pytest.mark.parametrize("exponent", [-5, 0, 5, 7, 8])
    def test_scaled_regular_polygons_keep_their_group(self, exponent):
        rng = np.random.default_rng(8)
        image = linear_image(regular_polygon(8), random_linear_map(rng))
        for gon, count in ((regular_polygon(6), 12), (regular_polygon(8), 16), (image, 16)):
            scaled = self._scaled(gon, 10.0**exponent)
            assert len(polygon_symmetries(scaled)) == count
            assert scaled.rotation_step == 1

    @staticmethod
    def _rescaling_symmetry_map(gon, k, step):
        """``symmetry_map`` that divides every coordinate by the power of
        two just above the largest |coordinate| on each call."""
        x, y = [v.x for v in gon.vertices], [v.y for v in gon.vertices]
        e = math.frexp(max(map(abs, x + y)))[1]
        x, y = [math.ldexp(a, -e) for a in x], [math.ldexp(a, -e) for a in y]
        n = len(x)
        det0 = x[0] * y[1] - y[0] * x[1]
        p, q = k % n, (k + step) % n
        a = (x[p] * y[1] - x[q] * y[0]) / det0
        b = (x[q] * x[0] - x[p] * x[1]) / det0
        c = (y[p] * y[1] - y[q] * y[0]) / det0
        d = (y[q] * x[0] - y[p] * x[1]) / det0
        bound = math.ldexp(geom.SYMMETRY_TOL * gon.radius, -e)
        for i in range(n):
            j = (k + step * i) % n
            if abs(a * x[i] + b * y[i] - x[j]) > bound or abs(c * x[i] + d * y[i] - y[j]) > bound:
                return None
        return ((a, b), (c, d))

    def test_kept_unit_scale_gives_the_maps_of_rescaled_coordinates(self):
        rng = np.random.default_rng(32)
        regular = [regular_polygon(n) for n in range(4, 33, 2)]
        cases = regular + [linear_image(gon, random_linear_map(rng)) for gon in regular]
        cases.append(random_central_polygon(rng, 32))
        cases += [self._scaled(regular[1], f) for f in (1e-170, 1e154, 1e200)]
        for gon in cases:
            for k in range(len(gon.vertices)):
                for step in (1, -1):
                    expected = self._rescaling_symmetry_map(gon, k, step)
                    assert symmetry_map(gon, k, step) == expected, (gon, k, step)

    def test_the_unit_scale_is_found_once_per_polygon(self, monkeypatch):
        calls = []
        real = geom.unit_scaled
        monkeypatch.setattr(geom, "unit_scaled", lambda *rows: calls.append(rows) or real(*rows))
        for gon in (regular_polygon(12), random_central_polygon(np.random.default_rng(3), 32)):
            calls.clear()
            gon = CentralPolygon(gon.vertices)
            gon.rotation_step
            _class_key_fn(gon)
            assert len(calls) == 1

    def test_step_is_found_once_and_kept(self, monkeypatch):
        gon = regular_polygon(12)
        probes = []
        real = geom.symmetry_map
        monkeypatch.setattr(geom, "symmetry_map", lambda *a: probes.append(a) or real(*a))
        assert gon.rotation_step == 1 and len(probes) == 1
        assert gon.rotation_step == 1 and len(probes) == 1
        with pytest.raises(AttributeError):
            gon._rotation_step = 2

    @pytest.mark.parametrize("exponent", range(-3, 13))
    def test_polygons_built_from_cos_and_sin_are_accepted_at_every_scale(self, exponent):
        # their mirror pairs miss exact negation by rounding relative to
        # the radius, so the check must scale with it
        radius = 10.0**exponent
        for n in (6, 8, 14):
            step = 2.0 * math.pi / n
            gon = CentralPolygon(
                (radius * math.cos(step * j), radius * math.sin(step * j)) for j in range(n)
            )
            result = bm_distance(gon, grid=360)
            assert abs(result.lam - theorem2_value(n).value) <= 1e-15, (n, result.lam)
            assert len(argmin_orbit(gon, result)) == 2, n

    def test_large_hexagon_has_two_classes(self, p6):
        gon = self._scaled(p6, 1e8)
        result = bm_distance(gon, grid=360)
        assert len(argmin_orbit(gon, result)) == 2

    @pytest.mark.parametrize("factor", [1e-5, 1.0, 1e8])
    def test_a_nearly_regular_hexagon_keeps_only_its_own_maps(self, factor):
        gon = _pushed_hexagon(factor)
        maps = polygon_symmetries(gon)
        # identity, point reflection, and the reflections through the
        # pushed pair's axis and its perpendicular: v_i -> v_(k + step*i)
        assert len(maps) == 4
        verts = gon.vertices
        for mat, (k, step) in zip(maps, [(0, 1), (0, -1), (3, 1), (3, -1)]):
            for i, v in enumerate(verts):
                image = apply_linear(mat, v)
                assert (image - verts[(k + step * i) % 6]).norm() <= 1e-12 * factor
        assert gon.rotation_step == 3


class TestLargePolygons:
    """Random polygons with many vertices, drawn without rejection."""

    @pytest.mark.parametrize("m", [50, 100, 200])
    def test_walks_converge(self, m):
        rng = np.random.default_rng(m)
        gon = spread_central_polygon(rng, m)
        assert len(gon.vertices) == 2 * m
        result = bm_distance(gon, grid=360)
        assert len(result.starts) == DEFAULT_SETTINGS.starts
        assert all(r.stop != "max_steps" for r in result.starts)
        assert 1.0 <= result.lam <= 1.5 + 1e-9
        image = linear_image(gon, random_linear_map(rng))
        assert abs(bm_distance(image, grid=360).lam - result.lam) <= 1e-9


class TestVerifyClaim:
    """Search results checked against claimed values by the verdict rule
    of each kind of claim."""

    def test_exact_pass(self, p6):
        claim = Claim("P6", 1.5, bm_distance(p6, grid=360).lam, 1e-5)
        assert claim.passed
        assert claim.note == ""
        assert abs(claim.gap) <= 1e-5

    def test_exact_fail(self, p6):
        assert not Claim("P6", 1.49, bm_distance(p6, grid=360).lam, 1e-5).passed

    def test_upper_bound_carries_the_support_note(self):
        lam = bm_distance(regular_polygon(10), grid=360).lam
        claim = Claim("P10", 1.4270509831248424, lam, 1e-6, "upper_bound")
        assert claim.note == "conjecture support"
        assert claim.passed

    def test_upper_bound_fails_when_beaten(self, p6):
        lam = bm_distance(p6, grid=360).lam
        assert not Claim("P6", 1.51, lam, 1e-6, "exact").passed
        assert not Claim("P6", 1.51, lam, 1e-6, "upper_bound").passed
        assert not Claim("P6", 1.49, lam, 1e-6, "upper_bound").passed
        # a lambda more than the tolerance above or below the bound fails
        tol = 1e-11
        for computed in (1.5 + 2.0 * tol, 1.5 - 2.0 * tol):
            assert not Claim("P6", 1.5, computed, tol, "upper_bound").passed
        assert Claim("P6", 1.5, 1.5 - 0.5 * tol, tol, "upper_bound").passed

    def test_rejects_bad_arguments(self):
        for kind in ("lower_bound", "above"):
            with pytest.raises(ValueError):
                Claim("P6", 1.5, 1.5, 1e-6, kind)
