import heapq
import math
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import (
    mapped_parallelogram,
    random_central_polygon,
    random_linear_map,
    spread_central_polygon,
)
from bmgon.geom import (
    CentralPolygon,
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
    _class_key_fn,
    _local_minima_mask,
    _lowest_cells,
    _make_objective,
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
        # vertex, so m = 2 has k = 1 only.  P6 scaled by 2e-150, just
        # above MIN_RADIUS, has cells with 0 < cross(u, v) <= FEASIBLE_DEN
        # (135 of its 675 at grid 90), which both must call infeasible
        half = (grid + 1) // 2
        rng = np.random.default_rng(grid)
        cases = [(regular_polygon(2 * m), 1) for m in (2, 3, 5, 12)]
        cases += [(random_central_polygon(rng, m=m), 1 if m == 2 else m) for m in (2, 3, 5, 12)]
        cases += [(CentralPolygon([2e-150 * v for v in regular_polygon(6).vertices]), 1)]
        for gon, k in cases:
            m = len(gon.vertices) // 2
            assert gon.rotation_step == k
            rows = (k * grid + 2 * m - 1) // (2 * m)
            t1, s, f = grid_scan(gon, grid)
            assert t1.shape == (rows,) and s.shape == (half,) and f.shape == (rows, half)
            assert (t1 < k).all() and (s > 0.0).all() and (s <= m / 2.0).all()
            evaluate = _make_objective(gon)
            expected = [[evaluate(float(a), float(b))[0] for b in s] for a in t1]
            assert f.tolist() == expected, (m, k)

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
                expected = [evaluate(float(t1[i]), float(b))[0] for b in s]
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
    """The generators u, v at (t1, s) as the objective reads them: s
    clamped to the margin and both parameters reduced modulo n."""
    m = len(gon.vertices) // 2
    margin = DEFAULT_SETTINGS.margin
    s = min(max(s, margin), m - margin)
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
    @staticmethod
    def _points(gon, rng):
        m = len(gon.vertices) // 2
        t1s = rng.uniform(-3.0 * m, 5.0 * m, 2000)
        ss = rng.uniform(-0.5, m + 0.5, 2000)
        return zip(t1s.tolist(), ss.tolist())

    def test_fused_objective_is_the_largest_sheet_bit_for_bit(self):
        rng = np.random.default_rng(2000)
        margin = DEFAULT_SETTINGS.margin
        for gon in (regular_polygon(6), regular_polygon(50), random_central_polygon(rng, m=7)):
            m = len(gon.vertices) // 2
            evaluate = _make_objective(gon)
            # t1 well outside [0, 2m) and s outside [margin, m - margin]
            t1s = rng.uniform(-3.0 * m, 5.0 * m, 2000)
            ss = rng.uniform(-0.5, m + 0.5, 2000)
            assert (t1s < 0).any() and (t1s >= 2 * m).any()
            assert (ss < margin).any() and (ss > m - margin).any()
            for t1, s in zip(t1s.tolist(), ss.tolist()):
                assert evaluate(t1, s)[0] == max(_sheets(gon, t1, s)), (t1, s)

    def test_objective_is_infinite_where_the_generators_coincide(self, p6):
        # at t1 = 1e17 adding s rounds away, so both generators are one
        # point and the denominator is 0
        evaluate = _make_objective(p6)
        assert _sheets(p6, 1e17, 0.5) == [math.inf] * 3
        assert evaluate(1e17, 0.5) == (math.inf, ())
        assert evaluate(1e17, 0.5, 1.0, (0, 1)) == (math.inf, ())

    def test_early_exit_decides_like_the_full_maximum(self):
        # the descent only asks whether a trial value is below the bound,
        # and uses the value and the crease only when it is
        rng = np.random.default_rng(2009)
        for gon in (regular_polygon(6), regular_polygon(50), random_central_polygon(rng, m=7)):
            m = len(gon.vertices) // 2
            evaluate = _make_objective(gon)
            points = list(self._points(gon, rng))
            # descent ends lie on creases, where the leading sheets tie
            for t1, s in points[:20]:
                points.append(oracle._descend(evaluate, t1, s, 0.1)[:2])
            for t1, s in points:
                value, full = evaluate(t1, s)
                values = _sheets(gon, t1, s)
                leading = tuple(heapq.nlargest(2, range(m), key=values.__getitem__))
                other = tuple(int(x) for x in rng.integers(0, m, 2))
                bounds = (
                    value,
                    math.nextafter(value, math.inf),
                    math.nextafter(value, -math.inf),
                    value + 1e-3,
                    value - 1e-3,
                    math.inf,
                )
                for bound in bounds:
                    for lead in (leading, leading[::-1], other):
                        early, crease = evaluate(t1, s, bound, lead)
                        assert (early < bound) == (value < bound), (t1, s, bound, lead)
                        if early < bound:
                            assert (early, crease) == (value, full), (t1, s, bound, lead)
                        else:
                            assert crease == (), (t1, s, bound, lead)

    def test_crease_pair_is_the_nlargest_pair_of_the_sheets(self):
        rng = np.random.default_rng(2012)
        gons = [regular_polygon(6), regular_polygon(50), random_central_polygon(rng, m=2)]
        gons += [random_central_polygon(rng, m=7), spread_central_polygon(rng, m=60)]
        for gon in gons:
            m = len(gon.vertices) // 2
            evaluate = _make_objective(gon)
            points = list(self._points(gon, rng))
            for t1, s in points[:10]:
                points.append(oracle._descend(evaluate, t1, s, 0.1)[:2])
            compared = 0
            for t1, s in points:
                values = _sheets(gon, t1, s)
                top = sorted(values, reverse=True)[:3]
                # where the top sheets tie, rounding decides the order
                if not math.isfinite(top[0]) or len(set(top)) < len(top):
                    continue
                compared += 1
                _, (pair, sheets, _, _) = evaluate(t1, s)
                assert pair == tuple(heapq.nlargest(2, range(m), key=values.__getitem__)), (t1, s)
                # the record's sheets: the three largest numerators
                numerators = _numerators(gon, *_ends(gon, t1, s))
                assert [g for g, _ in sheets] == sorted(numerators, reverse=True)[:3], (t1, s)
            assert compared >= 1000, compared

    def test_tied_sheets_put_the_lower_index_first(self, p4):
        # generators at the square's vertices v0 and v1: both numerators
        # are exactly 1, and nlargest keeps equals in index order
        values = _sheets(p4, 0.0, 1.0)
        assert values[0] == values[1]
        _, (pair, *_) = _make_objective(p4)(0.0, 1.0)
        assert pair == tuple(heapq.nlargest(2, range(2), key=values.__getitem__)) == (0, 1)

    def test_sheet_record_matches_central_differences_inside_a_cell(self):
        # each numerator is affine in the edge fractions (f, g) of u and v
        # inside an edge-pair cell with fixed signs: (t1 + h, s - h) moves
        # f alone, (t1, s + h) moves g alone and (t1 + h, s) moves both,
        # so central differences that stay in the cell give the gradients
        rng = np.random.default_rng(2015)
        margin = DEFAULT_SETTINGS.margin
        h = 1e-4
        gons = [regular_polygon(6), regular_polygon(50), random_central_polygon(rng, m=2)]
        gons += [random_central_polygon(rng, m=7), linear_image(regular_polygon(8), random_linear_map(rng))]
        for gon in gons:
            verts = gon.vertices
            n = len(verts)
            m = n // 2
            evaluate = _make_objective(gon)
            checked = 0
            t1s = rng.uniform(-3.0 * m, 5.0 * m, 2000).tolist()
            ss = rng.uniform(margin + 2.0 * h, m - margin - 2.0 * h, 2000).tolist()
            for t1, s in zip(t1s, ss):
                numerators = _numerators(gon, *_ends(gon, t1, s))
                top = sorted(numerators, reverse=True)[:4]
                if len(set(top)) < len(top):
                    continue
                leading = heapq.nlargest(3, range(m), key=numerators.__getitem__)

                def cell(a, b):
                    u, v = _ends(gon, a, b)
                    signs = tuple(
                        np.sign(c) for w in leading for c in (u.cross(verts[w]), verts[w].cross(v))
                    )
                    return int(a % n), int((a + b) % n), signs

                def sheet(w, a, b):
                    return _numerators(gon, *_ends(gon, a, b))[w]

                around = [(t1 + h, s - h), (t1 - h, s + h), (t1 + h, s), (t1 - h, s)]
                around += [(t1, s + h), (t1, s - h)]
                if any(cell(a, b) != cell(t1, s) for a, b in around):
                    continue
                checked += 1
                _, record = evaluate(t1, s)
                pair, sheets, (fu, fv), point = record
                assert pair == tuple(leading[:2]) and point == (t1, s), (t1, s)
                for t, f in ((t1, fu), (t1 + s, fv)):
                    a = int(t % n)
                    edge_point = verts[a] + (verts[(a + 1) % n] - verts[a]) * f
                    assert 0.0 <= f < 1.0 and (edge_point - boundary_point(gon, t)).norm() <= 1e-12
                for w, (g, (df, dg)) in zip(leading, sheets):
                    assert g == numerators[w], (t1, s)
                    ef = (sheet(w, t1 + h, s - h) - sheet(w, t1 - h, s + h)) / (2.0 * h)
                    eg = (sheet(w, t1, s + h) - sheet(w, t1, s - h)) / (2.0 * h)
                    assert math.hypot(ef - df, eg - dg) <= 1e-6 * math.hypot(df, dg) + 1e-9, (t1, s)

                # the pair's gradient in (t1, s): t1 moves f and g, s only g
                (_, (fi, gi)), (_, (fj, gj)) = sheets[:2]
                gx, gy = fi + gi - (fj + gj), gi - gj

                def diff(a, b):
                    return sheet(pair[0], a, b) - sheet(pair[1], a, b)

                fx = (diff(t1 + h, s) - diff(t1 - h, s)) / (2.0 * h)
                fy = (diff(t1, s + h) - diff(t1, s - h)) / (2.0 * h)
                assert math.hypot(fx - gx, fy - gy) <= 1e-6 * math.hypot(gx, gy), (t1, s)
                # the frame's e2 runs down that gradient, e1 along the tie line
                frame_pair, (e1, e2, *_) = oracle._crease_frame(record)
                norm = math.hypot(gx, gy)
                assert frame_pair == pair and e1 == (e2[1], -e2[0])
                assert math.hypot(e2[0] + gx / norm, e2[1] + gy / norm) <= 1e-15, (t1, s)
            assert checked >= 1000, checked


class TestDescend:
    # the plain reference halves its step down to this after the first
    # stall below KEY_TOL, where the descent ends
    STEP_TOL = 1e-13

    @staticmethod
    def _reference(evaluate, t1, s, radius, m, end="vertex"):
        """The compass descent with full evaluations: every sweep re-derives
        the leading pair and the frame, and every trial step takes the
        full maximum, with no bound.  ``end`` says what the first stall
        that takes the step below KEY_TOL does.  With ``vertex`` it tries
        the vertex candidates that keep both edge fractions in [0, 1] and
        whose value is at most the current one, and ends at the lowest of
        those within KEY_TOL of the nearest, or with stop ``stall`` when
        there is none; with ``stall`` it ends there; with ``step_tol`` the
        step halves on until it drops below STEP_TOL."""
        lo, hi = DEFAULT_SETTINGS.margin, m - DEFAULT_SETTINGS.margin
        s = min(max(s, lo), hi)
        fcur, _ = evaluate(t1, s)
        r = radius
        moves = 0
        for sweep in range(1, DEFAULT_SETTINGS.max_sweeps + 1):
            _, (_, ((_, (fi, gi)), (_, (fj, gj)), *_), _, _) = evaluate(t1, s)
            gx, gy = fi + gi - (fj + gj), gi - gj
            norm = math.hypot(gx, gy)
            ex, ey = (-gy / norm, gx / norm) if norm > 0.0 else (1.0, 0.0)
            for dx, dy in ((ex, ey), (-ey, ex), (-ex, -ey), (ey, -ex)):
                a, b = t1 + r * dx, s + r * dy
                fab, _ = evaluate(a, b)
                if fab < fcur:
                    t1, s, fcur = a, min(max(b, lo), hi), fab
                    r *= 2.0
                    moves += 1
                    break
            else:
                r *= 0.5
                if end == "step_tol" and r < TestDescend.STEP_TOL:
                    return t1, s, fcur, sweep, moves, "step_tol"
                if end != "step_tol" and r < KEY_TOL:
                    ends = []
                    candidates = TestDescend._vertex_moves(evaluate, t1, s) if end == "vertex" else []
                    for df, dg in candidates:
                        a, b = t1 + df, s + dg - df
                        fab, _ = evaluate(a, b)
                        if fab <= fcur:
                            ends.append((df, dg, fab, a, b))
                    if not ends:
                        return t1, s, fcur, sweep, moves, "stall"
                    nearest = min(ends, key=lambda end: max(abs(end[0]), abs(end[1])))
                    cluster = [
                        end
                        for end in ends
                        if abs(end[0] - nearest[0]) <= KEY_TOL and abs(end[1] - nearest[1]) <= KEY_TOL
                    ]
                    _, _, fab, a, b = min(cluster, key=lambda end: end[2])
                    return a, min(max(b, lo), hi), fab, sweep, moves, "vertex"
        return t1, s, fcur, DEFAULT_SETTINGS.max_sweeps, moves, "max_sweeps"

    @staticmethod
    def _vertex_moves(evaluate, t1, s):
        """Moves (df, dg) of the edge fractions of u and v to the vertex
        candidates that stay in the closed edge-pair cell: the three-sheet
        tie, the pair's tie at the nearer u edge and at the nearer v edge,
        and the nearer corner."""
        _, (_, sheets, (fu, fv), _) = evaluate(t1, s)
        (ni, (fi, gi)), (nj, (fj, gj)) = sheets[:2]
        eu = -fu if fu <= 0.5 else 1.0 - fu
        ev = -fv if fv <= 0.5 else 1.0 - fv
        candidates = []
        for nk, (fk, gk) in sheets[2:]:
            # Cramer's rule on the ties N_i = N_j and N_i = N_k
            a11, a12, b1 = fi - fj, gi - gj, nj - ni
            a21, a22, b2 = fi - fk, gi - gk, nk - ni
            det = a11 * a22 - a12 * a21
            if det != 0.0:
                candidates.append(((b1 * a22 - a12 * b2) / det, (a11 * b2 - b1 * a21) / det))
        if gi != gj:
            candidates.append((eu, (nj - ni - (fi - fj) * eu) / (gi - gj)))
        if fi != fj:
            candidates.append(((nj - ni - (gi - gj) * ev) / (fi - fj), ev))
        candidates.append((eu, ev))
        return [(df, dg) for df, dg in candidates if 0.0 <= fu + df <= 1.0 and 0.0 <= fv + dg <= 1.0]

    @staticmethod
    def _starts():
        """``(evaluate, (t1, s, radius), m)`` of 144 descents on nine
        polygons."""
        rng = np.random.default_rng(2011)
        gons = [regular_polygon(n) for n in (4, 6, 8, 14, 50)]
        gons += [random_central_polygon(rng, m) for m in (2, 3, 7, 12)]
        for gon in gons:
            m = len(gon.vertices) // 2
            evaluate = _make_objective(gon)
            starts = zip(rng.uniform(0.0, 2.0 * m, 8), rng.uniform(0.05 * m, 0.5 * m, 8))
            for t1, s in starts:
                for radius in (2.0 * m / 91, 2.0 * m / 720):
                    yield evaluate, (float(t1), float(s), radius), m

    def test_matches_the_descent_with_full_evaluations_bit_for_bit(self):
        stops = []
        for evaluate, args, m in self._starts():
            expected = self._reference(evaluate, *args, m)
            assert oracle._descend(evaluate, *args) == expected, args
            stops.append(expected[-1])
        assert len(stops) == 144 and set(stops) == {"vertex"}

    @pytest.mark.parametrize("found", [False, True])
    def test_the_vertex_solve_runs_once_and_ends_the_descent_when_found(self, found, monkeypatch):
        calls = []

        def stub(evaluate, record, bound):
            calls.append((*record[-1], bound))
            return calls[-1] if found else None

        monkeypatch.setattr(oracle, "_vertex_solve", stub)
        for evaluate, args, m in list(self._starts())[::8]:
            calls.clear()
            got = oracle._descend(evaluate, *args)
            assert len(calls) == 1, args
            if found:
                assert got[:3] == calls[0] and got[-1] == "vertex", args
            else:
                assert got == self._reference(evaluate, *args, m, end="stall"), args

    def test_without_a_vertex_the_descent_ends_at_its_first_stall_below_key_tol(self, monkeypatch):
        # the solve is asked once, with the record of the stalled point,
        # and the descent stops there as the reference does
        calls = []

        def stub(evaluate, record, bound):
            calls.append((*record[-1], bound))

        monkeypatch.setattr(oracle, "_vertex_solve", stub)
        for evaluate, args, m in self._starts():
            calls.clear()
            got = oracle._descend(evaluate, *args)
            assert got == self._reference(evaluate, *args, m, end="stall"), args
            assert got[-1] == "stall" and calls == [got[:3]], args
        # a start of infinite value has no record, so no solve: at
        # t1 = 1e17 every step rounds away and both generators coincide
        calls.clear()
        got = oracle._descend(_make_objective(regular_polygon(6)), 1e17, 0.5, 0.1)
        assert got == (1e17, 0.5, math.inf, 17, 0, "stall") and calls == []

    def test_the_vertex_solve_never_ends_above_the_plain_descent(self):
        # a vertex solve from a point that is not yet near the optimum of
        # its basin, as at an early stall, ends well above it
        for evaluate, args, m in self._starts():
            plain = self._reference(evaluate, *args, m, end="step_tol")
            assert plain[-1] == "step_tol", args
            assert oracle._descend(evaluate, *args)[2] <= plain[2] + 1e-14, args

    def test_vertex_candidates_lie_in_the_closed_cell(self):
        rng = np.random.default_rng(2014)
        margin = DEFAULT_SETTINGS.margin
        for gon in (regular_polygon(6), regular_polygon(14), random_central_polygon(rng, m=7)):
            n = len(gon.vertices)
            m = n // 2
            evaluate = _make_objective(gon)
            points = list(TestObjective._points(gon, rng))[:200]
            points += [oracle._descend(evaluate, t1, s, 0.1)[:2] for t1, s in points[:20]]
            evaluated = 0
            for t1, s in points:
                s = min(max(s, margin), m - margin)
                tried = []

                def recording(a, b, *rest):
                    value, record = evaluate(a, b, *rest)
                    if not rest:
                        tried.append(((a, b), record[-1] if record else None))
                    return value, record

                current, record = evaluate(t1, s)
                vertex = oracle._vertex_solve(recording, record, current)
                if vertex is not None:
                    assert vertex[2] <= current and vertex[:2] in [p for _, p in tried], (t1, s)
                for (a, b), _ in tried:
                    for start, end in ((t1, a), (t1 + s, a + b)):
                        # the end's offset from the start's edge, in [0, 1]
                        offset = (end - math.floor(start % n) + 0.5) % n - 0.5
                        assert -1e-12 <= offset <= 1.0 + 1e-12, (t1, s, a, b)
                evaluated += len(tried)
            assert evaluated >= 100, evaluated

    def test_a_coarse_grid_reaches_the_fine_optimum(self):
        # with the frame taken from central differences of the pair's
        # gap at the step length, the best descent from grid 45 stopped
        # 2.5e-3 above the optimum here
        gon = random_central_polygon(np.random.default_rng(31), 6)
        optimum = bm_distance(gon, grid=2880).lam
        assert bm_distance(gon, grid=45).lam <= optimum + 1e-9

    @pytest.mark.xfail(
        reason="known miss: every start descends into a basin 6.3e-4 above the optimum"
    )
    def test_a_grid_180_descent_reaches_the_fine_optimum(self):
        # polygon 1045 of a seeded list of random polygons with m = 2..16;
        # the central-difference frame reached the optimum from grid 180,
        # the exact crease frame stops 6.3e-4 above it
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

    def test_the_radius_bound_is_the_largest_scale_searched(self, p6):
        # up to the bound the vertex solves stay finite, so lambda and the
        # class count are those of the unit hexagon; past it both entry
        # points and the scan they share refuse the polygon
        result = bm_distance(p6, grid=90)
        scale = oracle.MAX_RADIUS * (1.0 - 4e-16) / p6.radius
        inside = CentralPolygon([scale * v for v in p6.vertices])
        assert inside.radius <= oracle.MAX_RADIUS
        found = bm_distance(inside, grid=90)
        assert abs(found.lam - result.lam) <= 1e-15
        assert len(argmin_orbit(inside, found)) == len(argmin_orbit(p6, result)) == 2
        beyond = CentralPolygon([2.0 * v for v in inside.vertices])
        bound = re.escape(f"exceeds {oracle.MAX_RADIUS:.17g}")
        with pytest.raises(ValueError, match=bound):
            bm_distance(beyond, grid=90)
        with pytest.raises(ValueError, match=bound):
            argmin_orbit(beyond, result)
        with pytest.raises(ValueError, match=bound):
            grid_scan(beyond, 90)

    @pytest.mark.parametrize("scale", [1e-151, 1e-170, 1e-300])
    def test_below_the_least_radius_both_entry_points_refuse_the_polygon(self, p6, scale):
        # every cross(u, v) there is below FEASIBLE_DEN, so no cell is
        # feasible; the constructor accepts these polygons, and both entry
        # points and the scan they share refuse them
        result = bm_distance(p6, grid=90)
        tiny = CentralPolygon([scale * v for v in p6.vertices])
        bound = re.escape(f"is below {oracle.MIN_RADIUS}")
        with pytest.raises(ValueError, match=bound):
            bm_distance(tiny, grid=90)
        with pytest.raises(ValueError, match=bound):
            argmin_orbit(tiny, result)
        with pytest.raises(ValueError, match=bound):
            grid_scan(tiny, 90)

    def test_a_polygon_without_a_feasible_cell_is_refused_by_the_threshold(self):
        # the thin rhombus +-(2e-150, 0), +-(0, 2e-151) lies above
        # MIN_RADIUS, but every cross(u, v) is at most 4e-301
        thin = CentralPolygon([(2e-150, 0.0), (0.0, 2e-151), (-2e-150, 0.0), (0.0, -2e-151)])
        assert thin.radius >= oracle.MIN_RADIUS
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
        reason="ROADMAP item 3: the descents reach one of the two optimal classes, "
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
    """The descents start from the ceil(starts / r) lowest cells of one
    rotation period, where r = m / k counts the rotated copies of a cell
    over [0, m)."""

    @pytest.mark.parametrize(
        "name, expected",
        [("P6", 2), ("P10", 1), ("P14", 1), ("P18", 1), ("P22", 1), ("P26", 1), ("random", 5)],
    )
    def test_descents_at_grid_720(self, name, expected):
        if name == "random":
            gon = random_central_polygon(np.random.default_rng(720), m=6)
        else:
            gon = regular_polygon(int(name[1:]))
        result = bm_distance(gon, grid=720)
        assert len(result.starts) == expected
        for record in result.starts:
            assert record.stop == "vertex" and record.sweeps >= 1
            assert record.value >= result.lam - 1e-12

    @pytest.mark.parametrize("grid", [45, 91, 360, 720])
    def test_descents_start_from_the_lowest_cells_of_one_period(self, grid):
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
            descended = [(rows.index(r.t1), cols.index(r.s)) for r in result.starts]
            # (a) every one of the ceil(starts / r) lowest cells, lowest first
            assert descended == _lowest_cells(f, -(-starts // (m // k)))

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

            for x, a in enumerate(descended):
                for b in descended[x + 1 :]:
                    assert not is_rotated_copy(a, b), (a, b)

            # (c) the identity the cut to t1 in [0, k) relies on
            evaluate = _make_objective(gon)
            t1s = rng.uniform(0.0, 2.0 * m, 200).tolist()
            for t1, s in zip(t1s, rng.uniform(0.02 * m, 0.98 * m, 200).tolist()):
                base, _ = evaluate(t1, s)
                assert math.isclose(evaluate(t1 + k, s)[0], base, rel_tol=1e-12), (t1, s)

    def test_lambda_matches_the_closed_form(self):
        rng = np.random.default_rng(12)
        for n in (6, 8, 12, 16, 20, 24):
            claimed = theorem2_value(n).value
            gon = regular_polygon(n)
            for poly in (gon, linear_image(gon, random_linear_map(rng))):
                for grid in (90, 360, 720):
                    result = bm_distance(poly, grid=grid)
                    assert abs(result.lam - claimed) <= 1e-15, (n, grid, result.lam - claimed)
                    assert all(r.stop == "vertex" for r in result.starts), (n, grid)

    @pytest.mark.parametrize("seed", [0, 3, 5, 7])
    def test_no_descent_runs_out_of_sweeps(self, seed, monkeypatch):
        # a descent that crawls along a crease at a tiny step runs to
        # max_sweeps; argmin_orbit's descents are in no result, so every
        # stop is recorded here
        stops = []
        descend = oracle._descend

        def recording(*args):
            out = descend(*args)
            stops.append(out[-1])
            return out

        monkeypatch.setattr(oracle, "_descend", recording)
        rng = np.random.default_rng(seed)
        gon = random_central_polygon(rng, int(rng.integers(3, 13)))
        argmin_orbit(gon, bm_distance(gon, grid=360))
        assert stops and all(stop == "vertex" for stop in stops), stops

    def test_running_out_of_sweeps_is_reported(self, p6, monkeypatch):
        monkeypatch.setattr(oracle, "DEFAULT_SETTINGS", SearchSettings(max_sweeps=2))
        result = bm_distance(p6, grid=90)
        assert result.starts
        assert all(r.stop == "max_sweeps" and r.sweeps == 2 for r in result.starts)


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
    """Descent records and class representatives pinned bit for bit, so a
    change to the search that claims identical results fails here if any
    path moves."""

    # (t1, s, value.hex(), sweeps, moves, stop) of every descent
    STARTS = {
        ("P6", 360): [
            (0.3333333333284827, 1.3374999999805368, "0x1.8000000000002p+0", 45, 15, "vertex"),
            (0.49999999999272404, 1.495833333311566, "0x1.8000000000001p+0", 47, 16, "vertex"),
        ],
        ("P10", 360): [
            (0.7777777777664596, 2.4374999999645297, "0x1.6d5336963eefdp+0", 47, 16, "vertex"),
        ],
        ("P14", 360): [
            (0.4666666666598758, 3.4902777777269876, "0x1.6ce8d1b11535ap+0", 58, 21, "vertex"),
        ],
        ("random", 720): [
            (3.1333333332877373, 2.829166666625497, "0x1.44848d30ab3e9p+0", 33, 9, "vertex"),
            (3.1499999999541615, 2.829166666625497, "0x1.44848d30ab3eap+0", 45, 15, "vertex"),
            (3.1333333332877373, 2.837499999958709, "0x1.44848d30ab3eap+0", 45, 15, "vertex"),
            (3.1666666666205856, 2.820833333292285, "0x1.44848d30ab3eap+0", 39, 12, "vertex"),
            (3.116666666621313, 2.829166666625497, "0x1.44848d30ab3e9p+0", 51, 18, "vertex"),
        ],
    }

    # (u.x, u.y, v.x, v.y) of each argmin_orbit representative at grid 360
    REPRESENTATIVES = {
        6: [
            ("0x1.0000000000000p+0", "0x0.0p+0",
             "0x1.c000000000000p-52", "0x1.bb67ae8584caap-1"),
            ("0x1.aaaaaaaaaaaacp-1", "0x1.279a745903317p-2",
             "-0x1.5555555555548p-3", "0x1.bb67ae8584cabp-1"),
        ],
        8: [
            ("0x1.0000000000000p+0", "0x0.0p+0",
             "0x1.1a62633145c07p-54", "0x1.0000000000000p+0"),
            ("0x1.b504f333f9de6p-1", "0x1.6a09e667f3bccp-2",
             "-0x1.6a09e667f3bccp-2", "0x1.b504f333f9de6p-1"),
        ],
    }

    @pytest.mark.parametrize("name, grid", list(STARTS))
    def test_descent_records(self, name, grid):
        if name == "random":
            gon = random_central_polygon(np.random.default_rng(720), 6)
        else:
            gon = regular_polygon(int(name[1:]))
        records = [
            (r.t1, r.s, r.value.hex(), r.sweeps, r.moves, r.stop)
            for r in bm_distance(gon, grid=grid).starts
        ]
        assert records == self.STARTS[name, grid]

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
        reason="ROADMAP item 3: at grid 91 every descent from the scan's local "
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
        # the best descent of bm_distance starts from a cell that is not a
        # local minimum of the grid here
        gon = random_central_polygon(np.random.default_rng(seed), m)
        result = bm_distance(gon, grid=grid)
        reps = argmin_orbit(gon, result)
        assert len(reps) >= 1
        assert min(circum_ratio(p, gon) for p in reps) <= result.lam + 1e-4

    @pytest.mark.parametrize("seed, low, high, grid", [(3, 3, 13, 360), (116, 2, 11, 90)])
    def test_every_class_is_optimal(self, seed, low, high, grid):
        # local minima a little above the optimum (a kink at a vertex, a
        # slow descent) are not classes of optimal positions
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
        x, y = gon.edges[:2]
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
        real = geom._scaled
        monkeypatch.setattr(geom, "_scaled", lambda *rows: calls.append(rows) or real(*rows))
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
    def test_descents_converge(self, m):
        rng = np.random.default_rng(m)
        gon = spread_central_polygon(rng, m)
        assert len(gon.vertices) == 2 * m
        result = bm_distance(gon, grid=360)
        assert len(result.starts) == DEFAULT_SETTINGS.starts
        assert all(r.stop == "vertex" for r in result.starts)
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
