import math

import numpy as np
import pytest

from conftest import random_central_polygon, random_linear_map
from bmgon.geom import (
    CentralPolygon,
    apply_linear,
    boundary_point,
    linear_image,
    polygon_symmetries,
    regular_polygon,
)
from bmgon.cli import Claim
from bmgon.evengon import theorem2_value
from bmgon import oracle
from bmgon.oracle import (
    DEFAULT_SETTINGS,
    SearchSettings,
    _local_minima_mask,
    _lowest_cells,
    _make_objective,
    _rotation_step,
    argmin_orbit,
    bm_distance,
    grid_scan,
)
from bmgon.pgram import Parallelogram, circum_ratio, gauge, vertex_hausdorff

SQRT2 = math.sqrt(2.0)


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
            assert float(np.min(f[np.isfinite(f)])) >= 1.5 - 1e-6

    def test_square_floor(self, p4):
        _, _, f = grid_scan(p4, 120)
        assert float(np.min(f[np.isfinite(f)])) >= 1.0 - 1e-9

    def test_rejects_tiny_grid(self, p6):
        with pytest.raises(ValueError):
            grid_scan(p6, 7)

    @pytest.mark.parametrize("grid", [64, 45])
    def test_fundamental_domain_matches_the_scalar_objective(self, grid):
        half = (grid + 1) // 2
        rng = np.random.default_rng(grid)
        # (polygon, rotation step): regular polygons turn by one vertex,
        # a random polygon only by the point reflection
        cases = [(regular_polygon(6), 1), (regular_polygon(10), 1), (random_central_polygon(rng, m=5), 5)]
        for gon, k in cases:
            m = len(gon.vertices) // 2
            assert _rotation_step(gon) == k
            rows = (k * grid + 2 * m - 1) // (2 * m)
            t1, s, f = grid_scan(gon, grid)
            assert t1.shape == (rows,) and s.shape == (half,) and f.shape == (rows, half)
            assert (t1 < k).all()
            # an odd grid's middle s value is m/2 up to one rounding
            assert (s <= np.nextafter(m / 2.0, np.inf)).all()
            objective, _, _ = _make_objective(gon)
            for i, j in zip(rng.integers(0, rows, 50), rng.integers(0, half, 50)):
                expected = objective(float(t1[i]), float(s[j]))
                assert math.isclose(f[i, j], expected, rel_tol=1e-12), (i, j)


class TestObjective:
    def test_fused_objective_is_the_largest_sheet_bit_for_bit(self):
        rng = np.random.default_rng(2000)
        margin = DEFAULT_SETTINGS.margin
        for gon in (regular_polygon(6), regular_polygon(50), random_central_polygon(rng, m=7)):
            m = len(gon.vertices) // 2
            objective, sheets, _ = _make_objective(gon)
            # t1 well outside [0, 2m) and s outside [margin, m - margin]
            t1s = rng.uniform(-3.0 * m, 5.0 * m, 2000)
            ss = rng.uniform(-0.5, m + 0.5, 2000)
            assert (t1s < 0).any() and (t1s >= 2 * m).any()
            assert (ss < margin).any() and (ss > m - margin).any()
            for t1, s in zip(t1s.tolist(), ss.tolist()):
                values = sheets(t1, s)
                assert objective(t1, s) == max(values), (t1, s)
                i, j = (int(x) for x in rng.integers(0, m, 2))
                assert sheets(t1, s, (i, j)) == [values[i], values[j]]


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

    def test_refinement_washes_out_grid_resolution(self, p6):
        refined = [bm_distance(p6, grid=g).lam for g in (45, 90, 180, 360)]
        assert all(abs(lam - 1.5) <= 1e-9 for lam in refined)

    def test_doubling_the_grid_never_worsens_refined_results(self):
        for n in (6, 10):
            gon = regular_polygon(n)
            values = [bm_distance(gon, grid=g).lam for g in (90, 180, 360)]
            for coarse, fine in zip(values, values[1:]):
                assert fine <= coarse + 1e-9

    def test_refinement_never_worsens_the_grid(self, p8):
        raw = bm_distance(p8, grid=90, refine=False)
        polished = bm_distance(p8, grid=90)
        assert polished.lam <= raw.lam + 1e-12

    def test_unrefined_flag(self, p6):
        result = bm_distance(p6, grid=90, refine=False)
        assert result.refined is False
        assert result.grid_resolution == 90

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
            assert record.stop == "step_tol" and record.sweeps >= 1
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
            assert _rotation_step(gon) == k
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
                    vertex_hausdorff(
                        Parallelogram.from_unordered(apply_linear(mat, p.u), apply_linear(mat, p.v)), q
                    )
                    <= tol
                    for mat in rotations
                )

            for x, a in enumerate(descended):
                for b in descended[x + 1 :]:
                    assert not is_rotated_copy(a, b), (a, b)

            # (c) the identity the cut to t1 in [0, k) relies on
            objective, _, _ = _make_objective(gon)
            for t1, s in zip(rng.uniform(0.0, 2.0 * m, 200), rng.uniform(0.02 * m, 0.98 * m, 200)):
                base = objective(t1, s)
                assert math.isclose(objective(t1 + k, s), base, rel_tol=1e-12), (t1, s)

    def test_lambda_matches_the_closed_form(self):
        rng = np.random.default_rng(12)
        for n in (6, 8, 12, 16, 20, 24):
            claimed = theorem2_value(n).value
            gon = regular_polygon(n)
            for poly in (gon, linear_image(gon, random_linear_map(rng))):
                for grid in (90, 360, 720):
                    lam = bm_distance(poly, grid=grid).lam
                    assert abs(lam - claimed) <= 1e-12, (n, grid, lam - claimed)

    def test_running_out_of_sweeps_is_reported(self, p6, monkeypatch):
        monkeypatch.setattr(oracle, "DEFAULT_SETTINGS", SearchSettings(max_sweeps=2))
        result = bm_distance(p6, grid=90)
        assert result.starts
        assert all(r.stop == "max_sweeps" and r.sweeps == 2 for r in result.starts)

    def test_unrefined_result_has_no_descents(self, p6):
        assert bm_distance(p6, grid=90, refine=False).starts == ()


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
            assert (_rotation_step(gon) * grid) % (2 * m) != 0
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

    def test_representatives_are_distinct_classes(self, p6):
        from bmgon.geom import apply_linear, polygon_symmetries
        from bmgon.pgram import Parallelogram

        result = bm_distance(p6, grid=360)
        reps = argmin_orbit(p6, result)
        maps = polygon_symmetries(p6)
        a, b = reps
        images = [
            Parallelogram.from_unordered(apply_linear(m, a.u), apply_linear(m, a.v))
            for m in maps
        ]
        assert all(vertex_hausdorff(b, img) > 1e-5 for img in images)


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
            assert _rotation_step(scaled) == 1

    def test_large_hexagon_has_two_classes(self, p6):
        gon = self._scaled(p6, 1e8)
        result = bm_distance(gon, grid=360)
        assert len(argmin_orbit(gon, result)) == 2

    @pytest.mark.parametrize("factor", [1e-5, 1.0, 1e8])
    def test_a_nearly_regular_hexagon_keeps_only_its_own_maps(self, p6, factor):
        # push the antipodal pair v0, v3 outward by 1e-6 of its norm
        verts = list(p6.vertices)
        verts[0] = verts[0] * (1.0 + 1e-6)
        verts[3] = -verts[0]
        gon = self._scaled(CentralPolygon(verts), factor)
        maps = polygon_symmetries(gon)
        # identity, point reflection, and the reflections through the
        # pushed pair's axis and its perpendicular: v_i -> v_(k + step*i)
        assert len(maps) == 4
        verts = gon.vertices
        for mat, (k, step) in zip(maps, [(0, 1), (0, -1), (3, 1), (3, -1)]):
            for i, v in enumerate(verts):
                image = apply_linear(mat, v)
                assert (image - verts[(k + step * i) % 6]).norm() <= 1e-12 * factor
        assert _rotation_step(gon) == 3


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

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            Claim("P6", 1.5, 1.5, 1e-6, "lower_bound")
