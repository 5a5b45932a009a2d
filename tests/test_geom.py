import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_central_polygon
from bmgon.geom import (
    CentralPolygon,
    Strip,
    Vec2,
    apply_linear,
    boundary_crossing,
    boundary_distance,
    boundary_point,
    format_polygon,
    line_intersection,
    linear_image,
    parse_polygon,
    polygon_gauge,
    polygon_symmetries,
    regular_polygon,
    transversal_ratio,
)

SQRT3 = math.sqrt(3.0)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
nonzero = finite.filter(lambda x: abs(x) > 1e-6)


class TestVec2:
    def test_arithmetic(self):
        a, b = Vec2(1.0, 2.0), Vec2(-3.0, 0.5)
        assert a + b == Vec2(-2.0, 2.5)
        assert a - b == Vec2(4.0, 1.5)
        assert -a == Vec2(-1.0, -2.0)
        assert 2.0 * a == a * 2.0 == Vec2(2.0, 4.0)
        assert a.dot(b) == -2.0
        assert a.cross(b) == 1.0 * 0.5 - 2.0 * (-3.0)
        assert a.perp() == Vec2(-2.0, 1.0)
        assert Vec2(3.0, 4.0).norm() == 5.0
        assert tuple(a) == (1.0, 2.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Vec2(math.nan, 0.0)
        with pytest.raises(ValueError):
            Vec2(0.0, math.inf)

    def test_normalized(self):
        u = Vec2(3.0, -4.0).normalized()
        assert abs(u.norm() - 1.0) < 1e-15
        with pytest.raises(ValueError):
            Vec2(0.0, 0.0).normalized()

    @given(finite, finite, finite, finite)
    def test_cross_antisymmetric(self, ax, ay, bx, by):
        a, b = Vec2(ax, ay), Vec2(bx, by)
        assert a.cross(b) == -b.cross(a)


class TestCentralPolygon:
    def test_regular_polygon_layout(self):
        gon = regular_polygon(6)
        assert len(gon.vertices) == 6
        assert gon.vertices[0] == Vec2(1.0, 0.0)
        assert all(abs(v.norm() - 1.0) < 1e-15 for v in gon.vertices)
        assert gon.m == 3

    def test_regular_polygon_rejects_bad_n(self):
        for n in (7, 2, 0, -4):
            with pytest.raises(ValueError):
                regular_polygon(n)

    def test_antipodes_are_exact(self):
        gon = regular_polygon(10)
        for i in range(5):
            assert gon.vertices[i + 5] == -gon.vertices[i]

    def test_rejects_asymmetric(self):
        verts = [Vec2(1.0, 0.0), Vec2(0.0, 1.0), Vec2(-1.0, 1e-6), Vec2(0.0, -1.0)]
        with pytest.raises(ValueError, match="symmetr"):
            CentralPolygon(verts)

    def test_rejects_nonconvex(self):
        verts = [
            Vec2(1.0, 0.0),
            Vec2(0.2, 0.05),
            Vec2(0.0, 1.0),
            Vec2(-1.0, 0.0),
            Vec2(-0.2, -0.05),
            Vec2(0.0, -1.0),
        ]
        with pytest.raises(ValueError, match="convex"):
            CentralPolygon(verts)

    def test_rejects_clockwise(self):
        gon = regular_polygon(6)
        with pytest.raises(ValueError):
            CentralPolygon(list(reversed(gon.vertices)))

    def test_rejects_odd_count(self):
        with pytest.raises(ValueError):
            CentralPolygon([Vec2(1.0, 0.0), Vec2(0.0, 1.0), Vec2(-1.0, 0.0)])

    def test_random_generator_produces_valid_polygons(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            gon = random_central_polygon(rng)
            assert len(gon.vertices) >= 4


class TestSupportAndStrips:
    def test_strip_validation(self):
        with pytest.raises(ValueError):
            Strip(Vec2(1.0, 1.0), 1.0)
        with pytest.raises(ValueError):
            Strip(Vec2(1.0, 0.0), 0.0)


class TestBoundary:
    def test_boundary_point_examples(self, p6):
        assert boundary_point(p6, 0.0) == p6.vertices[0]
        q = boundary_point(p6, 1.5)
        assert abs(q.x) < 1e-15 and abs(q.y - SQRT3 / 2.0) < 1e-15
        assert boundary_point(p6, 6.0) == p6.vertices[0]
        assert boundary_point(p6, -1.0) == boundary_point(p6, 5.0)

    @given(st.floats(min_value=0.0, max_value=6.0))
    def test_antipode_law(self, t):
        p6 = regular_polygon(6)
        a = boundary_point(p6, t)
        b = boundary_point(p6, t + 3.0)
        assert (a + b).norm() < 1e-12

    @given(st.floats(min_value=0.0, max_value=8.0))
    def test_boundary_point_has_unit_gauge(self, t):
        p8 = regular_polygon(8)
        assert abs(polygon_gauge(p8, boundary_point(p8, t)) - 1.0) < 1e-12

    def test_boundary_crossing(self, p6):
        assert boundary_crossing(p6, Vec2(2.0, 0.0)) == Vec2(1.0, 0.0)
        q = boundary_crossing(p6, Vec2(0.0, -3.0))
        assert abs(q.y + SQRT3 / 2.0) < 1e-15
        with pytest.raises(ValueError):
            boundary_crossing(p6, Vec2(0.0, 0.0))

    def test_boundary_distance(self, p4):
        assert boundary_distance(p4, Vec2(1.0, 0.0)) == 0.0
        assert abs(boundary_distance(p4, Vec2(0.0, 0.0)) - math.sqrt(0.5)) < 1e-15


class TestTransversalRatio:
    def test_matches_width_ratio(self):
        inner = Strip(Vec2(0.0, 1.0), 1.0)
        outer = Strip(Vec2(0.0, 1.0), 2.5)
        wr, cr = transversal_ratio(inner, outer, Vec2(1.0, 1.0))
        assert wr == 2.5
        assert abs(cr - 2.5) < 1e-15

    def test_identity_over_seeded_instances(self):
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
        assert worst <= 1e-10

    def test_error_cases(self):
        flat = Strip(Vec2(0.0, 1.0), 1.0)
        with pytest.raises(ValueError, match="parallel"):
            transversal_ratio(flat, Strip(Vec2(1.0, 0.0), 2.0), Vec2(1.0, 1.0))
        with pytest.raises(ValueError, match="contained"):
            transversal_ratio(Strip(Vec2(0.0, 1.0), 3.0), flat, Vec2(1.0, 1.0))
        with pytest.raises(ValueError, match="transversal"):
            transversal_ratio(flat, Strip(Vec2(0.0, 1.0), 2.0), Vec2(1.0, 0.0))


class TestLinearMaps:
    def test_line_intersection(self):
        p = line_intersection(Vec2(0.0, 0.0), Vec2(1.0, 1.0), Vec2(2.0, 0.0), Vec2(0.0, 1.0))
        assert p == Vec2(2.0, 2.0)
        with pytest.raises(ValueError):
            line_intersection(Vec2(0.0, 0.0), Vec2(1.0, 0.0), Vec2(0.0, 1.0), Vec2(2.0, 0.0))

    def test_apply_linear(self):
        assert apply_linear([[0.0, -1.0], [1.0, 0.0]], Vec2(1.0, 2.0)) == Vec2(-2.0, 1.0)

    def test_linear_image_preserves_validity(self, p6):
        image = linear_image(p6, [[2.0, 1.0], [0.0, 1.0]])
        assert len(image.vertices) == 6

    def test_linear_image_handles_reflections(self, p6):
        image = linear_image(p6, [[1.0, 0.0], [0.0, -1.0]])
        assert len(image.vertices) == 6

    def test_linear_image_rejects_singular(self, p6):
        with pytest.raises(ValueError):
            linear_image(p6, [[1.0, 2.0], [2.0, 4.0]])

    def test_symmetry_group_sizes(self, p6, p8):
        assert len(polygon_symmetries(p6)) == 12
        assert len(polygon_symmetries(p8)) == 16

    def test_random_polygon_has_at_least_point_symmetry(self):
        def flat(mat):
            (a, b), (c, d) = mat
            return (a, b, c, d)

        rng = np.random.default_rng(3)
        gon = random_central_polygon(rng, m=4)
        maps = polygon_symmetries(gon)
        assert len(maps) >= 2
        found = {tuple(round(x, 6) for x in flat(mat)) for mat in maps}
        assert (1.0, 0.0, 0.0, 1.0) in found
        assert (-1.0, 0.0, 0.0, -1.0) in found

    def test_symmetry_maps_fix_vertex_set(self, p6):
        for mat in polygon_symmetries(p6):
            for v in p6.vertices:
                w = apply_linear(mat, v)
                assert min((w - x).norm() for x in p6.vertices) < 1e-9


class TestPolygonIO:
    def test_format_parse_roundtrip(self, p6):
        again = parse_polygon(format_polygon(p6))
        assert again.vertices == p6.vertices

    def test_format_first_line(self, p6):
        assert format_polygon(p6).splitlines()[0] == "1,0"

    def test_roundtrip_random(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            gon = random_central_polygon(rng)
            again = parse_polygon(format_polygon(gon))
            assert again.vertices == gon.vertices

    def test_parse_blank_lines_ignored(self):
        text = "1,0\n\n0,1\n-1,0\n\n0,-1\n"
        assert len(parse_polygon(text).vertices) == 4

    def test_parse_bad_token_reports_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_polygon("1,0\nnope\n-1,0\n0,-1\n")

    def test_parse_enforces_polygon_invariants(self):
        with pytest.raises(ValueError):
            parse_polygon("1,0\n0,1\n")
