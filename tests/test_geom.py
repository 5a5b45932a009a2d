import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_central_polygon, random_linear_map
from bmgon.geom import (
    CentralPolygon,
    Strip,
    Vec2,
    apply_linear,
    boundary_crossing,
    boundary_projection,
    boundary_point,
    format_polygon,
    line_intersection,
    linear_image,
    parse_polygon,
    polygon_gauge,
    polygon_symmetries,
    regular_polygon,
    strip_ratios,
    transversal_ratio,
)
from bmgon.cli import suite_lemma

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

    @pytest.mark.parametrize("radius", [1e-3, 1.0, 1e8])
    def test_rejects_a_relative_mirror_residue_of_1e_6_at_every_scale(self, radius):
        verts = [Vec2(1.0, 0.0), Vec2(0.0, 1.0), Vec2(-1.0, 1e-6), Vec2(0.0, -1.0)]
        with pytest.raises(ValueError, match="central symmetry violated"):
            CentralPolygon([v * radius for v in verts])

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


def _vertex_boundary_point(verts, t):
    """``boundary_point`` read from Vec2 vertices, as it was before the
    boundary table: the reference the table must match bit for bit."""
    n = len(verts)
    t = t % n
    if t >= n:
        t = 0.0
    i = int(t)
    f = t - i
    a, b = verts[i], verts[(i + 1) % n]
    return Vec2(a.x + f * (b.x - a.x), a.y + f * (b.y - a.y))


def _vertex_edges(verts):
    """(a, b, outward normal, offset) per edge, from Vec2 vertices; the
    two functions below read them as they read a fresh list per call
    before the boundary table."""
    n = len(verts)
    edges = []
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        e = b - a
        normal = Vec2(e.y, -e.x)
        edges.append((a, b, normal, normal.dot(a)))
    return edges


def _vertex_gauge(edges, point):
    """``polygon_gauge`` from Vec2 edges, as before the boundary table."""
    return max(normal.dot(point) / offset for _, _, normal, offset in edges)


def _vertex_projection(edges, point):
    """``boundary_projection`` from Vec2 edges, as before the boundary
    table."""
    n = len(edges)
    best = (0.0, math.inf)
    for i, (a, b, _, _) in enumerate(edges):
        e = b - a
        f = min(1.0, max(0.0, (point - a).dot(e) / e.dot(e)))
        d = (point - (a + e * f)).norm()
        if d < best[1]:
            best = ((i + f) % n, d)
    return best


def _table_cases(scale):
    """(polygon, reference vertices) for P4-P64, 60 seeded random polygons
    and one polygon given np.float64 coordinates, as perfbench builds its
    inputs, all scaled by ``scale``.  The reference vertices are the ones
    passed in, so the np.float64 case checks the floats of a polygon that
    kept its numpy coordinates."""
    rng = np.random.default_rng(23)
    gons = [regular_polygon(n) for n in range(4, 66, 2)]
    gons += [random_central_polygon(rng) for _ in range(60)]
    vertex_lists = [[v * scale for v in gon.vertices] for gon in gons]
    float64 = random_central_polygon(rng, 7).vertices
    vertex_lists.append([Vec2(np.float64(v.x), np.float64(v.y)) * scale for v in float64])
    return [(CentralPolygon(verts), verts) for verts in vertex_lists]


def _hex(*xs):
    return tuple(float(x).hex() for x in xs)


class TestBoundary:
    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_the_table_holds_each_vertex_and_its_edge(self, scale):
        for gon, verts in _table_cases(scale):
            x, y, dx, dy = gon.edges
            n = len(verts)
            for column in gon.edges:
                assert len(column) == n and all(type(c) is float for c in column)
            for i, (v, w) in enumerate(zip(verts, verts[1:] + verts[:1])):
                assert (x[i], y[i]) == (v.x, v.y)
                assert (dx[i], dy[i]) == (w.x - v.x, w.y - v.y)

    def test_the_table_cannot_be_assigned(self, p6):
        with pytest.raises(AttributeError):
            p6.edges = p6.edges

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_the_boundary_readers_match_the_vertex_forms_bit_for_bit(self, scale):
        rng = np.random.default_rng(41)
        for gon, verts in _table_cases(scale):
            n = len(verts)
            ts = [*rng.uniform(-n, 2.0 * n, size=200).tolist(), *map(float, range(-1, n + 2))]
            boundary = [_vertex_boundary_point(verts, t) for t in ts]
            assert [_hex(*boundary_point(gon, t)) for t in ts] == [_hex(*p) for p in boundary]
            spread = rng.normal(scale=2.0 * gon.radius, size=(100, 2)).tolist()
            points = boundary[:100] + [Vec2(px, py) for px, py in spread]
            edges = _vertex_edges(verts)
            for p in points:
                assert _hex(polygon_gauge(gon, p)) == _hex(_vertex_gauge(edges, p))
                assert _hex(*boundary_projection(gon, p)) == _hex(*_vertex_projection(edges, p))

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
        assert boundary_projection(p4, Vec2(1.0, 0.0))[1] == 0.0
        assert abs(boundary_projection(p4, Vec2(0.0, 0.0))[1] - math.sqrt(0.5)) < 1e-15

    def test_boundary_projection_examples(self, p6):
        assert boundary_projection(p6, Vec2(2.0, 0.0)) == (0.0, 1.0)
        t, d = boundary_projection(p6, Vec2(0.0, SQRT3))
        assert abs(t - 1.5) < 1e-15 and abs(d - SQRT3 / 2.0) < 1e-15
        # the centre of this square is exactly as near every edge; the
        # first edge wins
        diamond = CentralPolygon([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)])
        assert boundary_projection(diamond, Vec2(0.0, 0.0)) == (0.5, math.sqrt(0.5))

    @staticmethod
    def _projection_round_trip_gap(gon, ts):
        """Largest |t' - t mod n| over the parameters, t' read back from
        the boundary point at t, in units of n."""
        n = len(gon.vertices)
        return max(abs(boundary_projection(gon, boundary_point(gon, t))[0] - t % n) for t in ts) / n

    @staticmethod
    def _assert_the_period_wraps_to_0(gon):
        """t = n reads back as 0, and points a few ulps before vertex 0
        on the last edge read back in [0, n), next to 0."""
        n = len(gon.vertices)
        assert boundary_projection(gon, boundary_point(gon, float(n)))[0] == 0.0
        last, first = gon.vertices[-1], gon.vertices[0]
        for k in (51, 52, 53):
            t = boundary_projection(gon, last + (first - last) * (1.0 - 2.0**-k))[0]
            assert 0.0 <= t < n and min(t, n - t) <= 1e-15 * n

    @pytest.mark.parametrize("n", range(4, 26, 2))
    def test_projection_inverts_boundary_point_on_regular_polygons(self, n):
        gon = regular_polygon(n)
        ts = [n * i / 997.0 for i in range(997)] + [float(i) for i in range(n)]
        assert self._projection_round_trip_gap(gon, ts) <= 1e-15
        self._assert_the_period_wraps_to_0(gon)

    def test_projection_inverts_boundary_point_on_random_polygons(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            gon = random_central_polygon(rng)
            n = len(gon.vertices)
            ts = [*rng.uniform(0.0, n, size=50).tolist(), *map(float, range(n))]
            assert self._projection_round_trip_gap(gon, ts) <= 1e-15
            self._assert_the_period_wraps_to_0(gon)

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6, None])
    def test_projection_parameter_is_kept_by_orientation_preserving_maps(self, scale):
        # such a map keeps the vertex order, so the image of the boundary
        # point at t is the image's boundary point at t; None draws
        # random maps, with two rows swapped where the determinant is negative
        rng = np.random.default_rng(9)
        for gon in [regular_polygon(n) for n in (4, 6, 10, 16)] + [
            random_central_polygon(rng) for _ in range(10)
        ]:
            if scale is None:
                (a, b), (c, d) = random_linear_map(rng)
                mat = [[a, b], [c, d]] if a * d - b * c > 0.0 else [[c, d], [a, b]]
            else:
                mat = [[scale, 0.0], [0.0, scale]]
            image = linear_image(gon, mat)
            n = len(gon.vertices)
            for t in (n * i / 37.0 for i in range(37)):
                p = boundary_point(gon, t)
                t0 = boundary_projection(gon, p)[0]
                assert abs(boundary_projection(image, apply_linear(mat, p))[0] - t0) <= 1e-12


class TestTransversalRatio:
    def test_matches_width_ratio(self):
        inner = Strip(Vec2(0.0, 1.0), 1.0)
        outer = Strip(Vec2(0.0, 1.0), 2.5)
        wr, cr = transversal_ratio(inner, outer, Vec2(1.0, 1.0))
        assert wr == 2.5
        assert abs(cr - 2.5) < 1e-15

    @staticmethod
    def _scalar_lemma(seed):
        """Largest ratio gap over 1000 seeded instances, one instance and
        one scalar draw at a time."""
        rng = np.random.default_rng(seed)
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
        return worst

    def test_identity_over_seeded_instances(self):
        assert self._scalar_lemma(0) <= 1e-10

    # seed 6490 draws phi again at instance 43, which shifts every later draw
    @pytest.mark.parametrize("seed", [*range(20), 6490])
    def test_the_lemma_suite_equals_the_scalar_loop(self, seed):
        (claim,) = suite_lemma(seed)
        assert claim.computed == self._scalar_lemma(seed)

    def test_strip_ratios_on_arrays_equal_the_scalar_form(self):
        rng = np.random.default_rng(3)
        nx, ny, inner, outer, dx, dy = rng.uniform(0.1, 1.0, (6, 50))
        arrays = strip_ratios(nx, ny, inner, outer, dx, dy)
        for i in range(50):
            scalar = strip_ratios(*(float(a[i]) for a in (nx, ny, inner, outer, dx, dy)))
            assert (arrays[0][i], arrays[1][i]) == scalar

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

    @pytest.mark.parametrize("scale", [1e-7, 1e8])
    def test_linear_image_accepts_a_uniform_scaling(self, p6, scale):
        # the singularity test is relative to the map's entries, so a
        # tiny or huge multiple of the identity is not singular
        image = linear_image(p6, [[scale, 0.0], [0.0, scale]])
        assert image.vertices == CentralPolygon([v * scale for v in p6.vertices]).vertices

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
