import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_central_polygon, random_linear_map, star_vertices
from bmgon.geom import (
    SYMMETRY_TOL,
    CentralPolygon,
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
)
from bmgon.cli import suite_lemma
from bmgon.oracle import bm_distance

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


def _vertex_polygon(vertices):
    """``CentralPolygon``'s checks and fields computed on Vec2s, as the
    constructor did before its checks read the float table: the reference
    it must match bit for bit, error messages included.  Returns
    (vertices, (x, y, dx, dy), radius)."""
    verts = [Vec2(float(x), float(y)) for x, y in vertices]
    n = len(verts)
    if n < 4 or n % 2 != 0:
        raise ValueError(f"vertex count must be even and at least 4, got {n}")
    m = n // 2
    for i, v in enumerate(verts):
        if v.norm() == math.inf:
            raise ValueError(f"vertex {i} ({v.x}, {v.y}) has a norm above the largest float")
    bound = SYMMETRY_TOL * max(map(Vec2.norm, verts))
    for i in range(m):
        a, b = verts[i], verts[i + m]
        if abs(a.x + b.x) > bound or abs(a.y + b.y) > bound:
            raise ValueError(
                f"central symmetry violated: vertex {i + m} is not the "
                f"negation of vertex {i} within {SYMMETRY_TOL} of the largest vertex norm"
            )
    verts = verts[:m] + [-v for v in verts[:m]]
    for i in range(n):
        a, b, c = verts[i], verts[(i + 1) % n], verts[(i + 2) % n]
        if (b - a).cross(c - b) <= 0.0:
            raise ValueError(
                f"vertices are not in strictly convex counterclockwise "
                f"position (turn at vertex {(i + 1) % n} is not left)"
            )
    for i in range(n):
        if verts[i].cross(verts[(i + 1) % n]) <= 0.0:
            raise ValueError("origin is not strictly interior")
    x, y = [v.x for v in verts], [v.y for v in verts]
    dx = [b - a for a, b in zip(x, x[1:] + x[:1])]
    dy = [b - a for a, b in zip(y, y[1:] + y[:1])]
    return tuple(verts), (x, y, dx, dy), max(map(Vec2.norm, verts[:m]))


def _outcome(build, vertices):
    """(vertices, (x, y, dx, dy), radius) in float.hex, or the error raised."""
    try:
        verts, table, radius = build(vertices)
    except (TypeError, ValueError) as err:
        return type(err), str(err)
    hexed = tuple(_hex(*v) for v in verts)
    return hexed, tuple(_hex(*column) for column in table), _hex(radius)


def _coordinate_table(gon):
    """The boundary table's columns times 2**e, which must be the
    vertices' coordinates and edge deltas."""
    e, *columns = gon.boundary
    return tuple([math.ldexp(a, e) for a in column] for column in columns)


def _polygon_fields(vertices):
    gon = CentralPolygon(vertices)
    return gon.vertices, _coordinate_table(gon), gon.radius


# every turn is left, but the edge from (-1, -0.2) to (1, 1) passes the
# origin on its right
_LEFT_TURNS_ROUND_THE_ORIGIN = [(2.0, 0.0), (-1.0, 1.0), (-1.0, -0.2), (1.0, 1.0)]
_LEFT_TURNS_ROUND_THE_ORIGIN += [(-x, -y) for x, y in _LEFT_TURNS_ROUND_THE_ORIGIN]


def _invalid_vertex_lists():
    """Inputs that each fail one check of the constructor, by the start
    of the message that check raises.  The Vec2 forms predate the winding
    check, so the star polygons it rejects are tested on their own."""
    square = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]
    hexagon = [tuple(v) for v in regular_polygon(6).vertices]
    residue = [(1.0, 0.0), (0.0, 1.0), (-1.0, 1e-6), (0.0, -1.0)]
    turn = "vertices are not in strictly convex counterclockwise position"
    wide = [(1.7e308, 0.0), (1.3e308, 1.326e308), (0.0, 1.7e308), (-1.3e308, 1.274e308)]
    return {
        "non-finite coordinates": [
            [(math.nan, 0.0), *square[1:]],
            [*square[:3], (0.0, -math.inf)],
            # the first bad vertex decides, before the count is known
            [(math.inf, 0.0), ("x", 1.0), (-1.0, 0.0)],
            # finite vertices whose edge delta overflows
            [(1e308, 0.0), (-1e308, 1e-300), (-1e308, 0.0), (1e308, -1e-300)],
        ],
        "vertex count must be even": [square[:3], hexagon[:5], []],
        # finite coordinates, but |vertex 1| = 1.857e308, and the mirror
        # tolerance and symmetry_map's bound would scale an infinite radius
        "vertex 1 (1.3e+308, 1.326e+308) has a norm above the largest float": [
            [*wide, *((-x, -y) for x, y in wide)],
        ],
        "central symmetry violated": [residue, [(x * 1e8, y * 1e8) for x, y in residue]],
        # clockwise, a reflex vertex and a straight angle
        f"{turn} (turn at vertex 1 ": [
            hexagon[::-1],
            square[::-1],
            [(1.0, 0.0), (0.2, 0.05), (0.0, 1.0), (-1.0, 0.0), (-0.2, -0.05), (0.0, -1.0)],
            [(1.0, 0.0), (0.5, 0.5), (0.0, 1.0), (-1.0, 0.0), (-0.5, -0.5), (0.0, -1.0)],
        ],
        "origin is not strictly interior": [_LEFT_TURNS_ROUND_THE_ORIGIN],
        "could not convert": [[("x", 1.0), (math.inf, 0.0)]],
        "too many values to unpack": [[(1.0, 0.0, 0.0)] * 4],
        "cannot unpack": [[1.0, 2.0, 3.0, 4.0]],
    }


class TestConstructorChecks:
    """The constructor's checks run on the float table; the Vec2 forms
    above are the reference for every field and every error."""

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_fields_match_the_vec2_checks_bit_for_bit(self, scale):
        rng = np.random.default_rng(59)
        gons = [regular_polygon(n) for n in range(4, 66, 2)]
        gons += [random_central_polygon(rng) for _ in range(60)]
        gons += [linear_image(gon, random_linear_map(rng)) for gon in gons[-60:]]
        for gon in gons:
            verts = [(v.x * scale, v.y * scale) for v in gon.vertices]
            assert _outcome(_polygon_fields, verts) == _outcome(_vertex_polygon, verts), gon

    @pytest.mark.parametrize("message", list(_invalid_vertex_lists()))
    def test_each_invalid_input_raises_the_vec2_error(self, message):
        for verts in _invalid_vertex_lists()[message]:
            expected = _outcome(_vertex_polygon, verts)
            assert expected[1].startswith(message), (expected, verts)
            assert _outcome(_polygon_fields, verts) == expected, verts

    @pytest.mark.parametrize("scale", [1e-170, 1.0, 1e200])
    def test_rejects_collinear_vertices_at_every_scale(self, scale):
        # at 1e200 every turn is inf - inf = nan unscaled, and at 1e-170
        # every product underflows to 0
        verts = [(scale * a, scale * a) for a in (1.0, 2.0, -1.0, -2.0)]
        with pytest.raises(ValueError, match="not in strictly convex counterclockwise position"):
            CentralPolygon(verts)

    @pytest.mark.parametrize("scale", [1e-170, 1e-162, 1e154, 1e200])
    def test_accepts_a_regular_polygon_at_every_scale(self, scale):
        # unscaled, the turns of P6 underflow to 0 below about 1e-162
        for n in (4, 6, 12):
            verts = [v * scale for v in regular_polygon(n).vertices]
            assert CentralPolygon(verts).vertices == tuple(verts)

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("n, k", [(10, 3), (14, 3), (14, 5), (18, 5)])
    def test_rejects_a_star_polygon_by_its_winding(self, n, k, scale):
        # the checks before the winding pass it, as the Vec2 forms show;
        # the polygons the test above accepts all wind once
        verts = star_vertices(n, k, scale)
        _vertex_polygon(verts)
        with pytest.raises(ValueError, match=f"the boundary winds {k} times around the origin"):
            CentralPolygon(verts)


# The boundary readers as they read the vertices before the boundary
# table, each operation of the Vec2 forms done elementwise in numpy over
# all points at once: the references the table must match bit for bit.
# Vec2.norm was math.hypot, which np.hypot does not always reproduce, so
# the distances still come from math.hypot.


def _vertex_arrays(verts):
    """Vertex i at (ax[i], ay[i]) and the delta to vertex i + 1 at
    (ex[i], ey[i]), taken from the vertices themselves."""
    ax, ay = np.array([v.x for v in verts]), np.array([v.y for v in verts])
    return ax, ay, np.roll(ax, -1) - ax, np.roll(ay, -1) - ay


def _vertex_boundary_points(verts, ts):
    """``boundary_point`` at each parameter, as (x, y) arrays."""
    n = len(verts)
    ax, ay, ex, ey = _vertex_arrays(verts)
    t = np.mod(np.array(ts), n)
    t[t >= n] = 0.0
    i = t.astype(np.int64)
    f = t - i
    return ax[i] + f * ex[i], ay[i] + f * ey[i]


def _vertex_gauges(verts, px, py):
    """``polygon_gauge`` at each point (px[k], py[k]): the largest
    normal . point / normal . a over the edges, with outward normal
    (ey, -ex)."""
    ax, ay, ex, ey = _vertex_arrays(verts)
    return np.max((ey * px[:, None] + -ex * py[:, None]) / (ey * ax + -ex * ay), axis=1)


def _vertex_projections(verts, px, py):
    """``boundary_projection`` of each point, as a list of (t, d); the
    first nearest edge wins."""
    n = len(verts)
    ax, ay, ex, ey = _vertex_arrays(verts)
    px, py = px[:, None], py[:, None]
    f = np.minimum(1.0, np.maximum(0.0, ((px - ax) * ex + (py - ay) * ey) / (ex * ex + ey * ey)))
    rx, ry = px - (ax + ex * f), py - (ay + ey * f)
    d = np.array(list(map(math.hypot, rx.ravel().tolist(), ry.ravel().tolist())))
    d = d.reshape(rx.shape)
    rows, i = np.arange(len(d)), np.argmin(d, axis=1)
    return [
        ((k + fk) % n, dk)
        for k, fk, dk in zip(i.tolist(), f[rows, i].tolist(), d[rows, i].tolist())
    ]


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
            e, *columns = gon.boundary
            n = len(verts)
            for column in columns:
                assert len(column) == n and all(type(c) is float for c in column)
            largest = max(abs(c) for column in columns[:2] for c in column)
            assert 0.5 <= largest < 1.0, gon
            x, y, dx, dy = _coordinate_table(gon)
            for i, (v, w) in enumerate(zip(verts, verts[1:] + verts[:1])):
                assert (x[i], y[i]) == (v.x, v.y)
                assert (dx[i], dy[i]) == (w.x - v.x, w.y - v.y)

    def test_the_table_cannot_be_assigned(self, p6):
        with pytest.raises(AttributeError):
            p6.boundary = p6.boundary

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_the_boundary_readers_match_the_vertex_forms_bit_for_bit(self, scale):
        rng = np.random.default_rng(41)
        for gon, verts in _table_cases(scale):
            n = len(verts)
            ts = [*rng.uniform(-n, 2.0 * n, size=200).tolist(), *map(float, range(-1, n + 2))]
            bx, by = _vertex_boundary_points(verts, ts)
            assert [_hex(*boundary_point(gon, t)) for t in ts] == list(map(_hex, bx, by))
            spread = rng.normal(scale=2.0 * gon.radius, size=(100, 2))
            px, py = np.concatenate([bx[:100], spread[:, 0]]), np.concatenate([by[:100], spread[:, 1]])
            points = list(map(Vec2, px.tolist(), py.tolist()))
            gauges = _vertex_gauges(verts, px, py).tolist()
            assert [_hex(polygon_gauge(gon, p)) for p in points] == list(map(_hex, gauges))
            projections = _vertex_projections(verts, px, py)
            assert [_hex(*boundary_projection(gon, p)) for p in points] == [
                _hex(*tp) for tp in projections
            ]

    @given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(-700, 1000))
    def test_the_boundary_readers_scale_exactly_by_powers_of_two(self, seed, m, k):
        # the table of 2**k P is P's but for its exponent, so each reader
        # gives P's value scaled by 2**k, at scales where the coordinates
        # themselves would overflow or underflow the readers' products
        rng = np.random.default_rng(seed)
        gon = random_central_polygon(rng, m)

        def up(p):
            return Vec2(math.ldexp(p.x, k), math.ldexp(p.y, k))

        scaled = CentralPolygon([up(v) for v in gon.vertices])
        assert scaled.boundary[1:] == gon.boundary[1:]
        n = len(gon.vertices)
        for t in rng.uniform(-n, 2.0 * n, 20).tolist():
            assert boundary_point(scaled, t) == up(boundary_point(gon, t)), t
        for q in map(Vec2, *rng.normal(scale=2.0, size=(2, 20)).tolist()):
            assert polygon_gauge(scaled, up(q)) == polygon_gauge(gon, q), q
            assert boundary_crossing(scaled, q) == up(boundary_crossing(gon, q)), q
            t, d = boundary_projection(gon, q)
            assert boundary_projection(scaled, up(q)) == (t, math.ldexp(d, k)), q

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
        d = 1.0 / math.hypot(1.0, 1.0)  # the unit direction of (1, 1) is (d, d)
        wr, cr = strip_ratios(0.0, 1.0, 1.0, 2.5, d, d)
        assert wr == 2.5
        assert abs(cr - 2.5) < 1e-15

    # the identity holds whichever side of the strips the transversal
    # leaves by, up to the 1e-6 cutoff from parallel that suite_lemma keeps
    @pytest.mark.parametrize("phi", [-math.pi / 4, 3 * math.pi / 4 + 0.1, 2e-6, math.pi - 2e-6])
    def test_matches_width_ratio_at_any_crossing_angle(self, phi):
        wr, cr = strip_ratios(0.0, 1.0, 1.0, 2.5, math.cos(phi), math.sin(phi))
        assert wr == 2.5
        assert abs(cr - 2.5) <= 1e-12

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
            norm = direction.norm()
            wr, cr = strip_ratios(
                normal.x, normal.y, inner_hw, outer_hw, direction.x / norm, direction.y / norm
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

    @pytest.mark.parametrize("scale", [1e-7, 1e8, 1e-170, 1e154, 1e200])
    def test_linear_image_accepts_a_uniform_scaling(self, p6, scale):
        # the singularity test is relative to the map's entries, so a
        # tiny or huge multiple of the identity is not singular; both
        # tests read the entries or coordinates divided by a power of two,
        # so neither overflows nor underflows at these scales.  The large
        # images get P6's value; ROADMAP item 2 covers the small ones.
        image = linear_image(p6, [[scale, 0.0], [0.0, scale]])
        assert image.vertices == CentralPolygon([v * scale for v in p6.vertices]).vertices
        if scale > 1.0:
            assert abs(bm_distance(image, grid=90).lam - 1.5) <= 1e-15

    def test_linear_image_rejects_a_singular_map_of_huge_entries(self, p6):
        # det = 1e200 * 2e200 - 2e200 * 1e200 is inf - inf = nan unscaled
        with pytest.raises(ValueError, match="linear map is singular"):
            linear_image(p6, [[1e200, 2e200], [1e200, 2e200]])

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
    def test_linear_image_rejects_a_non_finite_entry(self, p6, entry):
        with pytest.raises(ValueError, match="linear map has a non-finite entry"):
            linear_image(p6, [[1.0, 0.0], [entry, 1.0]])

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
