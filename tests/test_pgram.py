import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_central_polygon, random_linear_map
from bmgon.geom import CentralPolygon, Vec2, boundary_point, linear_image, regular_polygon
from bmgon.pgram import (
    DEGENERATE_TOL,
    Parallelogram,
    circum_ratio,
    contacts,
    gauge,
    vertex_hausdorff,
)

SQRT3 = math.sqrt(3.0)

UNIT_SQUARE = Parallelogram(Vec2(1.0, 0.0), Vec2(0.0, 1.0))

coord = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
# multiples of 2**-20 in [-1, 1]: the cross products of such vectors,
# and of their copies on unit coordinates, are exact in floats
dyadic = st.integers(-(2**20), 2**20).map(lambda a: math.ldexp(a, -20))

SCALES = [10.0**k for k in (-8, -6, -4, 0, 4, 8)]


def _scales(failing, raises):
    """``SCALES``, with a strict xfail on the scales where the absolute
    ``DEGENERATE_TOL`` decides wrongly."""
    mark = pytest.mark.xfail(
        raises=raises,
        reason="ROADMAP item 2: pgram.Parallelogram's DEGENERATE_TOL is absolute, "
        "not relative to |u|*|v|",
    )
    return [pytest.param(s, marks=mark) if s in failing else s for s in SCALES]


class TestParallelogram:
    def test_rejects_collinear_generators(self):
        with pytest.raises(ValueError):
            Parallelogram(Vec2(1.0, 1.0), Vec2(2.0, 2.0))
        with pytest.raises(ValueError):
            Parallelogram(Vec2(1.0, 0.0), Vec2(0.0, 0.0))

    def test_rejects_clockwise_pair(self):
        with pytest.raises(ValueError):
            Parallelogram(Vec2(0.0, 1.0), Vec2(1.0, 0.0))

    @pytest.mark.parametrize("s", _scales({1e-8, 1e-6}, ValueError))
    def test_a_square_is_accepted_at_any_scale(self, s):
        p = Parallelogram(Vec2(s, 0.0), Vec2(0.0, s))
        assert gauge(p, Vec2(s, s)) == 2.0

    @pytest.mark.parametrize("s", _scales({1e4, 1e8}, pytest.fail.Exception))
    def test_a_nearly_collinear_pair_is_rejected_at_any_scale(self, s):
        angle = 1e-13
        with pytest.raises(ValueError):
            Parallelogram(Vec2(s, 0.0), Vec2(s * math.cos(angle), s * math.sin(angle)))

    @pytest.mark.parametrize("s", SCALES)
    def test_the_polygon_accepts_a_square_at_any_scale(self, s):
        gon = CentralPolygon([Vec2(s, 0.0), Vec2(0.0, s), Vec2(-s, 0.0), Vec2(0.0, -s)])
        assert gon.m == 2

    def test_vertices(self):
        assert UNIT_SQUARE.vertices() == (
            Vec2(1.0, 0.0),
            Vec2(0.0, 1.0),
            Vec2(-1.0, 0.0),
            Vec2(0.0, -1.0),
        )


class TestUnitCoordinates:
    @given(dyadic, dyadic, dyadic, dyadic, dyadic, dyadic, st.integers(-600, 1020))
    def test_the_verdict_is_exact_and_the_gauge_scales_exactly(self, ux, uy, vx, vy, wx, wy, k):
        # the constructor decides on coordinates divided by a power of two,
        # yet as the exact cross product does, at scales where the
        # coordinates' own products underflow or overflow
        def at(j, x, y):
            return Vec2(math.ldexp(x, j), math.ldexp(y, j))

        u, v = at(k, ux, uy), at(k, vx, vy)
        exact = Fraction(u.x) * Fraction(v.y) - Fraction(u.y) * Fraction(v.x)
        try:
            p = Parallelogram(u, v)
        except ValueError:
            p = None
        assert (p is not None) == (exact > Fraction(DEGENERATE_TOL))
        if p is not None:
            # at 2**20 the cross product is a positive integer
            reference = Parallelogram(at(20, ux, uy), at(20, vx, vy))
            assert gauge(p, at(k, wx, wy)) == gauge(reference, at(20, wx, wy))


class TestGauge:
    def test_examples(self):
        assert gauge(UNIT_SQUARE, Vec2(1.0, 1.0)) == 2.0
        assert gauge(UNIT_SQUARE, UNIT_SQUARE.u) == 1.0
        assert gauge(UNIT_SQUARE, Vec2(0.0, 0.0)) == 0.0

    def test_skewed(self):
        p = Parallelogram(Vec2(2.0, 0.0), Vec2(1.0, 1.0))
        assert abs(gauge(p, Vec2(2.0, 1.0)) - 1.5) < 1e-15

    @given(coord, coord)
    def test_symmetric(self, x, y):
        p = Parallelogram(Vec2(2.0, 0.0), Vec2(1.0, 1.0))
        assert gauge(p, Vec2(x, y)) == gauge(p, Vec2(-x, -y))

    @given(coord, coord, st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
    def test_homogeneous(self, x, y, t):
        p = Parallelogram(Vec2(2.0, 0.0), Vec2(1.0, 1.0))
        lhs = gauge(p, t * Vec2(x, y))
        rhs = abs(t) * gauge(p, Vec2(x, y))
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, rhs)

    @given(coord, coord, coord, coord)
    def test_triangle_inequality(self, ax, ay, bx, by):
        p = Parallelogram(Vec2(2.0, 0.0), Vec2(1.0, 1.0))
        a, b = Vec2(ax, ay), Vec2(bx, by)
        assert gauge(p, a + b) <= gauge(p, a) + gauge(p, b) + 1e-9


class TestCircumRatio:
    def test_square_in_square(self, p4):
        assert circum_ratio(UNIT_SQUARE, p4) == 1.0

    def test_hexagon_axis_position(self, p6):
        p = Parallelogram(Vec2(1.0, 0.0), Vec2(0.0, SQRT3 / 2.0))
        assert abs(circum_ratio(p, p6) - 1.5) < 1e-15

    def test_scaling_the_polygon(self, p6):
        p = Parallelogram(Vec2(1.0, 0.0), Vec2(0.0, SQRT3 / 2.0))
        doubled = Parallelogram(2.0 * p.u, 2.0 * p.v)
        assert abs(circum_ratio(doubled, p6) - 0.75) < 1e-15


    @staticmethod
    def _cases():
        """P4-P32, P50, P100 and P200, a linear image of each and random
        polygons, each with three parallelograms inscribed in it."""
        rng = np.random.default_rng(200)
        gons = [regular_polygon(n) for n in [*range(4, 33, 2), 50, 100, 200]]
        gons += [linear_image(gon, random_linear_map(rng)) for gon in gons]
        gons += [random_central_polygon(rng, m) for m in range(2, 13)]
        for gon in gons:
            m = gon.m
            for t, s in zip(rng.uniform(0.0, 2 * m, 3), rng.uniform(m / 3, 2 * m / 3, 3)):
                yield gon, Parallelogram(boundary_point(gon, t), boundary_point(gon, t + s))

    @pytest.mark.parametrize("scale", [1e-170, 1e-100, 1e-5, 1.0, 1e5, 1e100, 1e154, 1e200])
    def test_half_of_the_vertices_give_the_maximum_over_all(self, scale):
        # the polygon is scaled and the parallelogram is not
        for gon, p in self._cases():
            scaled = CentralPolygon([scale * v for v in gon.vertices])
            assert circum_ratio(p, scaled) == max(gauge(p, w) for w in scaled.vertices)


class TestContainmentPredicates:
    def test_scaled_optimum_circumscribes_hexagon(self, p6):
        p = Parallelogram(Vec2(1.0, 0.0), Vec2(0.0, SQRT3 / 2.0))
        lam = circum_ratio(p, p6)
        scaled = Parallelogram(lam * p.u, lam * p.v)
        # contains the hexagon, with vertices on its boundary
        assert abs(circum_ratio(scaled, p6) - 1.0) <= 1e-15
        assert len(contacts(scaled, p6, 1.0)) == 4


class TestVertexHausdorff:
    def test_zero_iff_equal_as_sets(self):
        p = Parallelogram(Vec2(1.0, 0.0), Vec2(0.0, 1.0))
        q = Parallelogram(Vec2(0.0, -1.0), Vec2(1.0, 0.0))
        assert vertex_hausdorff(p, q) == 0.0

    def test_measures_displacement(self):
        p = Parallelogram(Vec2(1.0, 0.0), Vec2(0.0, 1.0))
        q = Parallelogram(Vec2(1.1, 0.0), Vec2(0.0, 1.0))
        assert abs(vertex_hausdorff(p, q) - 0.1) < 1e-12

    @pytest.mark.parametrize("k", [-8, -1, 1, 200, 1000, 1019, 1020])
    def test_powers_of_two_scale_the_distance_exactly(self, k):
        rng = np.random.default_rng(1020)

        def draw():
            u, v = (Vec2(*rng.uniform(-4.0, 4.0, 2)) for _ in "uv")
            return Parallelogram(u, v) if u.cross(v) > 0.0 else Parallelogram(v, u)

        for _ in range(20):
            p, q = draw(), draw()
            sp, sq = (Parallelogram(math.ldexp(1.0, k) * r.u, math.ldexp(1.0, k) * r.v) for r in (p, q))
            assert vertex_hausdorff(sp, sq) == math.ldexp(vertex_hausdorff(p, q), k), (p, q)

    def test_a_distance_past_the_largest_float_is_inf(self):
        # 30.8 times 2**1020 is past the largest float, every coordinate not
        p = Parallelogram(Vec2(15.0, 15.0), Vec2(-15.0, 15.0))
        q = Parallelogram(Vec2(15.9, -15.9), Vec2(15.9, -15.8))
        assert 30.0 < vertex_hausdorff(p, q) < 31.0
        sp, sq = (Parallelogram(2.0**1020 * r.u, 2.0**1020 * r.v) for r in (p, q))
        assert vertex_hausdorff(sp, sq) == math.inf

    def test_the_octagon_past_the_largest_float_is_measured(self):
        # vertex norms past the largest float: subtracting its vertices
        # overflowed; relabelled generators are the same parallelogram
        half = [(1.7e308, 0.0), (1.3e308, 1.326e308), (0.0, 1.7e308), (-1.3e308, 1.274e308)]
        gon = CentralPolygon([Vec2(x, y) for x, y in half] + [Vec2(-x, -y) for x, y in half])
        w = Parallelogram(boundary_point(gon, 0.0), boundary_point(gon, 2.0))
        assert vertex_hausdorff(w, Parallelogram(w.v, -w.u)) == 0.0
        # v moved to the midpoint (0.65e308, 1.513e308) of the edge before it
        d = vertex_hausdorff(w, Parallelogram(w.u, boundary_point(gon, 1.5)))
        assert math.isclose(d, math.hypot(0.65e308, 0.187e308), rel_tol=1e-14), d
