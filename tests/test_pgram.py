import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_central_polygon
from bmgon.geom import Vec2, boundary_distance
from bmgon.pgram import (
    BalanceReport,
    Parallelogram,
    balance_inscribed,
    circum_ratio,
    contacts,
    gauge,
    is_inscribed,
    vertex_hausdorff,
)

SQRT3 = math.sqrt(3.0)

UNIT_SQUARE = Parallelogram(Vec2(1.0, 0.0), Vec2(0.0, 1.0))

coord = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


class TestParallelogram:
    def test_rejects_collinear_generators(self):
        with pytest.raises(ValueError):
            Parallelogram(Vec2(1.0, 1.0), Vec2(2.0, 2.0))
        with pytest.raises(ValueError):
            Parallelogram(Vec2(1.0, 0.0), Vec2(0.0, 0.0))

    def test_rejects_clockwise_pair(self):
        with pytest.raises(ValueError):
            Parallelogram(Vec2(0.0, 1.0), Vec2(1.0, 0.0))

    def test_from_unordered_swaps(self):
        p = Parallelogram.from_unordered(Vec2(0.0, 1.0), Vec2(1.0, 0.0))
        assert p.u == Vec2(1.0, 0.0) and p.v == Vec2(0.0, 1.0)

    def test_vertices(self):
        assert UNIT_SQUARE.vertices() == (
            Vec2(1.0, 0.0),
            Vec2(0.0, 1.0),
            Vec2(-1.0, 0.0),
            Vec2(0.0, -1.0),
        )


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


class TestContainmentPredicates:
    def test_is_inscribed(self, p6):
        p = Parallelogram(Vec2(1.0, 0.0), Vec2(0.0, SQRT3 / 2.0))
        assert is_inscribed(p, p6)
        shrunk = Parallelogram(Vec2(0.5, 0.0), Vec2(0.0, 0.5))
        assert not is_inscribed(shrunk, p6)

    def test_scaled_optimum_circumscribes_hexagon(self, p6):
        p = Parallelogram(Vec2(1.0, 0.0), Vec2(0.0, SQRT3 / 2.0))
        lam = circum_ratio(p, p6)
        scaled = Parallelogram(lam * p.u, lam * p.v)
        # contains the hexagon, with vertices on its boundary
        assert abs(circum_ratio(scaled, p6) - 1.0) <= 1e-15
        assert len(contacts(scaled, p6, 1.0)) == 4


class TestBalanceInscribed:
    def test_hexagon_axis_family(self, p6):
        report = balance_inscribed(p6, 1.0, 2.0, fixed_t=0.0)
        assert isinstance(report, BalanceReport)
        assert abs(report.arc_parameter - 1.5) < 1e-9
        assert abs(report.ratio - 1.5) < 1e-9
        assert report.residual <= 1e-9

    def test_square_family(self, p4):
        report = balance_inscribed(p4, 0.2, 1.8, fixed_t=0.0)
        assert abs(report.ratio - 1.0) < 1e-9
        assert abs(report.arc_parameter - 1.0) < 1e-9

    def test_unbalanceable_arc_raises(self, p6):
        with pytest.raises(ValueError, match="not balanceable"):
            balance_inscribed(p6, 1.02, 1.2, fixed_t=0.0)

    def test_balanced_members_are_inscribed(self):
        rng = np.random.default_rng(5)
        balanced = 0
        for _ in range(20):
            gon = random_central_polygon(rng)
            m = gon.m
            try:
                report = balance_inscribed(gon, 0.05 * m, 0.95 * m, fixed_t=0.0)
            except ValueError:
                continue
            balanced += 1
            assert report.residual <= 1e-9
            p = report.parallelogram
            assert boundary_distance(gon, p.u) < 1e-9
            assert boundary_distance(gon, p.v) < 1e-9
            assert abs(report.ratio - circum_ratio(p, gon)) == 0.0
        assert balanced >= 10


class TestVertexHausdorff:
    def test_zero_iff_equal_as_sets(self):
        p = Parallelogram(Vec2(1.0, 0.0), Vec2(0.0, 1.0))
        q = Parallelogram.from_unordered(Vec2(0.0, -1.0), Vec2(1.0, 0.0))
        assert vertex_hausdorff(p, q) == 0.0

    def test_measures_displacement(self):
        p = Parallelogram(Vec2(1.0, 0.0), Vec2(0.0, 1.0))
        q = Parallelogram(Vec2(1.1, 0.0), Vec2(0.0, 1.0))
        assert abs(vertex_hausdorff(p, q) - 0.1) < 1e-12
