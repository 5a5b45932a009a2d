import math

import numpy as np
import pytest

from bmgon.evengon import (
    axis_parallelogram,
    beta_b_max,
    beta_h,
    beta_k,
    beta_square,
    dist_pn_phn,
    theorem2_value,
)
from bmgon.geom import Vec2, boundary_projection, line_intersection, regular_polygon
from bmgon.pgram import circum_ratio

SQRT2 = math.sqrt(2.0)

# independently frozen family values for the first few even n
FROZEN = {
    8: SQRT2,
    10: 1.4270509831248424,
    12: SQRT2 * math.cos(math.pi / 12.0),
    14: 1.4254275376635719,
    16: SQRT2,
    18: 1.4187480877851173,
    20: 1.3968022466674206,
}


class TestFamilyValues:
    def test_frozen_values(self):
        for n, value in FROZEN.items():
            assert abs(theorem2_value(n).value - value) <= 1e-12, n

    def test_kinds_and_families(self):
        assert theorem2_value(8).kind == "exact"
        assert theorem2_value(8).family == "8j"
        assert theorem2_value(10).kind == "upper_bound"
        assert theorem2_value(10).family == "8j+2"
        assert theorem2_value(12).kind == "exact"
        assert theorem2_value(12).family == "8j+4"
        assert theorem2_value(14).kind == "upper_bound"
        assert theorem2_value(14).family == "8j+6"

    def test_n6_reduces_to_the_hexagon_value(self):
        v = theorem2_value(6)
        assert abs(v.value - 1.5) <= 1e-12
        assert v.family == "8j+6"
        assert v.kind == "exact"

    def test_rejects_bad_n(self):
        for n in (5, 4, 0, -8):
            with pytest.raises(ValueError):
                theorem2_value(n)

    def test_values_exceed_one_and_stay_below_3_2(self):
        for n in range(8, 62, 2):
            v = theorem2_value(n).value
            assert 1.0 < v <= 1.5


class TestAxisParallelogram:
    def test_witnesses_every_family_value(self):
        for n in range(6, 22, 2):
            gon = regular_polygon(n)
            built = circum_ratio(axis_parallelogram(gon), gon)
            assert abs(built - theorem2_value(n).value) <= 1e-12, n

    def test_generators_lie_on_the_boundary(self):
        for n in (6, 10, 14):
            gon = regular_polygon(n)
            p = axis_parallelogram(gon)
            assert boundary_projection(gon, p.u)[1] <= 1e-12
            assert boundary_projection(gon, p.v)[1] <= 1e-12


class TestBetaFamily:
    def test_k_is_negative(self):
        for j in range(1, 5):
            assert beta_k(j) < 0.0

    def test_largest_slope(self):
        # tan(pi/8) = sqrt(2) - 1, and the slope falls as j grows
        assert abs(beta_b_max(1) - (SQRT2 - 1.0)) <= 1e-15
        assert all(beta_b_max(j + 1) < beta_b_max(j) for j in range(1, 9))
        for j in (0, -1, 1.0):
            with pytest.raises(ValueError, match="j must be"):
                beta_b_max(j)

    def test_endpoint_values(self):
        for j in range(1, 5):
            hi = beta_b_max(j)
            assert abs(beta_h(j, 0.0) - SQRT2) <= 1e-12
            assert abs(beta_h(j, hi) - SQRT2) <= 1e-12

    def test_interior_exceeds_sqrt2(self):
        for j in range(1, 5):
            hi = beta_b_max(j)
            assert all(
                beta_h(j, hi * (i / 1000.0)) > SQRT2 for i in range(1, 1000)
            )

    def test_excess_over_sqrt2_factors(self):
        # h(b) - sqrt(2) = sqrt(2) b (tan(pi/8j) - b) / (b^2 + 1), which is
        # zero at both ends and positive in between
        for j in range(1, 9):
            hi = beta_b_max(j)
            for i in range(101):
                b = hi * (i / 100.0)
                excess = SQRT2 * b * (hi - b) / (b * b + 1.0)
                assert abs((beta_h(j, b) - SQRT2) - excess) <= 1e-15, (j, b)

    def test_square_construction_matches_closed_form(self):
        for j in (1, 2, 3):
            gon = regular_polygon(8 * j)
            hi = beta_b_max(j)
            for i in range(0, 11):
                b = hi * (i / 10.0)
                square = beta_square(j, b)
                assert abs(square.u.norm() - square.v.norm()) <= 1e-12
                assert abs(square.u.dot(square.v)) <= 1e-12
                assert boundary_projection(gon, square.u)[1] <= 1e-12
                assert abs(circum_ratio(square, gon) - beta_h(j, b)) <= 1e-12

    def test_square_side_is_the_first_side_of_the_polygon_bit_for_bit(self):
        # the reference takes the side from the polygon itself
        for j in range(1, 5):
            v0, v1 = regular_polygon(8 * j).vertices[:2]
            hi = beta_b_max(j)
            for i in range(0, 11):
                b = hi * (i / 10.0)
                p = line_intersection(Vec2(0.0, 0.0), Vec2(1.0, b), v0, v1 - v0)
                square = beta_square(j, b)
                assert (square.u, square.v) == (p, p.perp()), (j, b)

    def test_array_of_slopes_matches_the_scalar_values_bit_for_bit(self):
        for j in range(1, 5):
            hi = beta_b_max(j)
            slopes = hi * (np.arange(0, 1001) / 1000.0)
            values = beta_h(j, slopes)
            assert values.tolist() == [beta_h(j, b) for b in slopes.tolist()]
            assert type(beta_h(j, float(slopes[1]))) is float

    def test_array_with_one_slope_out_of_range_is_rejected(self):
        hi = beta_b_max(1)
        for bad in (-1e-12, hi + 1e-9, math.nan):
            slopes = np.linspace(0.0, hi, 50)
            slopes[17] = bad
            with pytest.raises(ValueError):
                beta_h(1, slopes)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            beta_h(0, 0.0)
        with pytest.raises(ValueError):
            beta_h(1, -0.1)
        with pytest.raises(ValueError):
            beta_h(1, beta_b_max(1) + 1e-9)


class TestCrossPolygonDistance:
    def test_frozen_example(self):
        assert abs(dist_pn_phn(6, 3) - 1.1371580426032575) <= 1e-12

    def test_identity_with_the_8j4_family(self):
        for j in range(1, 9):
            lhs = dist_pn_phn(4, 2 * j + 1)
            rhs = theorem2_value(8 * j + 4).value
            assert abs(lhs - rhs) <= 1e-12, j

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            dist_pn_phn(5, 3)
        with pytest.raises(ValueError):
            dist_pn_phn(6, 4)
        with pytest.raises(ValueError):
            dist_pn_phn(6, 1)
