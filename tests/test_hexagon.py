import math

import pytest

from conftest import mapped_parallelogram
from bmgon.geom import boundary_projection, polygon_symmetries
from bmgon.hexagon import (
    B_REGIME_MAX,
    HEXAGON,
    hex_build,
    hex_critical_b,
    hex_h,
    hex_h_derivative,
    hex_optimal_positions,
)
from bmgon.pgram import circum_ratio, vertex_hausdorff

SQRT3 = math.sqrt(3.0)


def _samples(count: int):
    return [B_REGIME_MAX * (i / (count - 1)) for i in range(count)]


def _orbit(p):
    """Images of the position under the hexagon's symmetries, in the
    plane and independently of the search's class key, with images
    within vertex Hausdorff distance 1e-9 of an earlier one removed."""
    orbit = []
    for mat in polygon_symmetries(HEXAGON):
        image = mapped_parallelogram(mat, p)
        if all(vertex_hausdorff(image, seen) > 1e-9 for seen in orbit):
            orbit.append(image)
    return orbit


def _inscribed(p):
    """Both generators, and so by symmetry all four vertices, lie on the
    hexagon's boundary within 1e-9."""
    return max(boundary_projection(HEXAGON, w)[1] for w in (p.u, p.v)) <= 1e-9


class TestCurve:
    def test_endpoint_values(self):
        assert abs(hex_h(0.0) - 1.5) <= 1e-12
        assert abs(hex_h(B_REGIME_MAX) - 1.5) <= 1e-12

    def test_interior_exceeds_endpoints(self):
        assert all(hex_h(b) > 1.5 for b in _samples(10001)[1:-1])

    def test_critical_point_value(self):
        b = hex_critical_b()
        assert abs(b - (-10.0 * SQRT3 + 8.0 * math.sqrt(6.0)) / 14.0) <= 1e-15
        assert abs(b - 0.16252927618404658) <= 1e-15
        assert abs(hex_h(b) - 1.5224077499274828) <= 1e-12

    def test_critical_point_is_stationary(self):
        b = hex_critical_b()
        assert abs(hex_h_derivative(b)) <= 1e-12
        step = 1e-6
        fd = (hex_h(b + step) - hex_h(b - step)) / (2.0 * step)
        assert abs(fd) <= 1e-6

    def test_derivative_matches_finite_differences(self):
        step = 1e-7
        for b in (0.05, 0.1, 0.2, 0.3):
            fd = (hex_h(b + step) - hex_h(b - step)) / (2.0 * step)
            assert abs(hex_h_derivative(b) - fd) <= 1e-6

    def test_domain_errors(self):
        for bad in (-1e-9, B_REGIME_MAX + 1e-9, 1.0):
            with pytest.raises(ValueError):
                hex_h(bad)
        with pytest.raises(ValueError):
            hex_build(0.5)


class TestConstruction:
    def test_members_are_inscribed(self):
        for b in _samples(101):
            member = hex_build(b)
            assert boundary_projection(HEXAGON, member.u)[1] <= 1e-12
            assert boundary_projection(HEXAGON, member.v)[1] <= 1e-12

    def test_closed_form_matches_geometry(self):
        dev = max(
            abs(hex_h(b) - circum_ratio(hex_build(b), HEXAGON))
            for b in _samples(101)
        )
        assert dev <= 1e-9

    def test_endpoints_reach_the_optimal_positions(self):
        first, second = hex_optimal_positions()
        assert vertex_hausdorff(hex_build(0.0), first) <= 1e-12
        assert vertex_hausdorff(hex_build(B_REGIME_MAX), second) <= 1e-12


class TestOptimalPositions:
    def test_both_positions_are_inscribed_with_ratio_3_2(self):
        for p in hex_optimal_positions():
            assert _inscribed(p)
            assert abs(circum_ratio(p, HEXAGON) - 1.5) <= 1e-12

    def test_positions_are_distinct_classes(self):
        first, second = hex_optimal_positions()
        assert all(
            vertex_hausdorff(second, image) > 1e-6
            for image in _orbit(first)
        )

    def test_orbit_sizes(self):
        first, second = hex_optimal_positions()
        assert len(_orbit(first)) == 3
        assert len(_orbit(second)) == 3

    def test_orbit_members_keep_the_ratio(self):
        for p in hex_optimal_positions():
            for image in _orbit(p):
                assert abs(circum_ratio(image, HEXAGON) - 1.5) <= 1e-12
                assert _inscribed(image)
