"""The inscribed-parallelogram family of the regular hexagon.

The hexagon is fixed with vertex v0 = (1, 0).  A family member is built
from a slope parameter b: one generator p(b) is the crossing of the ray
of slope b from the origin with the side v0-v1, the other generator q(b)
is the crossing of the line x = c(b)*y with the top side v1-v2, where the
coupling c(b) is chosen so that the two side-strip width ratios of the
parallelogram agree.  The common ratio has the closed form

    h(b) = (b^2 + 4*sqrt(3)*b + 9) / (4*b^2 + 2*sqrt(3)*b + 6),

valid while the supporting contact stays on the same hexagon side, which
holds for b in [0, sqrt(3)/5].  h attains its minimum 3/2 exactly at the
two endpoints, giving the two optimal parallelogram positions.
"""

from __future__ import annotations

import math

from .geom import CentralPolygon, Vec2, line_intersection, regular_polygon
from .pgram import Parallelogram

__all__ = [
    "HEXAGON",
    "hex_c",
    "hex_h",
    "hex_h_derivative",
    "hex_critical_b",
    "hex_build",
    "hex_optimal_positions",
]

_SQRT3 = math.sqrt(3.0)

HEXAGON: CentralPolygon = regular_polygon(6)

# b ranges over [0, sqrt(3)/3] for the coupling (p from v0 to the side
# midpoint) and over [0, sqrt(3)/5] for the ratio curve (the regime where
# the second supporting contact stays on side v4-v5).
B_COUPLING_MAX = _SQRT3 / 3.0
B_REGIME_MAX = _SQRT3 / 5.0


def _check_domain(b: float, hi: float, what: str) -> None:
    if not (0.0 <= b <= hi):
        raise ValueError(f"{what} requires 0 <= b <= {hi:.17g}, got {b}")


def hex_c(b: float) -> float:
    """Coupling c(b) = -2b / (sqrt(3)*b + 3) that balances the two
    side-strip ratios of the family member at slope b."""
    _check_domain(b, B_COUPLING_MAX, "hex_c")
    return -2.0 * b / (_SQRT3 * b + 3.0)


def hex_h(b: float) -> float:
    """Circumscribed ratio of the balanced family member at slope b."""
    _check_domain(b, B_REGIME_MAX, "hex_h")
    return (b * b + 4.0 * _SQRT3 * b + 9.0) / (4.0 * b * b + 2.0 * _SQRT3 * b + 6.0)


def hex_h_derivative(b: float) -> float:
    """Quotient-rule derivative of hex_h; its sign is that of the
    quadratic -7*sqrt(3)*b^2 - 30*b + 3*sqrt(3)."""
    _check_domain(b, B_REGIME_MAX, "hex_h_derivative")
    num = b * b + 4.0 * _SQRT3 * b + 9.0
    dnum = 2.0 * b + 4.0 * _SQRT3
    den = 4.0 * b * b + 2.0 * _SQRT3 * b + 6.0
    dden = 8.0 * b + 2.0 * _SQRT3
    return (dnum * den - num * dden) / (den * den)


def hex_critical_b() -> float:
    """Unique interior zero of the derivative of hex_h, where the curve
    attains its maximum: b = (-10*sqrt(3) + 8*sqrt(6)) / 14."""
    return (-10.0 * _SQRT3 + 8.0 * math.sqrt(6.0)) / 14.0


def hex_build(b: float) -> Parallelogram:
    """The balanced family member at slope b: its generators p and q are
    the crossings of the defining lines with the fixed hexagon sides."""
    _check_domain(b, B_REGIME_MAX, "hex_build")
    v0, v1, v2 = HEXAGON.vertices[0], HEXAGON.vertices[1], HEXAGON.vertices[2]
    origin = Vec2(0.0, 0.0)
    p = line_intersection(origin, Vec2(1.0, b), v0, v1 - v0)
    q = line_intersection(origin, Vec2(hex_c(b), 1.0), v1, v2 - v1)
    return Parallelogram(p, q)


def hex_optimal_positions() -> list[Parallelogram]:
    """The two inscribed positions attaining the minimal circumscribed
    ratio 3/2: the endpoints b = 0 and b = sqrt(3)/5 of the family."""
    return [
        Parallelogram(Vec2(1.0, 0.0), Vec2(0.0, _SQRT3 / 2.0)),
        Parallelogram(Vec2(5.0 / 6.0, _SQRT3 / 6.0), Vec2(-1.0 / 6.0, _SQRT3 / 2.0)),
    ]

