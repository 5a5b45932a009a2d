"""Closed-form distance values for regular even-gons.

The distance from the parallelogram class to the regular n-gon falls
into four families by n mod 8.  For n = 8j and n = 8j + 4 the value is
exact; for n = 8j + 2 and n = 8j + 6 the formula is a proven upper bound
conjectured to be sharp, except at n = 6, where the hexagon theorem
makes it exact.  The bound is witnessed in every case by the
parallelogram through the boundary crossings with the coordinate axes.

For the n = 8j family the inscribed squares form a one-parameter family
indexed by a slope b, with ratio curve

    h(b) = sqrt(2) * (k - b) / (k * (b^2 + 1)),   k = sin(t)/(cos(t) - 1),

where t = pi/(4j) is the vertex angle step and b runs over
[0, tan(pi/(8j))].  Since -1/k = tan(t/2),

    h(b) - sqrt(2) = sqrt(2) * b * (tan(pi/(8j)) - b) / (b^2 + 1),

so h equals sqrt(2) exactly at both endpoints and exceeds it in between,
which is why the "beta interior exceeds sqrt(2)" rows hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geom import CentralPolygon, Vec2, boundary_crossing, line_intersection
from .pgram import Parallelogram

__all__ = [
    "EvenGonValue",
    "theorem2_value",
    "axis_parallelogram",
    "beta_k",
    "beta_b_max",
    "beta_h",
    "beta_square",
    "dist_pn_phn",
]

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class EvenGonValue:
    """Distance value for the regular n-gon: ``kind`` is "exact" for the
    n = 8j and 8j + 4 families and for the hexagon, and "upper_bound"
    for the other n = 8j + 2 and 8j + 6."""

    kind: str
    value: float
    family: str


def theorem2_value(n: int) -> EvenGonValue:
    """Closed-form distance value (or conjectured-sharp upper bound) for
    the regular n-gon, n even and at least 6."""
    if n % 2 != 0 or n < 6:
        raise ValueError(f"n must be even and at least 6, got {n}")
    r = n % 8
    if r == 0:
        return EvenGonValue(kind="exact", value=_SQRT2, family="8j")
    if r == 2:
        j = (n - 2) // 8
        a = 2.0 * j * math.pi / n
        return EvenGonValue(
            kind="upper_bound", value=0.5 / math.cos(a) + math.cos(a), family="8j+2"
        )
    if r == 4:
        return EvenGonValue(kind="exact", value=_SQRT2 * math.cos(math.pi / n), family="8j+4")
    j = (n - 6) // 8
    a = (2.0 * j + 2.0) * math.pi / n
    b = (4.0 * j + 2.0) * math.pi / n
    return EvenGonValue(
        kind="exact" if n == 6 else "upper_bound",
        value=math.sin(a) / math.sin(b) + math.cos(a),
        family="8j+6",
    )


def axis_parallelogram(c: CentralPolygon) -> Parallelogram:
    """Inscribed parallelogram through the boundary crossings with the
    positive x and y axes; it witnesses the family values above."""
    return Parallelogram(
        boundary_crossing(c, Vec2(1.0, 0.0)), boundary_crossing(c, Vec2(0.0, 1.0))
    )


def _check_j(j: int) -> None:
    if not (isinstance(j, int) and j >= 1):
        raise ValueError(f"j must be an integer >= 1, got {j}")


def beta_k(j: int) -> float:
    """Slope k of the first side of the regular 8j-gon, written as
    sin(pi/(4j)) / (cos(pi/(4j)) - 1); always negative."""
    _check_j(j)
    t = math.pi / (4.0 * j)
    return math.sin(t) / (math.cos(t) - 1.0)


def beta_b_max(j: int) -> float:
    """The largest slope of the square family of the regular 8j-gon,
    tan(pi/(8j)); the family runs over b in [0, beta_b_max(j)]."""
    _check_j(j)
    return math.tan(math.pi / (8.0 * j))


def _check_b(j: int, b: float | np.ndarray) -> None:
    """Checks j, then that every slope lies in the family's range."""
    hi = beta_b_max(j)
    if not (0.0 <= np.min(b) and np.max(b) <= hi):
        raise ValueError(f"b must lie in [0, tan(pi/{8 * j})] = [0, {hi:.17g}], got {b}")


def beta_h(j: int, b: float | np.ndarray) -> float | np.ndarray:
    """Circumscribed ratio of the inscribed square of the regular 8j-gon
    whose diagonal has slope b; elementwise, with the same bits, for an
    array of slopes."""
    _check_b(j, b)
    k = beta_k(j)
    return _SQRT2 * (k - b) / (k * (b * b + 1.0))


def beta_square(j: int, b: float) -> Parallelogram:
    """The inscribed square itself: one vertex p is the crossing of the
    ray of slope b with the first side of the regular 8j-gon, the next is
    p rotated by a quarter turn.  The side's ends are the first two
    vertices, made as ``regular_polygon(8 * j)`` makes them."""
    _check_b(j, b)
    t = 2.0 * math.pi / (8 * j)
    v0, v1 = Vec2(1.0, 0.0), Vec2(math.cos(t), math.sin(t))
    p = line_intersection(Vec2(0.0, 0.0), Vec2(1.0, b), v0, v1 - v0)
    return Parallelogram(p, p.perp())


def dist_pn_phn(n: int, h: int) -> float:
    """Distance between the regular n-gon and the regular (h*n)-gon for
    even n >= 4 and odd h >= 3: cos(pi/(h*n)) / cos(pi/n)."""
    if n % 2 != 0 or n < 4:
        raise ValueError(f"n must be even and at least 4, got {n}")
    if h % 2 != 1 or h < 3:
        raise ValueError(f"h must be odd and at least 3, got {h}")
    return math.cos(math.pi / (h * n)) / math.cos(math.pi / n)
