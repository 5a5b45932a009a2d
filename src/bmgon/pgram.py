"""Origin-symmetric parallelograms measured against a centrally symmetric
polygon: the Minkowski gauge, the circumscribed homothety ratio and its
contact vertices, and the vertex Hausdorff distance between two
parallelograms."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .geom import CentralPolygon, Vec2, unit_scaled

__all__ = [
    "Parallelogram",
    "gauge",
    "circum_ratio",
    "contacts",
    "vertex_hausdorff",
]

DEGENERATE_TOL = 1e-12


@dataclass(frozen=True)
class Parallelogram:
    """Parallelogram with vertices u, v, -u, -v; cross(u, v) must be
    positive, so the generators are counterclockwise and independent.

    ``unit`` is (e, ux, uy, vx, vy, den): the generators divided by the
    power of two 2**e just above their largest |coordinate|
    (``geom.unit_scaled``), and their cross product, which decides
    as the input's would, yet never overflows; 2**k times the generators
    give the same values but for e.  Equality and repr ignore it."""

    u: Vec2
    v: Vec2
    unit: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        u, v = self.u, self.v
        e, [(ux, uy, vx, vy)] = unit_scaled((u.x, u.y, v.x, v.y))
        den = ux * vy - uy * vx
        # den * 4**e > DEGENERATE_TOL, with neither side overflowing
        if not math.ldexp(den, 2 * min(e, 0)) > math.ldexp(DEGENERATE_TOL, -2 * max(e, 0)):
            raise ValueError(
                "generators must satisfy cross(u, v) > 0; "
                "swap them or the parallelogram is degenerate"
            )
        object.__setattr__(self, "unit", (e, ux, uy, vx, vy, den))

    def vertices(self) -> tuple[Vec2, Vec2, Vec2, Vec2]:
        return (self.u, self.v, -self.u, -self.v)


def gauge(p: Parallelogram, w: Vec2) -> float:
    """Minkowski gauge of the parallelogram at w.

    Writing w = alpha*u + beta*v, the gauge is |alpha| + |beta|; it is 1
    exactly on the boundary of the parallelogram.  It reads
    ``Parallelogram.unit``, with w divided by the same power of two, so
    2**k times both gives the same gauge.
    """
    e, ux, uy, vx, vy, den = p.unit
    wx, wy = math.ldexp(w.x, -e), math.ldexp(w.y, -e)
    alpha = (wx * vy - wy * vx) / den
    beta = (ux * wy - uy * wx) / den
    return abs(alpha) + abs(beta)


def circum_ratio(p: Parallelogram, c: CentralPolygon) -> float:
    """Smallest lambda with the polygon contained in lambda times the
    parallelogram; the maximum is attained at a vertex of the polygon.
    Antipodal vertices are exact negations and have equal gauge bit for
    bit, so the first m vertices decide it."""
    return max(gauge(p, w) for w in c.vertices[: c.m])


def contacts(p: Parallelogram, c: CentralPolygon, lam: float) -> tuple[Vec2, ...]:
    """Vertices of the polygon on the boundary of lam times the
    parallelogram: those whose gauge is lam within 1e-9."""
    return tuple(w for w in c.vertices if abs(gauge(p, w) - lam) <= 1e-9)


def vertex_hausdorff(p: Parallelogram, q: Parallelogram) -> float:
    """Hausdorff distance between the two vertex quadruples; zero exactly
    when the parallelograms coincide as unordered generator sets.  Both
    are measured divided by one power of two 2**e (``geom.unit_scaled``
    over both), so no difference overflows, and the distance is scaled
    back, inf when it passes the largest float.  The tests match the
    search's classes with it; the benchmark traces it."""
    e, (pu, qu) = unit_scaled((p.u.x, p.u.y, p.v.x, p.v.y), (q.u.x, q.u.y, q.v.x, q.v.y))
    pv, qv = ([(x, y), (z, w), (-x, -y), (-z, -w)] for x, y, z, w in (pu, qu))

    def one_sided(xs: list, ys: list) -> float:
        return max(min(math.hypot(a - c, b - d) for c, d in ys) for a, b in xs)

    d = max(one_sided(pv, qv), one_sided(qv, pv))
    return math.ldexp(d, e) if math.frexp(d)[1] + e <= 1024 else math.inf
