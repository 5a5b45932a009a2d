"""Origin-symmetric parallelograms measured against a centrally symmetric
polygon: the Minkowski gauge, the circumscribed homothety ratio and its
contact vertices, the vertex Hausdorff distance between two
parallelograms, and symmetry orbits."""

from __future__ import annotations

from dataclasses import dataclass

from .geom import CentralPolygon, Mat2, Vec2, apply_linear

__all__ = [
    "Parallelogram",
    "gauge",
    "circum_ratio",
    "contacts",
    "vertex_hausdorff",
    "symmetry_orbit",
]

DEGENERATE_TOL = 1e-12


@dataclass(frozen=True)
class Parallelogram:
    """Parallelogram with vertices u, v, -u, -v; cross(u, v) must be
    positive, so the generators are counterclockwise and independent."""

    u: Vec2
    v: Vec2

    def __post_init__(self) -> None:
        if not self.u.cross(self.v) > DEGENERATE_TOL:
            raise ValueError(
                "generators must satisfy cross(u, v) > 0; "
                "swap them or the parallelogram is degenerate"
            )

    @classmethod
    def from_unordered(cls, a: Vec2, b: Vec2) -> "Parallelogram":
        """Builds from an unordered generator pair, swapping as needed."""
        return cls(a, b) if a.cross(b) > 0.0 else cls(b, a)

    def vertices(self) -> tuple[Vec2, Vec2, Vec2, Vec2]:
        return (self.u, self.v, -self.u, -self.v)


def gauge(p: Parallelogram, w: Vec2) -> float:
    """Minkowski gauge of the parallelogram at w.

    Writing w = alpha*u + beta*v, the gauge is |alpha| + |beta|; it is 1
    exactly on the boundary of the parallelogram.
    """
    den = p.u.cross(p.v)
    alpha = w.cross(p.v) / den
    beta = p.u.cross(w) / den
    return abs(alpha) + abs(beta)


def circum_ratio(p: Parallelogram, c: CentralPolygon) -> float:
    """Smallest lambda with the polygon contained in lambda times the
    parallelogram; the maximum is attained at a vertex of the polygon."""
    return max(gauge(p, w) for w in c.vertices)


def contacts(p: Parallelogram, c: CentralPolygon, lam: float) -> tuple[Vec2, ...]:
    """Vertices of the polygon on the boundary of lam times the
    parallelogram: those whose gauge is lam within 1e-9."""
    return tuple(w for w in c.vertices if abs(gauge(p, w) - lam) <= 1e-9)


def vertex_hausdorff(p: Parallelogram, q: Parallelogram) -> float:
    """Hausdorff distance between the two vertex quadruples; zero exactly
    when the parallelograms coincide as unordered generator sets."""
    pv, qv = p.vertices(), q.vertices()

    def one_sided(xs: tuple[Vec2, ...], ys: tuple[Vec2, ...]) -> float:
        return max(min((x - y).norm() for y in ys) for x in xs)

    return max(one_sided(pv, qv), one_sided(qv, pv))


def symmetry_orbit(p: Parallelogram, maps: list[Mat2]) -> list[Parallelogram]:
    """Images of the parallelogram under the linear maps (typically
    ``polygon_symmetries`` of a polygon), in map order, with images
    within vertex Hausdorff distance 1e-9 of an earlier one removed."""
    orbit: list[Parallelogram] = []
    for mat in maps:
        image = Parallelogram.from_unordered(apply_linear(mat, p.u), apply_linear(mat, p.v))
        if all(vertex_hausdorff(image, seen) > 1e-9 for seen in orbit):
            orbit.append(image)
    return orbit
