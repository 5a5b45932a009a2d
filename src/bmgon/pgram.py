"""Origin-symmetric parallelograms measured against a centrally symmetric
polygon: the Minkowski gauge, the circumscribed homothety ratio and its
contact vertices, the inscribed predicate, strip-ratio balancing of an
inscribed one-parameter family, and symmetry orbits."""

from __future__ import annotations

from dataclasses import dataclass

from .geom import (
    CentralPolygon,
    Mat2,
    Vec2,
    apply_linear,
    boundary_distance,
    boundary_point,
    support,
)

__all__ = [
    "Parallelogram",
    "BalanceReport",
    "gauge",
    "circum_ratio",
    "contacts",
    "is_inscribed",
    "balance_inscribed",
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


def is_inscribed(p: Parallelogram, c: CentralPolygon, tol: float = 1e-9) -> bool:
    """True iff all four vertices lie on the boundary of the polygon
    within Euclidean distance tol.  By central symmetry it suffices to
    test the two generators."""
    return boundary_distance(c, p.u) <= tol and boundary_distance(c, p.v) <= tol


def _side_normals(u: Vec2, w: Vec2) -> tuple[tuple[Vec2, float], tuple[Vec2, float]]:
    """Unit outward normal and positive offset of the two side-line
    families of the parallelogram with generator pair (u, w)."""
    out = []
    for a, b in ((u, w), (w, -u)):
        e = b - a
        n = Vec2(e.y, -e.x)
        nn = n.norm()
        if nn <= DEGENERATE_TOL:
            raise ValueError("degenerate side: generators are collinear")
        n = Vec2(n.x / nn, n.y / nn)
        offset = n.dot(a)
        if offset < 0.0:
            n, offset = -n, -offset
        out.append((n, offset))
    return out[0], out[1]


@dataclass(frozen=True)
class BalanceReport:
    """Balanced member of an inscribed family: the parallelogram, its
    circumscribed ratio, the arc parameter where both side-strip ratios
    agree, and the residual of the balance equation there."""

    parallelogram: Parallelogram
    ratio: float
    arc_parameter: float
    residual: float


def _strip_ratio_gap(c: CentralPolygon, u: Vec2, w: Vec2) -> float:
    """Difference of the two supporting-strip to side-strip width ratios
    for the parallelogram with generator pair (u, w)."""
    (n1, off1), (n2, off2) = _side_normals(u, w)
    return support(c, n1) / off1 - support(c, n2) / off2


def balance_inscribed(
    c: CentralPolygon,
    arc_lo: float,
    arc_hi: float,
    fixed_t: float,
    residual_tol: float = 1e-9,
    max_iter: int = 200,
) -> BalanceReport:
    """Bisects the inscribed family with one generator pinned at
    boundary_point(fixed_t) and the other sweeping boundary_point(c) for
    c in [arc_lo, arc_hi], looking for the member whose two side-strip
    width ratios agree.

    At the balanced parameter both supporting strips exceed the side
    strips by the same factor, so that common factor is exactly the
    circumscribed ratio of the member.  Raises if the ratio gap does not
    change sign over the arc, or if bisection fails to reach the residual
    tolerance within ``max_iter`` steps.
    """
    u = boundary_point(c, fixed_t)

    def gap(t: float) -> float:
        return _strip_ratio_gap(c, u, boundary_point(c, t))

    lo, hi = float(arc_lo), float(arc_hi)
    f_lo, f_hi = gap(lo), gap(hi)
    c0, f0 = (lo, f_lo) if abs(f_lo) <= abs(f_hi) else (hi, f_hi)
    if abs(f0) > residual_tol:
        if f_lo * f_hi > 0.0:
            raise ValueError(
                "family not balanceable on this arc: the strip-ratio gap "
                f"has the same sign at both endpoints ({f_lo:.3g}, {f_hi:.3g})"
            )
        for _ in range(max_iter):
            c0 = 0.5 * (lo + hi)
            f0 = gap(c0)
            if abs(f0) <= residual_tol:
                break
            if (f0 > 0.0) == (f_hi > 0.0):
                hi, f_hi = c0, f0
            else:
                lo, f_lo = c0, f0
        else:
            raise ValueError(
                f"balance bisection did not converge within {max_iter} "
                f"iterations (residual {abs(f0):.3g})"
            )

    member = Parallelogram.from_unordered(u, boundary_point(c, c0))
    return BalanceReport(
        parallelogram=member,
        ratio=circum_ratio(member, c),
        arc_parameter=c0,
        residual=abs(f0),
    )


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
