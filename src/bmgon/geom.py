"""Planar convex-geometry kernel for centrally symmetric polygons.

Provides immutable value types (vectors, polygons with exact central
symmetry, symmetric strips) together with a boundary parametrization,
the width-ratio identity for nested parallel strips, and the linear
symmetries of a polygon.
Everything here is pure double-precision arithmetic with no hidden state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Vec2",
    "CentralPolygon",
    "Strip",
    "regular_polygon",
    "boundary_point",
    "transversal_ratio",
    "polygon_gauge",
    "boundary_crossing",
    "boundary_distance",
    "line_intersection",
    "linear_image",
    "apply_linear",
    "symmetry_map",
    "polygon_symmetries",
    "parse_polygon",
    "format_polygon",
]

# mirror-pair residue allowed at construction before exact re-negation
SYMMETRY_TOL = 1e-9
# unit-normal residue allowed on strips, and the parallelism threshold
UNIT_TOL = 1e-12
# vertex-image residue allowed by symmetry_map, relative to the largest
# vertex norm
SYMMETRY_MAP_TOL = 1e-9

Mat2 = tuple[tuple[float, float], tuple[float, float]]


@dataclass(frozen=True)
class Vec2:
    """Point or direction in the plane; both coordinates must be finite."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite coordinates ({self.x}, {self.y})")

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def __mul__(self, s: float) -> "Vec2":
        return Vec2(self.x * s, self.y * s)

    __rmul__ = __mul__

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y

    def dot(self, other: "Vec2") -> float:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Vec2") -> float:
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def normalized(self) -> "Vec2":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return Vec2(self.x / n, self.y / n)

    def perp(self) -> "Vec2":
        """Rotation by a quarter turn counterclockwise."""
        return Vec2(-self.y, self.x)


class CentralPolygon:
    """Convex polygon with vertices v[0..2m-1] in counterclockwise order,
    v[i + m] = -v[i] exactly, and the origin strictly inside.

    The constructor accepts the full vertex list, checks the mirror pairs
    within ``SYMMETRY_TOL``, and then rebuilds the second half by exact
    negation so that antipodal identities hold bit for bit.
    """

    __slots__ = ("vertices",)

    vertices: tuple[Vec2, ...]

    def __init__(self, vertices: Iterable[Vec2 | tuple[float, float]]):
        verts = [v if isinstance(v, Vec2) else Vec2(v[0], v[1]) for v in vertices]
        n = len(verts)
        if n < 4 or n % 2 != 0:
            raise ValueError(f"vertex count must be even and at least 4, got {n}")
        m = n // 2
        for i in range(m):
            a, b = verts[i], verts[i + m]
            if abs(a.x + b.x) > SYMMETRY_TOL or abs(a.y + b.y) > SYMMETRY_TOL:
                raise ValueError(
                    f"central symmetry violated: vertex {i + m} is not the "
                    f"negation of vertex {i} within {SYMMETRY_TOL}"
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
        object.__setattr__(self, "vertices", tuple(verts))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("CentralPolygon is immutable")

    @property
    def m(self) -> int:
        """Half the vertex count, which is also the boundary half-period."""
        return len(self.vertices) // 2

    def __repr__(self) -> str:
        return f"CentralPolygon({len(self.vertices)} vertices)"


@dataclass(frozen=True)
class Strip:
    """Set of points x with |x . normal| <= half_width; normal is unit."""

    normal: Vec2
    half_width: float

    def __post_init__(self) -> None:
        if abs(self.normal.norm() - 1.0) > UNIT_TOL:
            raise ValueError("strip normal must be a unit vector")
        if not (math.isfinite(self.half_width) and self.half_width > 0.0):
            raise ValueError("strip half-width must be positive and finite")

    @property
    def width(self) -> float:
        return 2.0 * self.half_width


def regular_polygon(n: int) -> CentralPolygon:
    """Regular n-gon (n even, n >= 4) with vertex j at angle 2*pi*j/n on
    the unit circle, so vertex 0 is (1, 0)."""
    if n % 2 != 0 or n < 4:
        raise ValueError(f"n must be even and at least 4, got {n}")
    step = 2.0 * math.pi / n
    return CentralPolygon(Vec2(math.cos(step * j), math.sin(step * j)) for j in range(n))


def boundary_point(polygon: CentralPolygon, t: float) -> Vec2:
    """Boundary parametrization: t = i + f maps to the point a fraction f
    along the edge from vertex i to vertex i+1, with period 2m.

    Because antipodal vertices are exact negations, the antipode law
    boundary_point(t + m) == -boundary_point(t) holds up to the rounding
    of t + m itself.
    """
    verts = polygon.vertices
    n = len(verts)
    t = t % n
    if t >= n:  # float mod can round up to the period itself
        t = 0.0
    i = int(t)
    f = t - i
    a, b = verts[i], verts[(i + 1) % n]
    return Vec2(a.x + f * (b.x - a.x), a.y + f * (b.y - a.y))


def transversal_ratio(inner: Strip, outer: Strip, line_dir: Vec2) -> tuple[float, float]:
    """Width ratio of two nested parallel strips next to the ratio of the
    coordinates at which a transversal line through the origin crosses
    their positive boundary lines.

    Returns ``(width_ratio, coordinate_ratio)``.  The two numbers agree
    identically; computing both exercises the identity through separate
    code paths.  The strips must be parallel with ``inner`` contained in
    ``outer``, and the line direction must not be parallel to them.
    """
    n1, n2 = inner.normal, outer.normal
    if abs(n1.cross(n2)) > UNIT_TOL:
        raise ValueError("strips are not parallel")
    if inner.half_width > outer.half_width + UNIT_TOL:
        raise ValueError("inner strip is not contained in the outer strip")
    d = line_dir.normalized()
    proj = d.dot(n1)
    if abs(proj) <= UNIT_TOL:
        raise ValueError("transversal line is parallel to the strip lines")

    width_ratio = outer.width / inner.width

    # crossing points with the positive boundary lines, both expressed in
    # the orientation of the inner normal, and their signed coordinates
    # along the unit line direction
    p1 = d * (inner.half_width / proj)
    p2 = d * (outer.half_width / proj)
    coordinate_ratio = p2.dot(d) / p1.dot(d)
    return width_ratio, coordinate_ratio


def _edges(polygon: CentralPolygon) -> Iterator[tuple[Vec2, Vec2, Vec2, float]]:
    """Yields (a, b, outward_normal, offset) per edge; normals unnormalized."""
    verts = polygon.vertices
    n = len(verts)
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        e = b - a
        normal = Vec2(e.y, -e.x)
        yield a, b, normal, normal.dot(a)


def polygon_gauge(polygon: CentralPolygon, point: Vec2) -> float:
    """Minkowski gauge of the polygon at a point: the smallest r >= 0 with
    point inside r times the polygon.  Equals 1 exactly on the boundary."""
    return max(normal.dot(point) / offset for _, _, normal, offset in _edges(polygon))


def boundary_crossing(polygon: CentralPolygon, direction: Vec2) -> Vec2:
    """The unique boundary point on the open ray from the origin along
    ``direction``."""
    if direction.x == 0.0 and direction.y == 0.0:
        raise ValueError("ray direction must be nonzero")
    g = polygon_gauge(polygon, direction)
    return direction * (1.0 / g)


def boundary_distance(polygon: CentralPolygon, point: Vec2) -> float:
    """Euclidean distance from a point to the boundary polyline."""
    best = math.inf
    for a, b, _, _ in _edges(polygon):
        e = b - a
        ee = e.dot(e)
        t = 0.0 if ee == 0.0 else (point - a).dot(e) / ee
        t = min(1.0, max(0.0, t))
        best = min(best, (point - (a + e * t)).norm())
    return best


def line_intersection(p: Vec2, dp: Vec2, q: Vec2, dq: Vec2) -> Vec2:
    """Intersection of the line through p with direction dp and the line
    through q with direction dq."""
    den = dp.cross(dq)
    if abs(den) <= UNIT_TOL:
        raise ValueError("lines are parallel or degenerate")
    t = (q - p).cross(dq) / den
    return p + dp * t


def apply_linear(mat: Mat2 | Sequence[Sequence[float]], v: Vec2) -> Vec2:
    (a, b), (c, d) = mat
    return Vec2(a * v.x + b * v.y, c * v.x + d * v.y)


def linear_image(polygon: CentralPolygon, mat: Mat2 | Sequence[Sequence[float]]) -> CentralPolygon:
    """Image of the polygon under a nonsingular linear map, reordering the
    vertices when the map reverses orientation."""
    (a, b), (c, d) = mat
    det = a * d - b * c
    if abs(det) <= UNIT_TOL:
        raise ValueError("linear map is singular")
    verts = [apply_linear(mat, v) for v in polygon.vertices]
    if det < 0.0:
        verts.reverse()
    return CentralPolygon(verts)


def symmetry_map(polygon: CentralPolygon, k: int, step: int) -> Mat2 | None:
    """The linear map sending vertex i to vertex k + step * i (indices
    modulo n), if it carries the vertex cycle onto itself; otherwise None.

    The map is fixed by the images of vertices 0 and 1.  Every vertex
    image must match its target within ``SYMMETRY_MAP_TOL`` times the
    largest vertex norm, so the check does not depend on the scale of the
    polygon; the first vertex that misses ends it.
    """
    verts = polygon.vertices
    n = len(verts)
    v0, v1 = verts[0], verts[1]
    det0 = v0.cross(v1)  # nonzero because the origin is strictly interior
    w0, w1 = verts[k % n], verts[(k + step) % n]
    a = (w0.x * v1.y - w1.x * v0.y) / det0
    b = (w1.x * v0.x - w0.x * v1.x) / det0
    c = (w0.y * v1.y - w1.y * v0.y) / det0
    d = (w1.y * v0.x - w0.y * v1.x) / det0
    bound = SYMMETRY_MAP_TOL * max(map(Vec2.norm, verts[: n // 2]))  # antipodes have equal norms
    if all(
        abs(a * verts[i].x + b * verts[i].y - verts[(k + step * i) % n].x) <= bound
        and abs(c * verts[i].x + d * verts[i].y - verts[(k + step * i) % n].y) <= bound
        for i in range(n)
    ):
        return ((a, b), (c, d))
    return None


def polygon_symmetries(polygon: CentralPolygon) -> list[Mat2]:
    """All linear maps that send the vertex cycle of the polygon onto
    itself, as decided by ``symmetry_map``: for each start vertex k in
    order, the orientation-preserving map (step 1) before the reversing
    one (step -1).

    For a regular n-gon this is the dihedral group of order 2n (rotations
    and reflections); any valid polygon at least admits the identity and
    the point reflection through the origin.
    """
    maps: list[Mat2] = []
    for k in range(len(polygon.vertices)):
        for step in (1, -1):
            mat = symmetry_map(polygon, k, step)
            if mat is not None:
                maps.append(mat)
    return maps


def parse_polygon(text: str) -> CentralPolygon:
    """Parses the one-vertex-per-line "x,y" format (full counterclockwise
    vertex list; blank lines ignored)."""
    verts: list[Vec2] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'x,y', got {raw!r}")
        try:
            verts.append(Vec2(float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return CentralPolygon(verts)


def format_polygon(polygon: CentralPolygon) -> str:
    """Writes the "x,y" line format with round-trip-exact decimals."""
    return "".join(f"{v.x:.17g},{v.y:.17g}\n" for v in polygon.vertices)
