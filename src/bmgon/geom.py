"""Planar convex-geometry kernel for centrally symmetric polygons.

Provides immutable value types (vectors, polygons with exact central
symmetry, symmetric strips) together with a boundary parametrization and
its nearest-point inverse, the width-ratio identity for nested parallel
strips, and the linear symmetries of a polygon.
Everything here is pure double-precision arithmetic; the only state a
polygon keeps beyond its vertices is derived from them.
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
    "strip_ratios",
    "polygon_gauge",
    "boundary_crossing",
    "boundary_projection",
    "line_intersection",
    "linear_image",
    "apply_linear",
    "symmetry_map",
    "polygon_symmetries",
    "parse_polygon",
    "format_polygon",
]

# vertex residue allowed relative to the largest vertex norm: of a mirror
# pair at construction, before exact re-negation, and of a vertex image
# in symmetry_map
SYMMETRY_TOL = 1e-9
# unit-normal residue allowed on strips, the parallelism threshold, and
# linear_image's singularity threshold on |det| / (a^2 + b^2 + c^2 + d^2)
UNIT_TOL = 1e-12

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
    v[i + m] = -v[i] exactly, and the origin strictly inside; the boundary
    winds once around the origin.

    The constructor accepts the full vertex list, takes its coordinates
    as Python floats, checks the mirror pairs within ``SYMMETRY_TOL``
    times the largest vertex norm, and then rebuilds the second half by
    exact negation so that antipodal identities hold bit for bit.  From
    those vertices it builds the boundary table ``edges`` once, which
    every reader of the boundary uses.  The convexity, origin and winding
    checks run on the table's floats, (dx, dy) being exactly b - a, and Vec2s
    are made only for the stored ``vertices``.
    """

    __slots__ = ("vertices", "edges", "radius", "_rotation_step")

    vertices: tuple[Vec2, ...]
    # the boundary table (x, y, dx, dy) of Python floats: vertex i is
    # (x[i], y[i]) and (dx[i], dy[i]) is the delta from it to vertex i + 1
    edges: tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...], tuple[float, ...]]
    radius: float  # the largest vertex norm

    def __init__(self, vertices: Iterable[Vec2 | tuple[float, float]]):
        px, py = [], []
        for a, b in vertices:
            a, b = float(a), float(b)
            if not (math.isfinite(a) and math.isfinite(b)):
                raise ValueError(f"non-finite coordinates ({a}, {b})")
            px.append(a)
            py.append(b)
        n = len(px)
        if n < 4 or n % 2 != 0:
            raise ValueError(f"vertex count must be even and at least 4, got {n}")
        m = n // 2
        bound = SYMMETRY_TOL * max(map(math.hypot, px, py))
        for i in range(m):
            if abs(px[i] + px[i + m]) > bound or abs(py[i] + py[i + m]) > bound:
                raise ValueError(
                    f"central symmetry violated: vertex {i + m} is not the "
                    f"negation of vertex {i} within {SYMMETRY_TOL} of the largest vertex norm"
                )
        x = px[:m] + [-a for a in px[:m]]
        y = py[:m] + [-a for a in py[:m]]
        dx = [b - a for a, b in zip(x, x[1:] + x[:1])]
        dy = [b - a for a, b in zip(y, y[1:] + y[:1])]
        for i in range(n):
            j = (i + 1) % n
            turn = dx[i] * dy[j] - dy[i] * dx[j]
            if not math.isfinite(turn):  # an edge delta can overflow: Vec2 rejects it
                Vec2(dx[i], dy[i]), Vec2(dx[j], dy[j])
            if turn <= 0.0:
                raise ValueError(
                    f"vertices are not in strictly convex counterclockwise "
                    f"position (turn at vertex {j} is not left)"
                )
        winding = 0
        for i in range(n):
            j = (i + 1) % n
            if x[i] * y[j] - y[i] * x[j] <= 0.0:
                raise ValueError("origin is not strictly interior")
            winding += y[i] < 0.0 <= y[j]
        # with the origin strictly left of every edge the polar angle rises
        # along the boundary, so each upward crossing of the positive x axis
        # is one more turn; a star polygon such as {10/3} makes several
        if winding != 1:
            raise ValueError(f"the boundary winds {winding} times around the origin, not once")
        # lists, not iterators, feed the tuples: over 400 `verify all`
        # runs in one process, tuple(genexpr) raised the peak RSS by 5%
        # and tuple(map(Vec2, x, y)) by 1%, against lists
        object.__setattr__(self, "vertices", tuple([Vec2(a, b) for a, b in zip(x, y)]))
        object.__setattr__(self, "edges", (tuple(x), tuple(y), tuple(dx), tuple(dy)))
        object.__setattr__(self, "radius", max(map(math.hypot, x[:m], y[:m])))  # antipodes match
        object.__setattr__(self, "_rotation_step", 0)  # found on first use

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("CentralPolygon is immutable")

    @property
    def m(self) -> int:
        """Half the vertex count, which is also the boundary half-period."""
        return len(self.vertices) // 2

    @property
    def rotation_step(self) -> int:
        """Smallest vertex-index step k of a rotation of the polygon, that is
        of a symmetry sending vertex i to vertex i + k; m when the only
        rotations are the identity and the point reflection.  Found by
        ``symmetry_map`` on first use and kept.

        The steps modulo m form a cyclic subgroup of Z_m, whose generator
        divides m, so the divisors of m are tried in ascending order."""
        if not self._rotation_step:
            m = self.m
            divisors = (k for k in range(1, m) if m % k == 0)
            step = next((k for k in divisors if symmetry_map(self, k, 1) is not None), m)
            object.__setattr__(self, "_rotation_step", step)
        return self._rotation_step

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
    x, y, dx, dy = polygon.edges
    n = len(x)
    t = t % n
    if t >= n:  # float mod can round up to the period itself
        t = 0.0
    i = int(t)
    f = t - i
    return Vec2(x[i] + f * dx[i], y[i] + f * dy[i])


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
    if abs(d.dot(n1)) <= UNIT_TOL:
        raise ValueError("transversal line is parallel to the strip lines")
    return strip_ratios(n1.x, n1.y, inner.half_width, outer.half_width, d.x, d.y)


def strip_ratios(nx, ny, inner_hw, outer_hw, dx, dy):
    """``transversal_ratio``'s two ratios from components, with no checks:
    the strips' unit normal (nx, ny), their half-widths, and the unit
    direction (dx, dy) of the transversal."""
    proj = dx * nx + dy * ny
    width_ratio = (2.0 * outer_hw) / (2.0 * inner_hw)

    # crossing points with the positive boundary lines, both expressed in
    # the orientation of the inner normal, are the direction times these
    # factors; their signed coordinates along the unit line direction
    a1, a2 = inner_hw / proj, outer_hw / proj
    coordinate_ratio = ((dx * a2) * dx + (dy * a2) * dy) / ((dx * a1) * dx + (dy * a1) * dy)
    return width_ratio, coordinate_ratio


def polygon_gauge(polygon: CentralPolygon, point: Vec2) -> float:
    """Minkowski gauge of the polygon at a point: the smallest r >= 0 with
    point inside r times the polygon.  Equals 1 exactly on the boundary."""
    px, py = point.x, point.y
    # the outward normal of edge (dx, dy) is (dy, -dx)
    return max((ey * px - ex * py) / (ey * ax - ex * ay) for ax, ay, ex, ey in zip(*polygon.edges))


def boundary_crossing(polygon: CentralPolygon, direction: Vec2) -> Vec2:
    """The unique boundary point on the open ray from the origin along
    ``direction``."""
    if direction.x == 0.0 and direction.y == 0.0:
        raise ValueError("ray direction must be nonzero")
    g = polygon_gauge(polygon, direction)
    return direction * (1.0 / g)


def boundary_projection(polygon: CentralPolygon, point: Vec2) -> tuple[float, float]:
    """Nearest boundary point to a point, as ``(t, d)``: its boundary
    parameter t in [0, n), so that boundary_point(t) is that point, and
    its Euclidean distance d from the point.  The first nearest edge in
    vertex order wins a tie."""
    n = len(polygon.vertices)
    px, py = point.x, point.y
    best = (0.0, math.inf)
    for i, (ax, ay, ex, ey) in enumerate(zip(*polygon.edges)):
        f = min(1.0, max(0.0, ((px - ax) * ex + (py - ay) * ey) / (ex * ex + ey * ey)))
        d = math.hypot(px - (ax + ex * f), py - (ay + ey * f))
        if d < best[1]:
            best = ((i + f) % n, d)
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
    if abs(det) <= UNIT_TOL * (a * a + b * b + c * c + d * d):
        raise ValueError("linear map is singular")
    verts = [apply_linear(mat, v) for v in polygon.vertices]
    if det < 0.0:
        verts.reverse()
    return CentralPolygon(verts)


def symmetry_map(polygon: CentralPolygon, k: int, step: int) -> Mat2 | None:
    """The linear map sending vertex i to vertex k + step * i (indices
    modulo n), if it carries the vertex cycle onto itself; otherwise None.

    The map is fixed by the images of vertices 0 and 1.  Every vertex
    image must match its target within ``SYMMETRY_TOL`` times the
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
    bound = SYMMETRY_TOL * polygon.radius
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
    the point reflection through the origin.  The search's class key does
    not use these maps: the tests check its classes against them in the
    plane, and the benchmark's span tracer names this function.
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
