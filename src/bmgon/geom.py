"""Planar convex-geometry kernel for centrally symmetric polygons.

Provides immutable value types (vectors and polygons with exact central
symmetry) together with a boundary parametrization and its nearest-point
inverse, the width-ratio identity for nested parallel strips, and the
linear symmetries of a polygon.
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
    "regular_polygon",
    "boundary_point",
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
# line_intersection's parallelism threshold on unit-scaled directions, and
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

    def perp(self) -> "Vec2":
        """Rotation by a quarter turn counterclockwise."""
        return Vec2(-self.y, self.x)


class CentralPolygon:
    """Convex polygon with vertices v[0..2m-1] in counterclockwise order,
    v[i + m] = -v[i] exactly, and the origin strictly inside; the boundary
    winds once around the origin.

    The constructor takes the full vertex list, whose coordinates must be
    finite floats, and runs every check on them divided by the power of
    two 2**e just above the largest |coordinate| of the first m vertices:
    the division is exact, so each check decides as the coordinates would,
    yet no product overflows, and 2**k times the input passes or fails
    alike.  The mirror pairs must match within ``SYMMETRY_TOL`` times the
    largest vertex norm; the second half is then rebuilt by exact negation
    so that antipodal identities hold bit for bit.  The quotients form the
    boundary table ``boundary``, which every reader of the boundary uses.
    Vec2s are made only for the stored ``vertices``.
    """

    __slots__ = ("vertices", "boundary", "radius", "_rotation_step")

    vertices: tuple[Vec2, ...]
    # (e, x, y, dx, dy), the columns tuples of Python floats: vertex i is
    # 2**e (x[i], y[i]) and 2**e (dx[i], dy[i]) the delta to vertex i + 1
    boundary: tuple[int, tuple[float, ...], tuple[float, ...], tuple[float, ...], tuple[float, ...]]
    radius: float  # the largest vertex norm on the table's scale, 2**-e times the polygon's

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
        e, (x, y) = unit_scaled(px[:m], py[:m])
        # the first half lies in (-1, 1) here: a mirror coordinate of 2 or more
        # fails its residue, and is refused before its norm can overflow the bound
        if math.frexp(max(map(abs, px[m:] + py[m:])))[1] > e + 1:
            raise ValueError(f"central symmetry violated: vertices {m} to {n - 1} are too large")
        mx, my = ([math.ldexp(a, -e) for a in p[m:]] for p in (px, py))
        norms = list(map(math.hypot, x + mx, y + my))
        bound = SYMMETRY_TOL * max(norms)
        for i in range(m):
            if abs(x[i] + mx[i]) > bound or abs(y[i] + my[i]) > bound:
                raise ValueError(
                    f"central symmetry violated: vertex {i + m} is not the "
                    f"negation of vertex {i} within {SYMMETRY_TOL} of the largest vertex norm"
                )
        x += [-a for a in x]
        y += [-a for a in y]
        dx = [b - a for a, b in zip(x, x[1:] + x[:1])]
        dy = [b - a for a, b in zip(y, y[1:] + y[:1])]
        for i in range(n):
            j = (i + 1) % n
            if not dx[i] * dy[j] - dy[i] * dx[j] > 0.0:
                raise ValueError(
                    f"vertices are not in strictly convex counterclockwise "
                    f"position (turn at vertex {j} is not left)"
                )
        winding = 0
        for i in range(n):
            j = (i + 1) % n
            if not x[i] * y[j] - y[i] * x[j] > 0.0:
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
        half = [Vec2(a, b) for a, b in zip(px[:m], py[:m])]
        object.__setattr__(self, "vertices", tuple(half + [-v for v in half]))
        object.__setattr__(self, "boundary", (e, tuple(x), tuple(y), tuple(dx), tuple(dy)))
        object.__setattr__(self, "radius", max(norms[:m]))  # antipodes match
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


def unit_scaled(*rows: Sequence[float]) -> tuple[int, list[list[float]]]:
    """(e, the rows divided by 2**e), where 2**(e - 1) <= max |value| < 2**e,
    so every value lands in (-1, 1), exactly for every value above 2**-1021
    times the largest; geom and ``pgram.Parallelogram`` prescale with it."""
    e = math.frexp(max(abs(v) for row in rows for v in row))[1]
    return e, [[math.ldexp(v, -e) for v in row] for row in rows]


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
    of t + m itself.  The point is read from the boundary table and
    scaled by 2**e, exactly; the readers below divide their point by 2**e.
    """
    e, x, y, dx, dy = polygon.boundary
    i, f = locate(t, len(x))
    return Vec2(math.ldexp(x[i] + f * dx[i], e), math.ldexp(y[i] + f * dy[i], e))


def locate(t: float, n: int) -> tuple[int, float]:
    """(edge i, fraction f) of boundary parameter t, with period n: t mod n
    is i + f, 0 <= f < 1; ``boundary_point`` and oracle's objective share it."""
    t = t % n
    if t >= n:  # float mod can round up to the period itself
        t = 0.0
    i = int(t)
    return i, t - i


def strip_ratios(nx, ny, inner_hw, outer_hw, dx, dy):
    """Width ratio of the nested parallel strips |x . n| <= h next to the
    ratio of the coordinates at which a transversal line through the
    origin crosses their positive boundary lines, as
    ``(width_ratio, coordinate_ratio)``.  The lemma's identity is that the
    two agree: the line along the unit direction d meets x . n = h at the
    coordinate h / (d . n).

    Nothing is checked.  ``suite_lemma`` draws its instances so that
    (nx, ny) is the one unit normal of both strips, 0 < inner_hw <=
    outer_hw, and the unit direction (dx, dy) is not parallel to the
    strips (|d . n| > 1e-6)."""
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
    e, *table = polygon.boundary
    px, py = math.ldexp(point.x, -e), math.ldexp(point.y, -e)
    # the outward normal of edge (dx, dy) is (dy, -dx)
    return max((ey * px - ex * py) / (ey * ax - ex * ay) for ax, ay, ex, ey in zip(*table))


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
    its Euclidean distance d from the point, inf when that passes the
    largest float.  The first nearest edge in vertex order wins a tie."""
    n = len(polygon.vertices)
    e, *table = polygon.boundary
    px, py = math.ldexp(point.x, -e), math.ldexp(point.y, -e)
    best = (0.0, math.inf)
    for i, (ax, ay, ex, ey) in enumerate(zip(*table)):
        f = min(1.0, max(0.0, ((px - ax) * ex + (py - ay) * ey) / (ex * ex + ey * ey)))
        d = math.hypot(px - (ax + ex * f), py - (ay + ey * f))
        if d < best[1]:
            best = ((i + f) % n, d)
    return best[0], (math.ldexp(best[1], e) if math.frexp(best[1])[1] + e <= 1024 else math.inf)


def line_intersection(p: Vec2, dp: Vec2, q: Vec2, dq: Vec2) -> Vec2:
    """Intersection of the line through p with direction dp and the line
    through q with direction dq; the parallel test reads each direction
    divided by a power of two, so it does not depend on their lengths."""
    a, b = (math.frexp(max(abs(d.x), abs(d.y)))[1] for d in (dp, dq))  # unit_scaled's e
    unit = math.ldexp(dp.x, -a) * math.ldexp(dq.y, -b) - math.ldexp(dp.y, -a) * math.ldexp(dq.x, -b)
    if abs(unit) <= UNIT_TOL:
        raise ValueError("lines are parallel or degenerate")
    return p + dp * ((q - p).cross(dq) / dp.cross(dq))


def apply_linear(mat: Mat2 | Sequence[Sequence[float]], v: Vec2) -> Vec2:
    (a, b), (c, d) = mat
    return Vec2(a * v.x + b * v.y, c * v.x + d * v.y)


def linear_image(polygon: CentralPolygon, mat: Mat2 | Sequence[Sequence[float]]) -> CentralPolygon:
    """Image of the polygon under a nonsingular linear map, reordering the
    vertices when the map reverses orientation."""
    (a, b), (c, d) = mat
    if not all(map(math.isfinite, (a, b, c, d))):
        raise ValueError(f"linear map has a non-finite entry: {mat}")
    # the test reads the entries divided by a power of two, as the table does
    _, ((a, b), (c, d)) = unit_scaled((a, b), (c, d))
    det = a * d - b * c
    if not abs(det) > UNIT_TOL * (a * a + b * b + c * c + d * d):
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
    polygon; the first vertex that misses ends it.  Both read the boundary
    table, so the map and the decision are those of the coordinates
    themselves, with no product underflowing at small scales.
    """
    _, x, y, _, _ = polygon.boundary
    n = len(x)
    det0 = x[0] * y[1] - y[0] * x[1]  # nonzero because the origin is strictly interior
    p, q = k % n, (k + step) % n
    a = (x[p] * y[1] - x[q] * y[0]) / det0
    b = (x[q] * x[0] - x[p] * x[1]) / det0
    c = (y[p] * y[1] - y[q] * y[0]) / det0
    d = (y[q] * x[0] - y[p] * x[1]) / det0
    bound = SYMMETRY_TOL * polygon.radius
    if all(
        abs(a * x[i] + b * y[i] - x[(k + step * i) % n]) <= bound
        and abs(c * x[i] + d * y[i] - y[(k + step * i) % n]) <= bound
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
