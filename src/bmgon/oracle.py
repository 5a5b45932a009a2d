"""Brute-force search for the minimal circumscribed ratio over inscribed
origin-symmetric parallelograms of a centrally symmetric polygon.

The search space is the pair of boundary parameters (t1, t2) of the two
generators, with t2 = t1 + s and s in (0, m) so that the generators are
counterclockwise.  Each parallelogram conv{+-u, +-v} has four such
labellings, (u, v), (-u, -v), (v, -u) and (-v, u), so the objective
satisfies F(t1, s) = F(t1 + m, s) = F(t1 + s, m - s).  A rotation of the
polygon that sends vertex i to vertex i + k sends boundary parameter t
to t + k, so F(t1 + k, s) = F(t1, s) as well; the smallest such step k
divides m, and k = m when the only rotations are the identity and the
point reflection.  The objective is therefore scanned on one rotation
period t1 in [0, k), s in (0, m/2]: a quarter of the parameter torus
for a polygon without rotations, and m/k times less for one with them.
The objective, the maximal parallelogram gauge over the polygon's
vertices, is evaluated on a lattice of that domain (``grid_scan``), and
each start cell the scan picks is then refined by an exact box walk.

Inside an edge-pair cell, with u = A + f dA on edge a and v = B + g dB on
edge b, every sheet numerator N_w = |cross(w, v)| + |cross(u, w)| is
affine in the edge fractions (f, g): the line through the origin and a
vertex w meets the boundary only at +-w, so neither cross product
changes sign on an open edge.  The common denominator D = cross(u, v) is
bilinear.  So the least value of max_w N_w / D over a box of a cell is
the least value among finitely many candidates (``_box_min``): the box
corners, the points of the box sides where two sheets tie, the points
where three sheets tie, and the critical points of the ratio along the
tie line of two sheets.  Along either side direction, f or g alone
moving, N_w / D is affine over affine and so monotone: a minimum where
one sheet leads is matched at a side or a tie, and where two lead it
lies on their tie line, where N_w is affine and D quadratic.  A sheet
whose largest value over the box is below the largest least value of
some sheet is below that sheet everywhere in the box, so it is pruned
exactly before the candidates are listed.

The walk (``_make_walk``) moves from each start cell of the scan to the
least candidate of a square of one scan cell around its point, split
along the cell lines into boxes, until that candidate lies strictly
inside the square: a local minimum.  It thus ends at a candidate, such
as those where the paper's values are attained: a generator at a
polygon vertex, or three sheets tied.  The walk may leave the scanned
domain; its end labels the same parallelogram either way.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .geom import CentralPolygon, Vec2, boundary_point, locate, symmetry_map
from .pgram import Parallelogram, circum_ratio, contacts

__all__ = [
    "SearchSettings",
    "BMResult",
    "StartRecord",
    "grid_scan",
    "bm_distance",
    "argmin_orbit",
]

@dataclass(frozen=True)
class SearchSettings:
    """The search's constants, in one record; the search reads them from
    ``DEFAULT_SETTINGS`` at call time."""

    # walks over t1 in [0, m); one rotation period of a polygon with
    # r rotations walks from its ceil(starts / r) lowest cells
    starts: int = 5
    max_steps: int = 1000  # steps of one walk


DEFAULT_SETTINGS = SearchSettings()

# positions within ORBIT_TOL of the best value count as optimal, and class
# keys within KEY_TOL, in boundary parameter units, name one class
ORBIT_TOL = 1e-9
KEY_TOL = 1e-6

# a parallelogram is feasible only where den = cross(u, v) > FEASIBLE_DEN
# on the boundary table's coordinates, which are those of the polygon
# divided by the power of two just above its largest |coordinate|;
# evaluate, grid_scan and the box walk give every other point +inf
FEASIBLE_DEN = 1e-300

# largest grid_scan accepts: a polygon without rotations then scans
# 2048 x 2048 cells, and F, the only array of that size, takes 34 MB
MAX_GRID = 4096
# cells per row block of grid_scan: the block's three buffers, 384 KiB
# in all, stay in a core's L2 cache while every sheet passes over them.
# Each thread keeps its buffers in _WORKSPACE from its first scan on:
# made afresh per call, the earlier eight (1 MiB) came back as new pages,
# whose minor faults made the median grid-720 search of perfbench's
# distance_fine workload about 12% slower.
# Since ceil(MAX_GRID / 2) <= BLOCK_CELLS, every scan's blocks fit them.
BLOCK_CELLS = 16384
_WORKSPACE = threading.local()


@dataclass(frozen=True)
class StartRecord:
    """One box walk: its start cell (t1, s), final objective value, the
    cell boxes it solved, the candidate points it listed in them, and its
    stop reason: ``minimum`` (its last move ended strictly inside the
    square, at a local minimum), ``rounding`` (the least point of a
    square was not below the current value by more than rounding) or
    ``max_steps``."""

    t1: float
    s: float
    value: float
    boxes: int
    candidates: int
    stop: str


@dataclass(frozen=True)
class BMResult:
    """Minimal ratio found, its witness parallelogram and boundary
    parameters, the polygon vertices realizing the ratio, and a record of
    each walk; t_u and t_v - t_u are the witness's class key."""

    lam: float
    parallelogram: Parallelogram
    t_u: float
    t_v: float
    contacts: tuple[Vec2, ...]
    grid_resolution: int
    starts: tuple[StartRecord, ...] = field(default=(), compare=False)


def _class_key_fn(c: CentralPolygon) -> Callable[[float, float], tuple[float, float]]:
    """Class key of the polygon's positions (t1, s): one canonical image
    per class, so the image reported does not hang on the walks'
    rounding.  A symmetry v_i -> v_(k + step*i) sends t to k + step*t,
    and is a rotation by a multiple of the rotation step k after the
    identity or the reflection t -> r - t of least r, below k, which
    sends (t1, s) to (r - t1 - s, s).  The key is the least (t1 mod k, s)
    with s <= m/2 over the position, its relabelling (t1 + s, m - s) and
    their reflections.  Both bounds carry KEY_TOL, so rounding at a vertex
    or at s = m/2 keeps the key; its t1 lies in (-KEY_TOL, k - KEY_TOL]."""
    m, k = c.m, c.rotation_step
    r = next((r for r in range(k) if symmetry_map(c, r, -1) is not None), None)

    def key(t1: float, s: float) -> tuple[float, float]:
        images = [(t1, s), (t1 + s, m - s)]
        if r is not None:
            images += [(r - t1 - s, s), (r - t1 - m, m - s)]
        wrapped = ((a % k, b) for a, b in images if b <= 0.5 * m + KEY_TOL)
        return min((a - k if a > k - KEY_TOL else a, b) for a, b in wrapped)

    return key


def _same_class(a: tuple[float, float], b: tuple[float, float]) -> bool:
    return abs(a[0] - b[0]) <= KEY_TOL and abs(a[1] - b[1]) <= KEY_TOL


def _block_buffers() -> tuple[np.ndarray, ...]:
    """The calling thread's three ``grid_scan`` block buffers, made on its first call."""
    buffers = getattr(_WORKSPACE, "buffers", None)
    if buffers is None:
        buffers = tuple(np.empty((3, BLOCK_CELLS)))
        _WORKSPACE.buffers = buffers
    return buffers


def _hankel(a: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """View of contiguous a's last axis as ``shape``, [..., i, j] = a[..., 2i + j]
    (numpy's as_strided kept ~1 KiB per array it viewed; the constructor keeps none)."""
    *outer, inner = a.strides
    return np.ndarray((*a.shape[:-1], *shape), a.dtype, a, 0, (*outer, 2 * inner, inner))


def _lattice_step(m, grid):
    """m / grid rounded down to 36 significant bits, elementwise, so that
    each (l + 1/2) times it with 2l + 1 < 2**17 is a float."""
    mantissa, exponent = np.frexp(m / grid)
    return np.ldexp(np.floor(np.ldexp(mantissa, 36)), exponent - 36)


def grid_scan(c: CentralPolygon, grid: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Objective on one rotation period t1 in [0, k), s in (0, m/2], where
    k is the polygon's rotation step (m for a polygon without rotations).

    The cells lie on the lattice t1 = 2ih, s = (j + 1/2)h of step
    h = ``_lattice_step(m, grid)``: the ceil(k * grid / 2m) rows with
    t1 < k and the first ceil(grid/2) values of s, the last within h/2 of
    m/2.  Every other parameter pair labels the same parallelogram as one
    of these, or a rotated copy of it, since
    F(t1, s) = F(t1 + k, s) = F(t1 + m, s) = F(t1 + s, m - s).

    Returns (t1 values, s values, F) with shapes (r,), (c,) and (r, c),
    r = ceil(k * grid / 2m) and c = ceil(grid/2), where F[i, j] is the
    maximal vertex gauge of the parallelogram with generators at
    boundary parameters t1[i] and t1[i] + s[j]; cells with
    cross(u, v) <= ``FEASIBLE_DEN`` hold +inf.  Raises ValueError unless
    8 <= grid <= ``MAX_GRID``.

    Each sum t1[i] + s[j] = (2i + j + 1/2)h is exact, since every cell's
    2(2i + j) + 1 < 2**17 up to ``MAX_GRID``, so v depends on the lattice
    index 2i + j alone.  u per row, v per lattice point and the sheet
    terms |cross(u, w)| per row and |cross(w, v)| per lattice point (per
    row block) are 1-D arrays, read from ``CentralPolygon.boundary`` as
    ``geom.boundary_point`` reads it; a cell reads them at 2i + j through
    Hankel views and takes the operations ``evaluate`` takes, so F[i, j]
    equals ``evaluate(t1[i], s[j])`` bit for bit, whatever the block
    size.  The table's coordinates lie in (-1, 1), so no product
    overflows, and F is the same for the polygon scaled by any power of
    two.  F, the only array of the grid's size, is new on each call; the
    blocks of rows, about ``BLOCK_CELLS`` cells each, are evaluated in
    three per-thread buffers that stay in a core's cache through the pass
    over all m sheets, and a block writes every buffer element it reads,
    so no value passes from one scan to the next or between threads.
    """
    if grid < 8:
        raise ValueError(f"grid must be at least 8, got {grid}")
    if grid > MAX_GRID:
        raise ValueError(f"grid must be at most {MAX_GRID}, got {grid}")
    x, y, dx, dy = (np.array(column) for column in c.boundary[1:])
    m = len(x) // 2
    rows = -(-c.rotation_step * grid // (2 * m))
    half = (grid + 1) // 2
    h = _lattice_step(m, grid)
    t1 = np.arange(rows) * (2.0 * h)
    s = (np.arange(half) + 0.5) * h
    # u per row and v per lattice point; t < 1.5 m < n needs no reducing
    params = ((t, t.astype(np.intp)) for t in (t1, (np.arange(2 * rows + half - 2) + 0.5) * h))
    ux, uy, vx, vy = (a[e] + (t - e) * d[e] for t, e in params for a, d in ((x, dx), (y, dy)))
    # |cross(u, w)| per sheet and row; antipodal vertices have equal gauge
    cu = np.abs(ux[:, None] * y[:m, None, None] - uy[:, None] * x[:m, None, None])
    f = np.empty((rows, half))
    step = BLOCK_CELLS // half
    buffers = tuple(buf[: min(step, rows) * half].reshape(-1, half) for buf in _block_buffers())
    with np.errstate(divide="ignore", invalid="ignore"):
        for r0 in range(0, rows, step):
            block = slice(r0, r0 + step)
            den, g, best = (buf[: min(step, rows - r0)] for buf in buffers)
            lattice = slice(2 * r0, 2 * r0 + 2 * len(den) + half - 2)
            np.multiply(ux[block, None], _hankel(vy[lattice], den.shape), out=den)
            np.multiply(uy[block, None], _hankel(vx[lattice], den.shape), out=g)
            den -= g
            # |cross(w, v)| per sheet and lattice point of the block
            cv = vy[lattice] * x[:m, None]
            cv -= vx[lattice] * y[:m, None]
            sheets = zip(_hankel(np.abs(cv, out=cv), den.shape), cu[:, block])
            np.add(*next(sheets), out=best)
            for cw, uw in sheets:
                np.add(cw, uw, out=g)
                np.maximum(best, g, out=best)
            fb = np.divide(best, den, out=f[block])
            fb[den <= FEASIBLE_DEN] = np.inf
    return t1, s, f


def _make_objective(c: CentralPolygon) -> Callable[[float, float], float]:
    """``evaluate(t1, s)``: the scalar objective, which ``grid_scan``
    matches bit for bit and every walk records.  It reads the generators
    from ``CentralPolygon.boundary`` as ``geom.boundary_point`` does, and
    is +inf where den = cross(u, v) <= ``FEASIBLE_DEN``; otherwise it is
    the largest numerator over den, the largest sheet bit for bit, since
    rounded division by a positive number is monotone."""
    _, xs, ys, dxs, dys = c.boundary
    n = len(xs)
    half = list(zip(xs[: n // 2], ys[: n // 2]))  # antipodal vertices have equal gauge

    def evaluate(t1: float, s: float) -> float:
        a, fu = locate(t1, n)
        ux, uy = xs[a] + fu * dxs[a], ys[a] + fu * dys[a]
        b, fv = locate(t1 + s, n)
        vx, vy = xs[b] + fv * dxs[b], ys[b] + fv * dys[b]
        den = ux * vy - uy * vx
        if not den > FEASIBLE_DEN:
            return math.inf
        return max(abs(wx * vy - wy * vx) + abs(ux * wy - uy * wx) for wx, wy in half) / den

    return evaluate


def _cell_forms(c: CentralPolygon, a: int, b: int) -> tuple[list, tuple]:
    """``(sheets, den)`` of the cell with u on edge a and v on edge b, on
    the table ``CentralPolygon.boundary``: N_w = n0 + nf f + ng g
    for ``sheets[w] = (n0, nf, ng)``, and cross(u, v) = d0 + df f + dg g
    + dfg f g for ``den = (d0, df, dg, dfg)``.  cross(u, w) is positive
    on the open edge a exactly for w = a + 1 ... a + m, the vertices
    counterclockwise of u within a half turn, and cross(w, v) negative
    exactly for w = b + 1 ... b + m."""
    _, xs, ys, dxs, dys = c.boundary
    n = len(xs)
    m = n // 2
    xa, ya, xb, yb = xs[a], ys[a], xs[b], ys[b]
    dxa, dya, dxb, dyb = dxs[a], dys[a], dxs[b], dys[b]
    sheets = []
    for w in range(m):
        wx, wy = xs[w], ys[w]
        su = 1.0 if (w - a - 1) % n < m else -1.0
        sv = -1.0 if (w - b - 1) % n < m else 1.0
        nu, nv = su * (xa * wy - ya * wx), sv * (wx * yb - wy * xb)
        sheets.append((nu + nv, su * (dxa * wy - dya * wx), sv * (wx * dyb - wy * dxb)))
    den = (xa * yb - ya * xb, dxa * yb - dya * xb, xa * dyb - ya * dxb, dxa * dyb - dya * dxb)
    return sheets, den


def _prune(sheets: list, box: tuple[float, float, float, float], keep) -> list[int]:
    """The sheets of ``keep`` whose largest value over the box
    (f0, f1, g0, g1) is at least the largest least value of any of them;
    each affine N_w ranges over centre +- (|nf| wf + |ng| wg)."""
    f0, f1, g0, g1 = box
    fc, gc, wf, wg = 0.5 * (f0 + f1), 0.5 * (g0 + g1), 0.5 * (f1 - f0), 0.5 * (g1 - g0)
    bounds = []
    for w in keep:
        n0, nf, ng = sheets[w]
        mid, spread = n0 + nf * fc + ng * gc, abs(nf) * wf + abs(ng) * wg
        bounds.append((mid + spread, mid - spread, w))
    least = max(lo for _, lo, _ in bounds)
    return [w for hi, _, w in bounds if hi >= least]


def _box_min(forms: tuple, box: tuple[float, float, float, float], keep: list[int]):
    """The least candidate of the module docstring in the box
    (f0, f1, g0, g1) of a cell with ``_cell_forms`` ``forms``, over the
    sheets ``keep``, as ``(value, f, g, candidates listed)``; +inf when
    none has D > ``FEASIBLE_DEN``.  A tie candidate's full maximum is
    taken only when its tied sheet alone is below the best value so far."""
    sheets, (d0, d1, d2, d3) = forms
    rows = [sheets[w] for w in keep]
    f0, f1, g0, g1 = box
    best, bf, bg, count = math.inf, f0, g0, 0

    def consider(f: float, g: float, tied: tuple | None = None) -> None:
        nonlocal best, bf, bg, count
        count += 1
        den = d0 + d1 * f + (d2 + d3 * f) * g
        if not den > FEASIBLE_DEN or tied and (tied[0] + tied[1] * f + tied[2] * g) / den >= best:
            return
        value = max(n0 + nf * f + ng * g for n0, nf, ng in rows) / den
        if value < best:
            best, bf, bg = value, f, g

    for f, g in ((f0, g0), (f0, g1), (f1, g0), (f1, g1)):
        consider(f, g)
    for i, (a0, af, ag) in enumerate(rows):
        for j in range(i + 1, len(rows)):
            # the tie line p f + q g = r of sheets i and j
            b0, bf_, bg_ = rows[j]
            p, q, r = af - bf_, ag - bg_, b0 - a0
            ties = [(f, (r - p * f) / q) for f in (f0, f1)] if q else []
            ties += [((r - q * g) / p, g) for g in (g0, g1)] if p else []
            # critical points of N_i / D along it, from its foot (fa, ga)
            # along the unit direction (ex, ey): N_i is alpha + beta t and
            # D is e0 + e1 t + e2 t^2, so (N_i / D)' = 0 is a quadratic
            norm2 = p * p + q * q
            if norm2:
                fa, ga, scale = p * r / norm2, q * r / norm2, 1.0 / math.sqrt(norm2)
                ex, ey = -q * scale, p * scale
                alpha, beta = a0 + af * fa + ag * ga, af * ex + ag * ey
                e0 = d0 + d1 * fa + (d2 + d3 * fa) * ga
                e1, e2 = d1 * ex + d2 * ey + d3 * (fa * ey + ga * ex), d3 * ex * ey
                qa, qb, qc = beta * e2, 2.0 * alpha * e2, alpha * e1 - beta * e0
                disc = qb * qb - 4.0 * qa * qc
                if qa and disc >= 0.0:
                    half = -0.5 * (qb + math.copysign(math.sqrt(disc), qb))
                    roots = (half / qa, qc / half) if half else (0.0,)
                else:
                    roots = (-qc / qb,) if not qa and qb else ()
                ties += [(fa + t * ex, ga + t * ey) for t in roots]
            # three-sheet ties, one 2x2 solve each
            for k0, kf, kg in rows[j + 1 :]:
                p2, q2, r2 = af - kf, ag - kg, k0 - a0
                det = p * q2 - q * p2
                if det:
                    ties.append(((r * q2 - q * r2) / det, (p * r2 - r * p2) / det))
            for f, g in ties:
                if f0 <= f <= f1 and g0 <= g <= g1:
                    consider(f, g, rows[i])
    return best, bf, bg, count


def _spans(lo: float, hi: float) -> list[tuple[int, float, float]]:
    """The cells that [lo, hi] meets, as (cell, least fraction, largest
    fraction); an end on a cell line belongs to the cell below it."""
    first, last = math.floor(lo), math.floor(hi)
    if last > first and hi == last:
        last -= 1
    return [(a, max(lo - a, 0.0), min(hi - a, 1.0)) for a in range(first, last + 1)]


def _make_walk(c: CentralPolygon, radius: float) -> Callable[[float, float], tuple]:
    """``walk(t1, s)``: the box walk of the module docstring from (t1, s),
    as ``(t1, s, value, boxes, candidates, stop)``, with squares of half
    width r <= ``radius`` in (t1, t1 + s).  While more than eight sheets
    survive the prune of some box of the square and halving the square
    lowers that count, the square is halved: the three-sheet ties grow as
    the cube of the survivors, and a regular polygon's optimum ties four
    sheets, which no halving prunes.  The least candidate is evaluated,
    and the walk moves there when that is below its value by more than
    rounding, or stops with ``rounding``.  A move strictly inside the
    square stops it with ``minimum``; one to a side doubles r, up to
    ``radius``.  It stops with ``max_steps`` after
    ``SearchSettings.max_steps`` steps.  Cell forms are kept per walk
    function; the boxes and ``evaluate`` read the boundary table, so a
    polygon scaled by a power of two walks through the same points."""
    evaluate = _make_objective(c)
    n, m = len(c.vertices), c.m
    cache: dict[tuple[int, int], tuple] = {}

    def boxes_of(tu: float, tv: float, r: float, keeps: dict) -> dict:
        out = {}
        for a, f0, f1 in _spans(tu - r, tu + r):
            for b, g0, g1 in _spans(tv - r, tv + r):
                key = (a % n, b % n)
                cell = cache[key] if key in cache else cache.setdefault(key, _cell_forms(c, *key))
                box = (f0, f1, g0, g1)
                out[a, b] = (cell, box, _prune(cell[0], box, keeps.get((a, b), range(m))))
        return out

    def walk(t1: float, s: float) -> tuple:
        tu, tv, value, r = t1, t1 + s, math.inf, radius
        boxes = candidates = 0
        stop = "max_steps"
        for _ in range(DEFAULT_SETTINGS.max_steps):
            found = boxes_of(tu, tv, r, {})
            most = max(len(keep) for _, _, keep in found.values())
            while most > 8:
                halved = boxes_of(tu, tv, 0.5 * r, {k: keep for k, (_, _, keep) in found.items()})
                fewer = max(len(keep) for _, _, keep in halved.values())
                if fewer >= most:
                    break
                found, most, r = halved, fewer, 0.5 * r
            low = (math.inf, tu, tv)
            for (a, b), (cell, box, keep) in found.items():
                lowest, f, g, count = _box_min(cell, box, keep)
                boxes, candidates = boxes + 1, candidates + count
                if lowest < low[0]:
                    low = (lowest, a + f, b + g)
            _, nu, nv = low
            new = evaluate(nu, nv - nu)
            if not new < (value - 4.0 * math.ulp(value) if value < math.inf else math.inf):
                stop = "rounding"
                break
            # a point within rounding of a side of the square is on it
            inside = max(abs(nu - tu), abs(nv - tv)) < r * (1.0 - 2.0**-20)
            tu, tv, value, r = nu, nv, new, min(2.0 * r, radius)
            if inside:
                stop = "minimum"
                break
        return tu, tv - tu, value if value < math.inf else evaluate(tu, tv - tu), boxes, candidates, stop

    return walk


def _lowest_cells(f: np.ndarray, count: int) -> list[tuple[int, int]]:
    """Row and column of the ``count`` lowest cells of F, lowest first;
    equal values go in row-major order, lowest index first.

    The count-th smallest row minimum bounds them, since each of those
    rows holds a cell at or below it, so only the cells at or below that
    bound are sorted, by (value, index).  With fewer rows than ``count``
    the bound is +inf and every cell is sorted."""
    flat = f.ravel()
    count = min(count, flat.size)
    lows = f.min(axis=1)
    bound = np.partition(lows, count - 1)[count - 1] if count <= lows.size else np.inf
    idx = np.flatnonzero(flat <= bound)
    idx = idx[np.lexsort((idx, flat[idx]))[:count]]
    return [divmod(int(j), f.shape[1]) for j in idx]


def _walks(
    c: CentralPolygon, key: Callable, t1s: np.ndarray, ss: np.ndarray, cells, grid: int
) -> list[tuple[tuple[float, float], StartRecord]]:
    """Walks from each cell (i, j) of a scan at resolution ``grid``, with
    squares of half width m/grid, and returns the class key of each end
    with the walk's record."""
    walk = _make_walk(c, c.m / grid)
    ends = []
    for i, j in cells:
        t1, s = float(t1s[i]), float(ss[j])
        a, b, *outcome = walk(t1, s)
        ends.append((key(a, b), StartRecord(t1, s, *outcome)))
    return ends


def bm_distance(c: CentralPolygon, grid: int = 360) -> BMResult:
    """Minimal circumscribed ratio over inscribed parallelograms of the
    polygon, by grid search plus box walks from the lowest cells.

    The witness is drawn at the least class key among the walks within
    ``ORBIT_TOL`` of the best value, from the lowest-valued walk with that
    key.  It is deterministic for fixed arguments, and the returned
    ratio is recomputed from it: ``circum_ratio(parallelogram, c) == lam``.
    Raises ValueError when no cell of the scan is feasible.
    """
    t1s, ss, f = grid_scan(c, grid)
    copies = c.m // c.rotation_step  # rotated copies of each scanned cell
    cells = _lowest_cells(f, -(-DEFAULT_SETTINGS.starts // copies))
    if not f[cells[0]] < np.inf:
        raise ValueError(
            f"no cell of the grid-{grid} scan has cross(u, v) above {FEASIBLE_DEN},"
            " the search's feasibility threshold"
        )
    ends = _walks(c, _class_key_fn(c), t1s, ss, cells, grid)
    best = min(record.value for _, record in ends)
    keyed = sorted((key, record.value) for key, record in ends if record.value <= best + ORBIT_TOL)
    least = keyed[0][0]
    (t1, s), _ = min((end for end in keyed if _same_class(end[0], least)), key=lambda end: end[1])
    witness = Parallelogram(boundary_point(c, t1), boundary_point(c, t1 + s))
    lam = circum_ratio(witness, c)
    return BMResult(
        lam=lam,
        parallelogram=witness,
        t_u=t1,
        t_v=t1 + s,
        contacts=contacts(witness, c, lam),
        grid_resolution=grid,
        starts=tuple(record for _, record in ends),
    )


def _local_minima_mask(f: np.ndarray) -> np.ndarray:
    """Cells not exceeded by any of their 8 neighbors, as ``f`` at or
    below the minimum of the 8 shifted views of the padded F, taken in
    place.

    The t1 axis wraps with the rotation period k, as F does: the first
    row stands in for the last row's successor, which lies less than a
    cell past t1 = k or, the lattice step being m/grid rounded down, at
    most 2**-35 k below it.  The s axis is padded with +inf at both ends;
    across the s = m/2 seam the true neighbors lie in other rows
    (F(t1, s) = F(t1 + s, m - s)), so the padding can only add
    candidates, never drop a minimum."""
    padded = np.pad(f, ((1, 1), (0, 0)), mode="wrap")
    padded = np.pad(padded, ((0, 0), (1, 1)), constant_values=np.inf)
    rows, cols = f.shape
    low = padded[:rows, :cols].copy()
    for i, j in ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1), (2, 2)):
        np.minimum(low, padded[i : i + rows, j : j + cols], out=low)
    return f <= low


def argmin_orbit(c: CentralPolygon, result: BMResult) -> list[Parallelogram]:
    """Representatives, one per symmetry class of the polygon, of the
    optimal parallelogram positions.

    Rescans the grid at the result's resolution, refines every local
    minimum cell near the optimum, and keeps the refined positions with
    objective at most ``result.lam + ORBIT_TOL`` and the result's own
    witness, which makes at least one class even when the best walk of
    ``bm_distance`` started off a local minimum of the grid.  Positions
    whose class keys agree within ``KEY_TOL`` form one class, drawn at
    its least key; the classes come in key order.
    """
    grid = result.grid_resolution
    t1s, ss, f = grid_scan(c, grid)
    key = _class_key_fn(c)
    mask = _local_minima_mask(f)
    # coarse cells sit above the refined optimum by up to a few cell
    # widths times the local slope, so keep a generous value slack
    mask &= f <= result.lam + 6.0 * c.m / grid

    keys = [key(result.t_u, result.t_v - result.t_u)]
    ends = _walks(c, key, t1s, ss, np.argwhere(mask), grid)
    keys += [end for end, record in ends if record.value <= result.lam + ORBIT_TOL]

    classes: list[tuple[float, float]] = []
    for candidate in sorted(keys):
        if not any(_same_class(candidate, kept) for kept in classes):
            classes.append(candidate)
    return [Parallelogram(boundary_point(c, t1), boundary_point(c, t1 + s)) for t1, s in classes]
