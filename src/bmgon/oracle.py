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
vertices, is evaluated on a lattice of that domain (``grid_scan``) and
then polished by a compass descent: one step of length r along each of
two orthogonal directions and their opposites, the first that improves
taken, r doubled after a move and halved after a stall.  The first stall
that takes r below ``KEY_TOL`` ends the descent, at the vertex of its
active set when one is found.  The descent itself may leave the domain;
its result labels the same parallelogram either way.

The objective is a maximum of smooth per-vertex sheets, so its valleys
are creases where two sheets tie; fixed axis-aligned steps stall on a
diagonal crease, because every one of them climbs out of the valley.
The descent therefore aligns its frame with the tie line of the two
leading sheets.  Their numerators are affine in (t1, s) inside an
edge-pair cell, so that line is straight and its direction comes from
the exact gradient of their difference at the point, with no step
length in it.

One evaluation gives a point's value and, when that is below a bound,
its sheet record: the leading pair, the three leading sheets with
their gradients, the edge fractions and the point.  The evaluation
that accepts a move thus sets the next frame, and a stall keeps it.  A
trial step evaluates the pair's sheets first and is rejected as soon
as one of them reaches the current value: correctly rounded division
by the positive common denominator is monotone, so the maximum reaches
it too.  Otherwise one pass over every sheet gives the maximum and the
record: at the start, at each accepted step, and at each rejected step
whose pair stayed below the current value.  Every choice is the same
bit for bit as with full evaluations.

Every optimum measured so far sits at a vertex of its active set:
where three sheets tie, where two tie with a generator at a polygon
vertex, or where both generators are at polygon vertices.  Inside an
edge-pair cell every numerator is affine in the generators' edge
fractions and the denominator is common, so each such vertex solves
one 2x2 linear system, read from the record the descent holds for its
point.  The solve reaches the value to rounding, where halving r on
toward 1e-13 would spend over half of a descent's evaluations and stop
up to some 1e-13 above it.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .geom import CentralPolygon, Vec2, boundary_point, symmetry_map
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

    # descents over t1 in [0, m); one rotation period of a polygon with
    # r rotations descends from its ceil(starts / r) lowest cells
    starts: int = 5
    margin: float = 1e-6       # keeps s = t2 - t1 inside (margin, m - margin)
    max_sweeps: int = 3000


DEFAULT_SETTINGS = SearchSettings()

# positions within ORBIT_TOL of the best value count as optimal, and class
# keys within KEY_TOL, in boundary parameter units, name one class
ORBIT_TOL = 1e-9
KEY_TOL = 1e-6

# a parallelogram is feasible only where den = cross(u, v) > FEASIBLE_DEN;
# evaluate and grid_scan give every other point +inf
FEASIBLE_DEN = 1e-300

# the polygon radii the search takes: the numerator gradients that
# _vertex_solve multiplies in pairs are up to 2 r^2 in size, so its 2x2
# determinants reach 8 r^4 and overflow to inf or nan past MAX_RADIUS,
# and below MIN_RADIUS every cross(u, v) <= r^2 is at most FEASIBLE_DEN
MIN_RADIUS, MAX_RADIUS = 1e-150, (sys.float_info.max / 8.0) ** 0.25

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
    """One descent: its start cell (t1, s), final objective value, sweeps
    run, accepted steps among them (the other sweeps stalled) and stop
    reason: ``vertex`` (it ended at the solved vertex of its active set),
    ``stall`` (its step fell below ``KEY_TOL`` and no vertex at or below
    its value was found) or ``max_sweeps``."""

    t1: float
    s: float
    value: float
    sweeps: int
    moves: int
    stop: str


@dataclass(frozen=True)
class BMResult:
    """Minimal ratio found, its witness parallelogram and boundary
    parameters, the polygon vertices realizing the ratio, and a record of
    each descent; t_u and t_v - t_u are the witness's class key."""

    lam: float
    parallelogram: Parallelogram
    t_u: float
    t_v: float
    contacts: tuple[Vec2, ...]
    grid_resolution: int
    starts: tuple[StartRecord, ...] = field(default=(), compare=False)


def _class_key_fn(c: CentralPolygon) -> Callable[[float, float], tuple[float, float]]:
    """Class key of the polygon's positions (t1, s): one canonical image
    per class, so the image reported does not hang on the descents'
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
    cross(u, v) <= ``FEASIBLE_DEN`` hold +inf.  Raises ValueError for a
    radius outside [``MIN_RADIUS``, ``MAX_RADIUS``] and unless
    8 <= grid <= ``MAX_GRID``.

    Each sum t1[i] + s[j] = (2i + j + 1/2)h is exact, since every cell's
    2(2i + j) + 1 < 2**17 up to ``MAX_GRID``, so v depends on the lattice
    index 2i + j alone.  u per row, v per lattice point and the sheet
    terms |cross(u, w)| per row and |cross(w, v)| per lattice point (per
    row block) are 1-D arrays, read from ``CentralPolygon.edges`` as
    ``geom.boundary_point`` reads it; a cell reads them at 2i + j through
    Hankel views and takes the operations ``evaluate`` takes, so F[i, j]
    equals ``evaluate(t1[i], s[j])`` bit for bit, whatever the block
    size; below ``MAX_RADIUS`` no product overflows.  F, the only array
    of the grid's size, is new on each call; the blocks of rows, about
    ``BLOCK_CELLS`` cells each, are evaluated in three per-thread buffers
    that stay in a core's cache through the pass over all m sheets, and a
    block writes every buffer element it reads, so no value passes from
    one scan to the next or between threads.
    """
    _check_radius(c)
    if grid < 8:
        raise ValueError(f"grid must be at least 8, got {grid}")
    if grid > MAX_GRID:
        raise ValueError(f"grid must be at most {MAX_GRID}, got {grid}")
    x, y, dx, dy = (np.array(column) for column in c.edges)
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


def _make_objective(c: CentralPolygon) -> Callable[..., tuple[float, tuple]]:
    """``evaluate(t1, s, bound=inf, lead=())``: the scalar objective on raw
    floats and the sheet record of the point, as ``(value, record)``.

    The generators are read from the polygon's boundary table
    ``CentralPolygon.edges`` as ``geom.boundary_point`` reads it, reducing
    the parameters modulo n as it does, since a descent may leave [0, n);
    s is first clamped to the margin.  Sheet w is N_w / den, with
    numerator N_w = |cross(w, v)| + |cross(u, w)| and the common
    denominator den = cross(u, v); the value is +inf where
    den <= ``FEASIBLE_DEN``.  The sheets of the indices in ``lead``
    come first, and the first of them that is at least ``bound`` is the
    value: the maximum is then at least ``bound`` too, so the value
    answers ``F(t1, s) < bound`` exactly.  Otherwise one pass over every
    sheet gives the largest numerator, and the value is it divided by den,
    which is the largest sheet bit for bit since correctly rounded
    division by a positive number is monotone.

    When the value is below ``bound`` the record is
    ``(pair, sheets, (f, g), (t1, s))``; otherwise it is ().  The pair
    (i, j) holds the indices of the two largest numerators, the lower index
    first among equals as ``heapq.nlargest`` orders them.  The sheets are
    the three largest numerators (two when m = 2), largest first, each
    with its gradient (dN_w/df, dN_w/dg) in the fractions f of u along
    its edge delta du and g of v along dv:
    dN_w/df = sign(cross(u, w)) cross(du, w) and
    dN_w/dg = sign(cross(w, v)) cross(w, dv).  Last come the fractions
    (f, g) and the point as evaluated, t1 as passed and s clamped.
    Inside an edge-pair cell with fixed signs every numerator is affine
    in (f, g).
    """
    xs, ys, dxs, dys = c.edges
    n = len(xs)
    m = n // 2
    lo, hi = DEFAULT_SETTINGS.margin, m - DEFAULT_SETTINGS.margin
    half = list(zip(xs[:m], ys[:m]))  # antipodal vertices have equal gauge
    leading = min(m, 3)

    def evaluate(
        t1: float, s: float, bound: float = math.inf, lead: tuple[int, ...] = ()
    ) -> tuple[float, tuple]:
        s = lo if s < lo else hi if s > hi else s
        t = t1 % n
        if t >= n:  # float mod can round up to the period itself
            t = 0.0
        a = int(t)
        fu = t - a
        ux, uy = xs[a] + fu * dxs[a], ys[a] + fu * dys[a]
        t = (t1 + s) % n
        if t >= n:
            t = 0.0
        b = int(t)
        fv = t - b
        vx, vy = xs[b] + fv * dxs[b], ys[b] + fv * dys[b]
        den = ux * vy - uy * vx
        if not den > FEASIBLE_DEN:
            return math.inf, ()
        for w in lead:
            wx, wy = half[w]
            g = (abs(wx * vy - wy * vx) + abs(ux * wy - uy * wx)) / den
            if g >= bound:
                return g, ()
        top = second = third = -1.0
        i = j = k = 0
        for w, (wx, wy) in enumerate(half):
            g = abs(wx * vy - wy * vx) + abs(ux * wy - uy * wx)
            if g > top:
                third, k, second, j, top, i = second, j, top, i, g, w
            elif g > second:
                third, k, second, j = second, j, g, w
            elif g > third:
                third, k = g, w
        value = top / den
        if not value < bound:
            return value, ()
        sheets = []
        for w, g in ((i, top), (j, second), (k, third))[:leading]:
            wx, wy = half[w]
            cu, cv = ux * wy - uy * wx, wx * vy - wy * vx
            df = ((cu > 0.0) - (cu < 0.0)) * (dxs[a] * wy - dys[a] * wx)
            dg = ((cv > 0.0) - (cv < 0.0)) * (wx * dys[b] - wy * dxs[b])
            sheets.append((g, (df, dg)))
        return value, ((i, j), sheets, (fu, fv), (t1, s))

    return evaluate


def _crease_frame(record: tuple) -> tuple[tuple[int, ...], tuple[tuple[float, float], ...]]:
    """The leading pair of a sheet record and the frame e1, e2, -e1, -e2:
    e1 along the pair's tie line and e2 down the gradient of their
    difference, or the axes where there is no record or no gradient.

    Moving t1 moves both generators along their edges and moving s only
    v, so the gradient of N_w in (t1, s) is (dN_w/df + dN_w/dg, dN_w/dg).
    Inside an edge-pair cell with fixed signs N_i - N_j is affine, so the
    tie line of the pair runs through the point normal to the gradient
    of N_i - N_j."""
    pair, gx, gy = (), 0.0, 0.0
    if record:
        pair, ((_, (fi, gi)), (_, (fj, gj)), *_), _, _ = record
        gx, gy = fi + gi - (fj + gj), gi - gj
    norm = math.hypot(gx, gy)
    ex, ey = (-gy / norm, gx / norm) if norm > 0.0 else (1.0, 0.0)
    return pair, ((ex, ey), (-ey, ex), (-ex, -ey), (ey, -ex))


def _vertex_solve(
    evaluate: Callable[..., tuple[float, tuple]], record: tuple, bound: float
) -> tuple[float, float, float] | None:
    """The vertex of the active set at the point of a sheet record, as
    ``(t1, s, value)`` with value at most ``bound``, or None.

    In the closed edge-pair cell of the point the numerators are affine
    in the edge fractions (f, g) of u and v, so each candidate is one
    2x2 linear system in the moves (df, dg): where the three leading
    sheets tie, where the leading pair ties with u at the nearer edge of
    its cell, the same with v, and the cell corner nearest the point.
    Candidates outside the cell are dropped.  Of the others with value
    at most ``bound``, those within ``KEY_TOL`` of the nearest one are
    one vertex, solved from different active sets, and the lowest of
    them is returned at its evaluated point: a farther candidate can be
    another optimal position of equal value, which the descent must not
    jump to."""
    _, ((top, (fi, gi)), (second, (fj, gj)), *third), (fu, fv), (t1, s) = record
    # the pair's tie p df + q dg = gap, and the nearer edges of the cell
    p, q, gap = fi - fj, gi - gj, second - top
    eu = -fu if fu <= 0.5 else 1.0 - fu
    ev = -fv if fv <= 0.5 else 1.0 - fv
    moves = []
    for nk, (fk, gk) in third:
        pk, qk, gapk = fi - fk, gi - gk, nk - top
        det = p * qk - q * pk
        if det:
            moves.append(((gap * qk - q * gapk) / det, (p * gapk - gap * pk) / det))
    if q:
        moves.append((eu, (gap - p * eu) / q))
    if p:
        moves.append(((gap - q * ev) / p, ev))
    moves.append((eu, ev))
    ends = []
    for df, dg in moves:
        if 0.0 <= fu + df <= 1.0 and 0.0 <= fv + dg <= 1.0:
            value, found = evaluate(t1 + df, s + dg - df)
            if value <= bound:
                ends.append((value, df, dg, found[-1]))
    if not ends:
        return None
    _, df0, dg0, _ = min(ends, key=lambda end: max(abs(end[1]), abs(end[2])))
    near = (end for end in ends if max(abs(end[1] - df0), abs(end[2] - dg0)) <= KEY_TOL)
    value, _, _, (t1, s) = min(near, key=lambda end: end[0])
    return t1, s, value


def _descend(
    evaluate: Callable[..., tuple[float, tuple]], t1: float, s: float, radius: float
) -> tuple[float, float, float, int, int, str]:
    """Compass descent from (t1, s) in the crease frame.  Each sweep tries
    one step of length r along e1, e2, -e1 and -e2 and takes the first
    that lowers the objective; r doubles after a move and halves after a
    stall.  The first stall that takes r below ``KEY_TOL`` ends the
    descent: at the vertex of the point's active set (``_vertex_solve``)
    when one is found at most the current value, and at the point
    otherwise.  Returns the final point and value, the sweeps run, the
    moves among them, and the stop reason: ``vertex``, ``stall``, or
    ``max_sweeps`` when the sweeps ran out first.

    Each point is the one its sheet record was evaluated at, and the
    record of the start, then of the evaluation that accepted each move,
    sets the frame; a trial step is evaluated with the current value as
    its bound and the leading pair as its lead.  A start of infinite
    value has no record: it steps along the axes, and stalls there
    without a vertex solve."""
    fcur, record = evaluate(t1, s)
    if record:
        t1, s = record[-1]
    pair, frame = _crease_frame(record)
    r = radius
    moves = 0
    for sweep in range(1, DEFAULT_SETTINGS.max_sweeps + 1):
        for dx, dy in frame:
            fab, found = evaluate(t1 + r * dx, s + r * dy, fcur, pair)
            if fab < fcur:
                fcur, record = fab, found
                t1, s = record[-1]
                pair, frame = _crease_frame(record)
                r *= 2.0
                moves += 1
                break
        else:
            r *= 0.5
            if r < KEY_TOL:
                vertex = _vertex_solve(evaluate, record, fcur) if record else None
                if vertex is None:
                    return t1, s, fcur, sweep, moves, "stall"
                return (*vertex, sweep, moves, "vertex")
    return t1, s, fcur, DEFAULT_SETTINGS.max_sweeps, moves, "max_sweeps"


def _check_radius(c: CentralPolygon) -> None:
    if c.radius > MAX_RADIUS:
        raise ValueError(
            f"polygon radius {c.radius:.17g} exceeds {MAX_RADIUS:.17g},"
            " the largest the search takes"
        )
    if c.radius < MIN_RADIUS:
        raise ValueError(f"polygon radius {c.radius:.17g} is below {MIN_RADIUS}, the least taken")


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


def _descents(
    c: CentralPolygon, key: Callable, t1s: np.ndarray, ss: np.ndarray, cells, grid: int
) -> list[tuple[tuple[float, float], StartRecord]]:
    """Descends from each cell (i, j) of a scan at resolution ``grid``,
    with a first step of one cell width, and returns the class key of
    each end with the descent's record."""
    evaluate = _make_objective(c)
    radius = 2.0 * c.m / grid
    ends = []
    for i, j in cells:
        t1, s = float(t1s[i]), float(ss[j])
        a, b, *outcome = _descend(evaluate, t1, s, radius)
        ends.append((key(a, b), StartRecord(t1, s, *outcome)))
    return ends


def bm_distance(c: CentralPolygon, grid: int = 360) -> BMResult:
    """Minimal circumscribed ratio over inscribed parallelograms of the
    polygon, by grid search plus local descents from the lowest cells.

    The witness is drawn at the least class key among the descents within
    ``ORBIT_TOL`` of the best value, from the lowest-valued descent with
    that key.  It is deterministic for fixed arguments, and the returned
    ratio is recomputed from it: ``circum_ratio(parallelogram, c) == lam``.
    Raises ValueError for a radius outside [``MIN_RADIUS``, ``MAX_RADIUS``]
    and when no cell of the scan is feasible.
    """
    t1s, ss, f = grid_scan(c, grid)
    copies = c.m // c.rotation_step  # rotated copies of each scanned cell
    cells = _lowest_cells(f, -(-DEFAULT_SETTINGS.starts // copies))
    if not f[cells[0]] < np.inf:
        raise ValueError(
            f"no cell of the grid-{grid} scan has cross(u, v) above {FEASIBLE_DEN},"
            " the search's feasibility threshold"
        )
    ends = _descents(c, _class_key_fn(c), t1s, ss, cells, grid)
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
    witness, which makes at least one class even when the best descent of
    ``bm_distance`` started off a local minimum of the grid.  Positions
    whose class keys agree within ``KEY_TOL`` form one class, drawn at
    its least key; the classes come in key order.  Raises ValueError for
    a radius outside [``MIN_RADIUS``, ``MAX_RADIUS``].
    """
    grid = result.grid_resolution
    t1s, ss, f = grid_scan(c, grid)
    key = _class_key_fn(c)
    mask = _local_minima_mask(f)
    # coarse cells sit above the refined optimum by up to a few cell
    # widths times the local slope, so keep a generous value slack
    mask &= f <= result.lam + 6.0 * c.m / grid

    keys = [key(result.t_u, result.t_v - result.t_u)]
    ends = _descents(c, key, t1s, ss, np.argwhere(mask), grid)
    keys += [end for end, record in ends if record.value <= result.lam + ORBIT_TOL]

    classes: list[tuple[float, float]] = []
    for candidate in sorted(keys):
        if not any(_same_class(candidate, kept) for kept in classes):
            classes.append(candidate)
    return [Parallelogram(boundary_point(c, t1), boundary_point(c, t1 + s)) for t1, s in classes]
