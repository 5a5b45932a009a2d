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
vertices, is evaluated on a grid of that domain and then polished by a
derivative-free local descent: alternating golden-section line searches
along two orthogonal coordinates on a bracket that shrinks whenever a
sweep stops improving.  The descent itself may leave the domain; its
result labels the same parallelogram either way.

The descents start from the lowest grid cells.  Each scanned cell stands
for the r = m/k rotated copies of itself in [0, m), so ceil(starts / r)
of the lowest cells are descended from; a polygon without rotations
descends from ``starts`` cells.

The objective is a maximum of smooth per-vertex sheets, so its valleys
are creases where two sheets tie; fixed axis-aligned coordinates stall on
a diagonal crease, because each 1-d slice then has its minimum exactly at
the current point.  The descent therefore re-aligns its coordinate frame
each sweep with the locally tie-preserving direction of the two leading
sheets, estimated by central differences of their gap.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .geom import CentralPolygon, Vec2, boundary_point, polygon_symmetries, symmetry_map
from .pgram import Parallelogram, circum_ratio, contacts, symmetry_orbit, vertex_hausdorff

__all__ = [
    "SearchSettings",
    "BMResult",
    "StartRecord",
    "grid_scan",
    "bm_distance",
    "argmin_orbit",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SearchSettings:
    """The search's constants, in one record; the search reads them from
    ``DEFAULT_SETTINGS`` at call time."""

    # descents over t1 in [0, m); one rotation period of a polygon with
    # r rotations descends from its ceil(starts / r) lowest cells
    starts: int = 5
    shrink: float = 0.5        # bracket factor applied when a sweep stalls
    step_tol: float = 1e-9     # stop when the bracket radius drops below this
    objective_tol: float = 1e-12  # sweep improvement counted as progress
    margin: float = 1e-6       # keeps s = t2 - t1 inside (margin, m - margin)
    max_sweeps: int = 3000


DEFAULT_SETTINGS = SearchSettings()

# argmin_orbit keeps refined positions within this of the optimum
ORBIT_TOL = 1e-4


@dataclass(frozen=True)
class StartRecord:
    """One descent: its start cell (t1, s), final objective value, sweeps
    run and stop reason (``step_tol`` or ``max_sweeps``)."""

    t1: float
    s: float
    value: float
    sweeps: int
    stop: str


@dataclass(frozen=True)
class BMResult:
    """Minimal ratio found, its witness parallelogram and boundary
    parameters, the polygon vertices realizing the ratio, and a record of
    each descent (empty without refinement)."""

    lam: float
    parallelogram: Parallelogram
    t_u: float
    t_v: float
    contacts: tuple[Vec2, ...]
    grid_resolution: int
    refined: bool
    starts: tuple[StartRecord, ...] = field(default=(), compare=False)


def _vertex_arrays(c: CentralPolygon) -> tuple[list[tuple[float, float]], np.ndarray]:
    pts = [(v.x, v.y) for v in c.vertices]
    return pts, np.asarray(pts, dtype=float)


def _edge_tables(verts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vertex coordinates x, y and edge deltas dx, dy: the boundary point
    at parameter t = i + f is (x[i] + f * dx[i], y[i] + f * dy[i]), as in
    ``geom.boundary_point``."""
    x, y = verts[:, 0], verts[:, 1]
    return x, y, np.roll(x, -1) - x, np.roll(y, -1) - y


def _boundary_xy_arrays(verts: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Boundary coordinates at parameters t in [0, n), gathered from the
    edge tables with no reduction modulo n."""
    x, y, dx, dy = _edge_tables(verts)
    i = t.astype(np.intp)
    f = t - i
    return x[i] + f * dx[i], y[i] + f * dy[i]


def _rotation_step(c: CentralPolygon) -> int:
    """Smallest vertex-index step k of a rotation of the polygon, that is
    of a symmetry sending vertex i to vertex i + k; m when the only
    rotations are the identity and the point reflection.

    The steps modulo m form a cyclic subgroup of Z_m, whose generator
    divides m, so the divisors of m are tried in ascending order."""
    m = c.m
    for k in range(1, m):
        if m % k == 0 and symmetry_map(c, k, 1) is not None:
            return k
    return m


def grid_scan(c: CentralPolygon, grid: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Objective on one rotation period t1 in [0, k), s in (0, m/2], where
    k is the polygon's rotation step (m for a polygon without rotations).

    The cell width is that of a grid x grid mesh of t1 in [0, 2m) and
    s in [margin, m - margin], margin = ``DEFAULT_SETTINGS.margin``; the
    scan keeps the ceil(k * grid / 2m) rows with t1 = i * 2m / grid < k
    and the first ceil(grid/2) values of that s mesh, which are the ones
    up to m/2 (an odd grid's middle value is m/2 up to rounding).  Every other parameter pair labels the
    same parallelogram as one of these, or a rotated copy of it, since
    F(t1, s) = F(t1 + k, s) = F(t1 + m, s) = F(t1 + s, m - s).

    Returns (t1 values, s values, F) with shapes (r,), (h,) and (r, h),
    r = ceil(k * grid / 2m) and h = ceil(grid/2), where F[i, j] is the
    maximal vertex gauge of the parallelogram with generators at
    boundary parameters t1[i] and t1[i] + s[j]; infeasible cells hold
    +inf.
    """
    if grid < 8:
        raise ValueError(f"grid must be at least 8, got {grid}")
    margin = DEFAULT_SETTINGS.margin
    pts, verts = _vertex_arrays(c)
    m = len(pts) // 2
    rows = -(-_rotation_step(c) * grid // (2 * m))
    half = (grid + 1) // 2
    t1 = np.arange(rows) * (2.0 * m / grid)
    s = margin + np.arange(half) * ((m - 2.0 * margin) / (grid - 1))
    # t1 + s < 1.5 m < n, so no parameter needs reducing modulo n
    ux, uy = _boundary_xy_arrays(verts, t1[:, None])
    vx, vy = _boundary_xy_arrays(verts, t1[:, None] + s[None, :])
    den = ux * vy - uy * vx
    best = np.zeros_like(den)
    g = np.empty_like(den)
    tmp = np.empty_like(den)
    for wx, wy in pts[:m]:  # antipodal vertices have equal gauge
        np.multiply(vy, wx, out=g)
        np.multiply(vx, wy, out=tmp)
        np.subtract(g, tmp, out=g)
        np.abs(g, out=g)
        g += np.abs(ux * wy - uy * wx)
        np.maximum(best, g, out=best)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.divide(best, den, out=best)
    f[~(np.isfinite(f) & (den > 0.0))] = np.inf
    return t1, s, f


def _make_objective(
    c: CentralPolygon,
) -> tuple[Callable[[float, float], float], Callable[..., list[float]], int]:
    """Scalar objective and per-vertex sheet values on raw floats.

    Both read the boundary from the edge tables as lists, reducing the
    parameters modulo n as ``geom.boundary_point`` does, since a descent
    may leave [0, n).  The objective divides the largest sheet
    numerator by the common positive denominator, which equals the
    largest sheet bit for bit since correctly rounded division by a
    positive number is monotone.  ``sheets(t1, s, which)`` evaluates
    only the sheets of the vertex indices in ``which``.
    """
    pts, verts = _vertex_arrays(c)
    n = len(pts)
    m = n // 2
    lo, hi = DEFAULT_SETTINGS.margin, m - DEFAULT_SETTINGS.margin
    xs, ys, dxs, dys = (a.tolist() for a in _edge_tables(verts))
    half = pts[:m]  # antipodal vertices have equal gauge

    def ends(t1: float, s: float) -> tuple[float, float, float, float, float]:
        s = lo if s < lo else hi if s > hi else s
        t = t1 % n
        if t >= n:  # float mod can round up to the period itself
            t = 0.0
        i = int(t)
        f = t - i
        ux, uy = xs[i] + f * dxs[i], ys[i] + f * dys[i]
        t = (t1 + s) % n
        if t >= n:
            t = 0.0
        i = int(t)
        f = t - i
        vx, vy = xs[i] + f * dxs[i], ys[i] + f * dys[i]
        return ux, uy, vx, vy, ux * vy - uy * vx

    def sheets(t1: float, s: float, which: range | tuple[int, ...] = range(m)) -> list[float]:
        ux, uy, vx, vy, den = ends(t1, s)
        if not den > 1e-300:
            return [math.inf] * len(which)
        return [
            (abs(wx * vy - wy * vx) + abs(ux * wy - uy * wx)) / den
            for wx, wy in (half[i] for i in which)
        ]

    def objective(t1: float, s: float) -> float:
        ux, uy, vx, vy, den = ends(t1, s)
        if not den > 1e-300:
            return math.inf
        top = 0.0
        for wx, wy in half:
            g = abs(wx * vy - wy * vx) + abs(ux * wy - uy * wx)
            if g > top:
                top = g
        return top / den

    return objective, sheets, m


def _golden_min(
    f: Callable[[float], float], lo: float, hi: float, tol: float
) -> tuple[float, float]:
    """Golden-section minimizer on [lo, hi]: the best probe and its value."""
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = f(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


def _descend(
    objective: Callable[[float, float], float],
    sheets: Callable[..., list[float]],
    t1: float,
    s: float,
    radius: float,
    m: int,
) -> tuple[float, float, float, int, str]:
    """Local descent from (t1, s).  Returns the final point and value,
    the sweeps run, and the stop reason: ``step_tol`` when the bracket
    radius fell below ``DEFAULT_SETTINGS.step_tol``, ``max_sweeps`` when
    the sweeps ran out first."""
    settings = DEFAULT_SETTINGS
    lo, hi = settings.margin, m - settings.margin
    fcur = objective(t1, s)
    f0 = fcur
    r = radius
    for sweep in range(1, settings.max_sweeps + 1):
        # coordinate frame aligned with the tie direction of the two
        # leading gauge sheets; falls back to the axes when flat
        values = sheets(t1, s)
        e1 = (1.0, 0.0)
        if len(values) >= 2:
            pair = tuple(heapq.nlargest(2, range(len(values)), key=values.__getitem__))
            d = max(r * 1e-3, 1e-9)

            def sheet_gap(a: float, b: float) -> float:
                v1, v2 = sheets(a, b, pair)
                return v1 - v2

            gx = (sheet_gap(t1 + d, s) - sheet_gap(t1 - d, s)) / (2.0 * d)
            gy = (sheet_gap(t1, s + d) - sheet_gap(t1, s - d)) / (2.0 * d)
            norm = math.hypot(gx, gy)
            if norm > 1e-12:
                e1 = (-gy / norm, gx / norm)
        for ex, ey in (e1, (-e1[1], e1[0])):
            tol = max(r * 1e-3, 1e-12)
            tau, ftau = _golden_min(lambda t: objective(t1 + t * ex, s + t * ey), -r, r, tol)
            if ftau <= fcur:
                t1 = t1 + tau * ex
                s = min(max(s + tau * ey, lo), hi)
                fcur = ftau
        if f0 - fcur < settings.objective_tol:
            r *= settings.shrink
            if r < settings.step_tol:
                return t1, s, fcur, sweep, "step_tol"
        f0 = fcur
    return t1, s, fcur, settings.max_sweeps, "max_sweeps"


def _lowest_cells(f: np.ndarray, count: int) -> list[tuple[int, int]]:
    """Row and column of the ``count`` lowest cells of F, lowest first."""
    flat = f.ravel()
    count = min(count, flat.size)
    idx = np.argpartition(flat, count - 1)[:count]
    idx = idx[np.argsort(flat[idx], kind="stable")]
    return [divmod(int(j), f.shape[1]) for j in idx]


def _start_cells(c: CentralPolygon, f: np.ndarray) -> list[tuple[int, int]]:
    """The cells ``bm_distance`` descends from: each scanned cell stands
    for r = m/k rotated copies over [0, m), so the ceil(starts / r)
    lowest cells of F, lowest first."""
    copies = c.m // _rotation_step(c)
    return _lowest_cells(f, -(-DEFAULT_SETTINGS.starts // copies))


def bm_distance(c: CentralPolygon, grid: int = 360, refine: bool = True) -> BMResult:
    """Minimal circumscribed ratio over inscribed parallelograms of the
    polygon, by grid search plus optional local refinement.

    The scan covers one rotation period t1 in [0, k), so each of its
    cells stands for r = m/k rotated copies over [0, m).  The descents
    start from the ceil(DEFAULT_SETTINGS.starts / r) lowest cells, lowest
    first, and from all of them; a polygon with no rotation besides the
    identity and the point reflection (r = 1) descends from
    ``DEFAULT_SETTINGS.starts`` cells.

    The result is deterministic for fixed arguments.  The returned ratio
    is recomputed from the witness, so ``circum_ratio(parallelogram, c)``
    reproduces ``lam`` exactly.
    """
    t1s, ss, f = grid_scan(c, grid)
    if not np.isfinite(f).any():
        raise RuntimeError("no feasible parallelogram cell on the grid")
    objective, sheets, m = _make_objective(c)
    best: tuple[float, float, float] | None = None
    starts: list[StartRecord] = []
    for i, k in _start_cells(c, f):
        t1, s, val = float(t1s[i]), float(ss[k]), float(f[i, k])
        if refine:
            t1, s, val, sweeps, stop = _descend(objective, sheets, t1, s, 2.0 * m / grid, m)
            starts.append(StartRecord(float(t1s[i]), float(ss[k]), val, sweeps, stop))
        if best is None or val < best[2]:
            best = (t1, s, val)
    t1, s, _ = best
    t1 %= 2 * m
    u = boundary_point(c, t1)
    v = boundary_point(c, t1 + s)
    witness = Parallelogram(u, v)
    lam = circum_ratio(witness, c)
    return BMResult(
        lam=lam,
        parallelogram=witness,
        t_u=t1,
        t_v=t1 + s,
        contacts=contacts(witness, c, lam),
        grid_resolution=grid,
        refined=refine,
        starts=tuple(starts),
    )


def _local_minima_mask(f: np.ndarray) -> np.ndarray:
    """Cells not exceeded by any of their 8 neighbors.

    The t1 axis wraps with the rotation period k, as F does.  The wrap
    is exact when k * grid / 2m is whole; otherwise the last row's
    successor lies less than a cell past t1 = k, and the first row
    stands in for it.  The s axis is padded with +inf at both ends;
    across the s = m/2 seam the true neighbors lie in other rows
    (F(t1, s) = F(t1 + s, m - s)), so the padding can only add
    candidates, never drop a minimum."""
    padded = np.pad(f, ((1, 1), (0, 0)), mode="wrap")
    padded = np.pad(padded, ((0, 0), (1, 1)), constant_values=np.inf)
    return f <= sliding_window_view(padded, (3, 3)).min(axis=(2, 3))


def _canonical_key(p: Parallelogram) -> tuple:
    return tuple(sorted((round(v.x, 9) + 0.0, round(v.y, 9) + 0.0) for v in p.vertices()))


def argmin_orbit(c: CentralPolygon, result: BMResult) -> list[Parallelogram]:
    """Representatives, one per symmetry class of the polygon, of all
    near-optimal parallelogram positions.

    Rescans the grid at the result's resolution, refines every local
    minimum cell near the optimum and every cell ``bm_distance`` starts
    from, keeps refined positions with objective at most
    ``result.lam + ORBIT_TOL``, and walks them from the lowest up,
    keeping each one that lies near no image of a kept one under the
    linear symmetries of the polygon (the identity among them).  The
    best descent of ``bm_distance`` may start off a local minimum of the
    grid, so its start cells keep the optimum among the candidates.
    """
    t1s, ss, f = grid_scan(c, result.grid_resolution)
    objective, sheets, m = _make_objective(c)
    mask = _local_minima_mask(f)
    # coarse cells sit above the refined optimum by up to a few cell
    # widths times the local slope, so keep a generous value slack
    slack = max(10.0 * ORBIT_TOL, 6.0 * m / result.grid_resolution)
    mask &= f <= result.lam + slack
    for i, k in _start_cells(c, f):
        mask[i, k] = True
    scale = max(v.norm() for v in c.vertices)
    cluster_tol = 1e-5 * scale

    candidates: list[tuple[float, Parallelogram]] = []
    for i, k in np.argwhere(mask):
        t1, s, val, _, _ = _descend(
            objective, sheets, float(t1s[i]), float(ss[k]), 2.0 * m / result.grid_resolution, m
        )
        if val <= result.lam + ORBIT_TOL:
            u = boundary_point(c, t1)
            v = boundary_point(c, t1 + s)
            candidates.append((val, Parallelogram(u, v)))

    maps = polygon_symmetries(c)
    representatives: list[Parallelogram] = []
    images: list[Parallelogram] = []  # the symmetry orbits of the representatives
    for _, p in sorted(candidates, key=lambda item: (item[0], _canonical_key(item[1]))):
        if all(vertex_hausdorff(p, img) >= cluster_tol for img in images):
            representatives.append(p)
            images.extend(symmetry_orbit(p, maps))
    representatives.sort(key=_canonical_key)
    return representatives
