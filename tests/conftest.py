import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from bmgon.cli import _random_map as random_linear_map  # noqa: F401
from bmgon.geom import CentralPolygon, Vec2, regular_polygon

settings.register_profile(
    "repo",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repo")


@pytest.fixture
def p4() -> CentralPolygon:
    return regular_polygon(4)


@pytest.fixture
def p6() -> CentralPolygon:
    return regular_polygon(6)


@pytest.fixture
def p8() -> CentralPolygon:
    return regular_polygon(8)


def random_central_polygon(rng: np.random.Generator, m: int | None = None) -> CentralPolygon:
    """Random centrally symmetric strictly convex polygon: m edge vectors
    with distinct directions in (0, pi), applied in order and then
    mirrored, centered on the origin.

    The directions are drawn until they are more than 0.02 apart, which
    rarely happens past m = 40; ``spread_central_polygon`` serves large m."""
    if m is None:
        m = int(rng.integers(2, 7))
    while True:
        angles = np.sort(rng.uniform(0.02, math.pi - 0.02, size=m))
        if m == 1 or float(np.min(np.diff(angles))) > 0.02:
            break
    return _polygon_from_edges(rng, angles)


def spread_central_polygon(rng: np.random.Generator, m: int) -> CentralPolygon:
    """Random centrally symmetric strictly convex polygon with m edge
    directions in (0.02, pi - 0.02), drawn without rejection: consecutive
    directions are half the mean spacing apart plus a share of the
    remaining span, the shares Dirichlet-distributed."""
    span = math.pi - 0.04
    least = 0.5 * span / m
    spacings = rng.dirichlet(np.ones(m + 1)) * (span - (m - 1) * least)
    spacings[1:m] += least
    angles = 0.02 + np.cumsum(spacings[:m])
    return _polygon_from_edges(rng, angles)


def _polygon_from_edges(rng: np.random.Generator, angles: np.ndarray) -> CentralPolygon:
    """Edges in the given increasing directions with lengths uniform in
    [0.2, 2), applied in order and then mirrored, centered on the origin."""
    lengths = rng.uniform(0.2, 2.0, size=len(angles))
    edges = [
        Vec2(L * math.cos(a), L * math.sin(a)) for a, L in zip(angles, lengths)
    ]
    total = Vec2(sum(e.x for e in edges), sum(e.y for e in edges))
    verts = [Vec2(-0.5 * total.x, -0.5 * total.y)]
    for e in edges[:-1]:
        verts.append(verts[-1] + e)
    half = list(verts)
    verts.extend(-v for v in half)
    return CentralPolygon(verts)


def star_vertices(n: int, k: int, scale: float = 1.0) -> list[tuple[float, float]]:
    """The star polygon {n/k}, k odd and below n/2: vertex i at angle
    2*pi*k*i/n on the circle of radius ``scale``.  Every turn is left and
    every edge has the origin on its left, but the boundary winds k times
    around the origin."""
    step = 2.0 * math.pi * k / n
    return [(scale * math.cos(step * i), scale * math.sin(step * i)) for i in range(n)]
