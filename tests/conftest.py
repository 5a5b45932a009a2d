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
    mirrored, centered on the origin."""
    if m is None:
        m = int(rng.integers(2, 7))
    while True:
        angles = np.sort(rng.uniform(0.02, math.pi - 0.02, size=m))
        if m == 1 or float(np.min(np.diff(angles))) > 0.02:
            break
    lengths = rng.uniform(0.2, 2.0, size=m)
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
