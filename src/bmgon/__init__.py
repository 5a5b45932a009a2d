"""Banach-Mazur distances from the parallelogram to centrally symmetric
convex polygons: exact values for the families where they are known,
closed-form candidate positions, and a brute-force search oracle.

The package root exports what the scripts and the README examples use;
everything else is imported from its module (``bmgon.geom``,
``bmgon.pgram``, ``bmgon.hexagon``, ``bmgon.evengon``, ``bmgon.oracle``).
"""

from .evengon import theorem2_value
from .geom import regular_polygon
from .hexagon import HEXAGON, hex_build, hex_critical_b
from .oracle import argmin_orbit, bm_distance
from .pgram import circum_ratio, contacts

__version__ = "0.1.0"

__all__ = [
    "HEXAGON",
    "argmin_orbit",
    "bm_distance",
    "circum_ratio",
    "contacts",
    "hex_build",
    "hex_critical_b",
    "regular_polygon",
    "theorem2_value",
    "__version__",
]
