"""Gauss-Legendre panel quadrature on complex line segments.

``QuadratureConfig`` holds the two node counts, as plain data; where the
contour's ray ends is a constant of ``magic``.  numpy is imported only when
nodes are built, so a command that reads the config and builds no nodes
runs on the standard library.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


#: cap on gauss_order and on panels_per_segment, sized by timing: at 256 x 256
#: ``magic verify`` takes about 0.7 s, at 1,024 x 1,024 about 5 s and 0.8 GB
MAX_QUADRATURE_SIZE = 256


@dataclass(frozen=True)
class QuadratureConfig:
    """Gauss nodes per panel and panels per segment: of the contour oracle's
    legs and ray, and of the Laplace rule on [0, 1], which is
    ``panel_nodes(0, 1, panels_per_segment, gauss_order)``."""

    gauss_order: int = 32
    panels_per_segment: int = 8

    def __post_init__(self):
        for name, least in (("gauss_order", 2), ("panels_per_segment", 1)):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if not least <= value <= MAX_QUADRATURE_SIZE:
                raise ValueError(f"{name} must be at least {least} and at most the cap "
                                 f"{MAX_QUADRATURE_SIZE}, got {value}")


@lru_cache(maxsize=32)
def gauss_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1] (cached, so read-only; numpy's Golub-Welsch)."""
    import numpy as np
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def panel_nodes(a: complex, b: complex, panels: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and complex weights for integrating along the straight segment a->b."""
    import numpy as np
    x, w = gauss_nodes(order)
    nodes = []
    weights = []
    for p in range(panels):
        lo = a + (b - a) * (p / panels)
        hi = a + (b - a) * ((p + 1) / panels)
        mid = (lo + hi) / 2.0
        half = (hi - lo) / 2.0
        nodes.append(mid + half * x)
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)
