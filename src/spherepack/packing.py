"""Packing densities: closed forms and a deterministic Monte-Carlo estimator.

The density of a periodic packing with m centers per fundamental cell is
m * Vol(B_d(0, sep/2)) / covolume.  For the E8 packing (one center,
separation sqrt(2), covolume 1) this is pi^4/384.

The finite density -- the fraction of a ball B(0, R) covered -- is
estimated by Monte Carlo: points uniform in B(0, R), hit-tested against
the lattice decoder.  The sampler is counter-based (every sample is a pure
function of (seed, index)), so the estimate is bit-reproducible for a
fixed (seed, samples) regardless of how many workers share the blocks.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lattice import LatticeBasis, decode_batch, e8_basis

_BLOCK = 1 << 15


def ball_volume(d: int, r: float) -> float:
    """Volume of the d-ball of radius r: pi^(d/2) r^d / Gamma(d/2 + 1)."""
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    if r < 0:
        raise ValueError("radius must be nonnegative")
    return math.pi ** (d / 2.0) * r ** d / math.gamma(d / 2.0 + 1.0)


@dataclass(frozen=True)
class PeriodicPackingSpec:
    """A lattice packing with translated copies: basis, center offsets, separation.

    ``basis`` is either a :class:`LatticeBasis` or a plain 8x8 row matrix
    (anything numpy can turn into floats), so non-E8 lattices can be used
    in density formulas and tests.
    """

    basis: object
    offsets: tuple[tuple[float, ...], ...] = ((0.0,) * 8,)
    separation: float = math.sqrt(2.0)

    def __post_init__(self):
        if not self.separation > 0:
            raise ValueError("separation must be positive")
        if any(len(o) != 8 for o in self.offsets):
            raise ValueError("offsets are 8-vectors")

    def covolume(self) -> float:
        if isinstance(self.basis, LatticeBasis):
            det = float(abs(self.basis.determinant()))
        else:
            m = np.asarray(self.basis, dtype=np.float64)
            if m.shape != (8, 8):
                raise ValueError("basis must be 8x8")
            det = float(abs(np.linalg.det(m)))
        if det < 1e-12:
            raise ValueError("degenerate basis")
        return det


def e8_packing_spec() -> PeriodicPackingSpec:
    return PeriodicPackingSpec(basis=e8_basis())


def periodic_density(spec: PeriodicPackingSpec) -> float:
    """m * Vol(B_8(0, sep/2)) / covolume; pi^4/384 for the E8 packing."""
    m = len(spec.offsets)
    return m * ball_volume(8, spec.separation / 2.0) / spec.covolume()


def check_separation(centers: Sequence[Sequence[float]], separation: float) -> bool:
    """All pairwise distances >= separation (within 1e-12 slack)."""
    pts = np.asarray(list(centers), dtype=np.float64)
    n = len(pts)
    if n < 2:
        return True
    diff = pts[:, None, :] - pts[None, :, :]
    d = np.sqrt((diff ** 2).sum(axis=2))
    iu = np.triu_indices(n, k=1)
    return bool((d[iu] >= separation - 1e-12).all())


@dataclass(frozen=True)
class DensityEstimate:
    value: float
    stderr: float
    samples: int
    seed: int
    radius: float
    workers: int    # threads that ran the sample blocks


# -- counter-based sampling ---------------------------------------------------

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    # modular 64-bit wraparound is the point of the mix
    with np.errstate(over="ignore"):
        z = x + _GAMMA
        z = (z ^ (z >> np.uint64(30))) * _M1
        z = (z ^ (z >> np.uint64(27))) * _M2
        return z ^ (z >> np.uint64(31))


def _uniforms(seed: int, indices: np.ndarray, lane: int) -> np.ndarray:
    """Open-interval (0,1) uniforms, a pure function of (seed, index, lane)."""
    with np.errstate(over="ignore"):
        key = indices * np.uint64(16) + np.uint64(lane)
        bits = _splitmix64(key ^ _splitmix64(np.uint64(seed & (2 ** 64 - 1))))
    return (bits >> np.uint64(11)).astype(np.float64) * 2.0 ** -53 + 2.0 ** -54


def _sample_block(seed: int, start: int, count: int, radius: float) -> np.ndarray:
    """Uniform points in B(0, radius): Gaussian direction x radius * u^(1/8)."""
    idx = np.arange(start, start + count, dtype=np.uint64)
    normals = np.empty((count, 8))
    for pair in range(4):
        u1 = _uniforms(seed, idx, 2 * pair)
        u2 = _uniforms(seed, idx, 2 * pair + 1)
        rho = np.sqrt(-2.0 * np.log(u1))
        normals[:, 2 * pair] = rho * np.cos(2.0 * math.pi * u2)
        normals[:, 2 * pair + 1] = rho * np.sin(2.0 * math.pi * u2)
    norms = np.sqrt((normals ** 2).sum(axis=1))
    norms[norms == 0.0] = 1.0
    u = _uniforms(seed, idx, 8)
    r = radius * u ** 0.125
    return normals * (r / norms)[:, None]


def _count_hits(points: np.ndarray, spec: PeriodicPackingSpec) -> int:
    """How many points lie within separation/2 of some packing center."""
    if not spec.offsets:
        return 0
    rho = spec.separation / 2.0
    hit = np.zeros(len(points), dtype=bool)
    for off in spec.offsets:
        _, d = decode_batch(points - np.asarray(off))
        hit |= d <= rho
    return int(hit.sum())


def _worker_count(threads: int, blocks: int) -> int:
    """Threads worth starting: at most one per sample block, at least one."""
    return max(1, min(threads, blocks))


def finite_density_mc(spec: PeriodicPackingSpec, radius: float, samples: int,
                      seed: int, threads: int = 0) -> DensityEstimate:
    """Monte-Carlo estimate of the finite density at the given window radius.

    Deterministic for fixed (seed, samples): the hit count is a sum of
    per-block integers, each a pure function of the sample indices, so the
    result does not depend on the worker count.  At most one worker runs
    per block, whatever ``threads`` asks for.

    Only lattice packings whose decoder is the E8 decoder are supported
    (the basis is not consulted for hit tests, the coset decoder is).
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    blocks = [(start, min(_BLOCK, samples - start)) for start in range(0, samples, _BLOCK)]

    def work(block):
        start, count = block
        pts = _sample_block(seed, start, count, radius)
        return _count_hits(pts, spec)

    workers = _worker_count(threads, len(blocks))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            hits = sum(pool.map(work, blocks))
    else:
        hits = sum(map(work, blocks))
    value = hits / samples
    stderr = math.sqrt(max(value * (1.0 - value), 0.0) / samples)
    return DensityEstimate(value=value, stderr=stderr, samples=samples,
                           seed=seed, radius=radius, workers=workers)
