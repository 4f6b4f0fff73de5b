"""Packing densities: closed forms and a deterministic Monte-Carlo estimator.

The density of a periodic packing with m centers per fundamental cell is
m * Vol(B_d(0, sep/2)) / covolume.  For the E8 packing (one center,
separation sqrt(2), covolume 1) this is pi^4/384.

The finite density -- the fraction of a ball B(0, R) covered -- is
estimated by Monte Carlo: points uniform in B(0, R), hit-tested against
the lattice decoder.  The sampler is counter-based (every sample is a pure
function of (seed, index)), so the estimate is bit-reproducible for a
fixed (seed, samples) regardless of how many workers share the blocks.
Sampler and decoder work coordinate-major, on (8, n) arrays whose rows are
contiguous, and sum eight coordinates in numpy's pairwise order, so every
sample, distance and hit is the same as in the row-major formulation.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lattice import (CHUNK, DECODE_LIMIT, LatticeBasis, Scratch, coset_distance2, e8_basis,
                      nearest_in_coset, round_in_coset, sum8)

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
_LANES = np.arange(9, dtype=np.uint64)[:, None]


def _splitmix64(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The splitmix64 mix, in place on a uint64 array; ``tmp`` is scratch of its shape."""
    # modular 64-bit wraparound is the point of the mix
    with np.errstate(over="ignore"):
        z += _GAMMA
        z ^= np.right_shift(z, 30, out=tmp)
        z *= _M1
        z ^= np.right_shift(z, 27, out=tmp)
        z *= _M2
        z ^= np.right_shift(z, 31, out=tmp)
    return z


def _stream_key(seed: int) -> np.ndarray:
    """splitmix64(seed): every lane's counter is XORed with it before its own mix."""
    key = np.array(seed & (2 ** 64 - 1), dtype=np.uint64)
    return _splitmix64(key, key.copy())


def _sample_chunk(key: np.ndarray, start: int, radius: float, out: np.ndarray,
                  scratch: Scratch) -> None:
    """Fill ``out``, (8, n) with n <= CHUNK, with samples start .. start + n - 1.

    Each value goes through the same floating-point operations, in the same
    order, as in the row-major sampler, so every sample is bit-identical.
    The uniforms overwrite their own lane bits in place.
    """
    n = out.shape[1]
    bits = scratch.get("lanes", 9, n, np.uint64)
    np.add(np.arange(start, start + n, dtype=np.uint64) * np.uint64(16), _LANES, out=bits)
    bits ^= key
    _splitmix64(bits, scratch.get("mix", 9, n, np.uint64))
    u = bits.view(np.float64)
    np.multiply(np.right_shift(bits, 11, out=bits), 2.0 ** -53, out=u)
    u += 2.0 ** -54
    rho, angle = u[0:8:2], u[1:8:2]
    np.log(rho, out=rho)
    rho *= -2.0
    np.sqrt(rho, out=rho)
    angle *= 2.0 * math.pi
    np.cos(angle, out=out[0::2])
    np.sin(angle, out=out[1::2])
    out[0::2] *= rho
    out[1::2] *= rho
    scale = u[8] ** 0.125
    scale *= radius
    norms = np.sqrt(sum8(np.square(out, out=u[:8]), scratch.get("sums", 4, n)))
    norms[norms == 0.0] = 1.0
    scale /= norms
    out *= scale


def _sample_block(seed: int, start: int, count: int, radius: float) -> np.ndarray:
    """Uniform points in B(0, radius): Gaussian direction x radius * u^(1/8).

    Lane l (0..8) of sample i is the open-interval (0,1) uniform made from
    the top 53 bits of splitmix64((16 i + l) ^ splitmix64(seed)), a pure
    function of (seed, i, l).  Lanes 0-7 make four Box-Muller pairs, lane 8
    the radius.  The block is built coordinate-major, as an (8, count)
    array, and returned as its (count, 8) transpose view.
    """
    key, scratch = _stream_key(seed), Scratch()
    normals = np.empty((8, count))
    for lo in range(0, count, CHUNK):
        _sample_chunk(key, start + lo, radius, normals[:, lo:lo + CHUNK], scratch)
    return normals.T


#: how far the parity fix can lower a squared distance, by rounding alone.
#: Where x + 1/2 rounds up to an integer (x = 1/2 - 2^-54 in D8, or
#: x = y - 1/2 with -2^-54 <= y < 0 in the half coset), the coordinate is
#: 1/2 + 2^-54 from its rounding before the fix and 1/2 - 2^-54 after it.
#: Fixed or not, a squared distance to a coset is below 3, where one unit in
#: the last place is 2^-51, so the fix lowers it by a few units at most.
_FIX_SLACK = 2.0 ** -46


def _count_hits(y: np.ndarray, spec: PeriodicPackingSpec, scratch: Scratch) -> int:
    """How many columns of y, (8, n) with n <= CHUNK, lie within separation/2 of a center.

    Only the squared distance to each coset decides; the closer point is
    never assembled.  Each coset rounds every column once.  Where the
    rounded coordinate sum is even, that is the coset's nearest point and
    its distance is final.  Where it is odd, the parity fix moves one
    coordinate from |y - f| <= 1/2 to 1 - |y - f| >= 1/2, and float squaring
    and the ``sum8`` tree are monotone, so the fixed distance is never
    below the unfixed one (up to ``_FIX_SLACK``).  So only the odd columns
    whose unfixed distance is within reach go through ``nearest_in_coset``;
    the hits are those of the full decoder, column for column.
    """
    n = y.shape[1]
    rho = spec.separation / 2.0
    reach2 = rho * rho + _FIX_SLACK
    point, shifted = scratch.get("point", 8, n), scratch.get("shifted", 8, n)
    hit = np.zeros(n, dtype=bool)
    for off in spec.offsets:
        np.subtract(y, np.asarray(off)[:, None], out=shifted)
        for half in (False, True):
            _, odd = round_in_coset(shifted, half, point, scratch)
            d2 = coset_distance2(shifted, half, point, scratch)
            hit |= (np.sqrt(d2) <= rho) & ~odd
            cand = np.flatnonzero(odd & (d2 <= reach2))
            if cand.size:
                d2 = nearest_in_coset(shifted[:, cand], half, point[:, :cand.size], scratch)
                hit[cand] |= np.sqrt(d2) <= rho
    return int(np.count_nonzero(hit))


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

    The hit test is the E8 coset decoder, so the basis must generate E8:
    a :class:`LatticeBasis` (its rows are E8 vectors) with determinant +-1.
    Any other basis, and a radius outside (0, DECODE_LIMIT), the decoder's
    limit on the coordinates, is a ValueError.  Each block is sampled and
    hit-tested CHUNK columns at a time, in buffers that each worker thread
    reuses for every block it takes.
    """
    if not 0 < radius < DECODE_LIMIT:
        raise ValueError(f"radius must be positive and below 2^50, got {radius}")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if not (isinstance(spec.basis, LatticeBasis) and abs(spec.basis.determinant()) == 1):
        raise ValueError("the hit test decodes E8: the basis must be a LatticeBasis "
                         "of E8 vectors with determinant +-1")
    key = _stream_key(seed)
    blocks = [(start, min(_BLOCK, samples - start)) for start in range(0, samples, _BLOCK)]

    scratch = Scratch()

    def work(block):
        start, count = block
        hits = 0
        for lo in range(start, start + count, CHUNK):
            y = scratch.get("sample", 8, min(CHUNK, start + count - lo))
            _sample_chunk(key, lo, radius, y, scratch)
            hits += _count_hits(y, spec, scratch)
        return hits

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
