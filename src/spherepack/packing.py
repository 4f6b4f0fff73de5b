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

The hit test is a filtered predicate (Shewchuk, DCG 18, 1997).  A first
pass draws every sample with float32 cos and sin, each within
eps = 2^-18 of the float64 ones.  That moves the unit direction by at most
2 sqrt(2) eps, and the sample by at most 2 sqrt(2) eps R.  The distance to
the centers is 1-Lipschitz, so it moves by as much.  The first pass
measures it with ``lattice.e8_distance2``, a closed form that reads both
E8 cosets off one rounding and is within 2^-48 of the true squared
distance.  So a sample's first-pass distance is within
delta = 2 sqrt(2) eps R + eta of its exact one, where eta covers that
rounding term and the float rounding of the exact sampler and decoder.
Beyond delta of the separation radius rho the first pass decides; the
samples in the band between are drawn again in float64 and decoded by
``lattice.nearest_in_coset`` alone.  Where delta >= rho the band holds
everything, so every sample takes the exact path.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lattice import (CHUNK, DECODE_LIMIT, LatticeBasis, Scratch, e8_basis, e8_distance2,
                      nearest_in_coset, sum8)

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
    rechecked: int  # samples in the band that float32 trig cannot decide, decoded exactly


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


#: bound on |trig32(fl32(theta)) - trig(theta)| for numpy's float32 cos and
#: sin at the sampler's angles theta = 2 pi u, 0 < u < 1.  Rounding theta to
#: float32 contributes at most 2^-22; the largest error measured on 2^24
#: angles was 2.6e-7, about 2^-21.9.  ``test_mc_kernel`` checks a quarter of
#: this bound, so a platform with a worse float32 trig fails there.
_TRIG32_ERROR = 2.0 ** -18

#: eta / (1 + R), the float rounding.  The first pass's closed form
#: ``e8_distance2`` is within 2^-48 of the true squared distance, and so is
#: the exact decoder (``nearest_in_coset``), whose rounding of each
#: coordinate is exact.  Each of them moves a distance at an
#: edge of the band of at least 2^-8 by at most 2^-40, and one at a lower
#: edge below 2^-8, where delta > rho - 2^-8 and so R > 2^15, by at most
#: 2^-24: less than 2^-39 (1 + R) either way.  The rounding of both
#: samplers each moves it by less than 2^-44 (1 + R)
_ETA = 2.0 ** -32

#: above this many samples the lane counter 16 i + l wraps around 2^64
_MAX_SAMPLES = 2 ** 60


def _sample_chunk(key: np.ndarray, index: np.ndarray, radius: float, out: np.ndarray,
                  scratch: Scratch, trig32: bool = False) -> None:
    """Fill ``out``, (8, n) with n <= CHUNK, with the samples numbered ``index``.

    ``index`` is a uint64 array of n sample indices.  Each value goes
    through the same floating-point operations, in the same order, as in
    the row-major sampler, so every sample is bit-identical.  The uniforms
    overwrite their own lane bits in place.  With ``trig32`` the Box-Muller
    angles go through float32 cos and sin, within ``_TRIG32_ERROR`` of the
    float64 ones; every other operation is unchanged.
    """
    n = out.shape[1]
    bits = scratch.get("lanes", 9, n, np.uint64)
    np.add(index * np.uint64(16), _LANES, out=bits)
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
    if trig32:
        angle32 = scratch.get("angle32", 4, n, np.float32)
        np.copyto(angle32, angle, casting="same_kind")
        sin = np.sin(angle32, out=scratch.get("sin32", 4, n, np.float32))
        cos = np.cos(angle32, out=angle32)
    else:
        cos, sin = np.cos(angle, out=out[0::2]), np.sin(angle, out=out[1::2])
    np.multiply(cos, rho, out=out[0::2])
    np.multiply(sin, rho, out=out[1::2])
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
    index = np.arange(start, start + count, dtype=np.uint64)
    normals = np.empty((8, count))
    for lo in range(0, count, CHUNK):
        _sample_chunk(key, index[lo:lo + CHUNK], radius, normals[:, lo:lo + CHUNK], scratch)
    return normals.T


def _count_hits(y: np.ndarray, spec: PeriodicPackingSpec, scratch: Scratch) -> int:
    """How many columns of y, (8, n) with n <= CHUNK, lie within separation/2 of a center.

    The exact hit test: d2, the least squared distance ``nearest_in_coset``
    returns over every offset and both cosets, is a hit where
    ``sqrt(d2) <= separation/2``.  ``finite_density_mc`` runs it on the
    float64 samples of the band its float32 pass cannot decide.
    """
    n = y.shape[1]
    point = scratch.get("point", 8, n)
    best = scratch.get("best", 1, n)[0]
    best.fill(np.inf)
    for off in spec.offsets:
        shifted = _shift(y, off, scratch)
        for half in (False, True):
            np.minimum(best, nearest_in_coset(shifted, half, point, scratch), out=best)
    return int(np.count_nonzero(np.sqrt(best) <= spec.separation / 2.0))


def _shift(y: np.ndarray, offset: Sequence[float], scratch: Scratch) -> np.ndarray:
    """y less the center offset, in ``scratch``; y itself for the zero offset."""
    if not any(offset):
        return y
    return np.subtract(y, np.asarray(offset)[:, None], out=scratch.get("shifted", 8, y.shape[1]))


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
    Any other basis, a radius outside (0, DECODE_LIMIT), the decoder's
    limit on the coordinates, and more than 2^60 samples, where the
    lane counters wrap, are a ValueError.  Each block is sampled and
    hit-tested CHUNK columns at a time, in buffers that each worker thread
    reuses for every block it takes.

    Every sample is first drawn with float32 cos and sin, within
    eps = ``_TRIG32_ERROR`` of the float64 ones.  Each of the four
    Box-Muller pairs then moves by at most sqrt(2) eps times its length, so
    the Gaussian vector moves by sqrt(2) eps times its norm, its unit
    direction by 2 sqrt(2) eps, and the sample by 2 sqrt(2) eps R.  The
    distance to the union of the cosets is 1-Lipschitz, so the distance
    moves by at most 2 sqrt(2) eps R.  This first pass measures it with
    ``lattice.e8_distance2``, once per offset: the closed form reads both
    cosets off one rounding and is within 2^-48 of the true squared
    distance, as is the exact decoder.  So the two
    decoded distances differ by at most delta = 2 sqrt(2) eps R + eta,
    with eta = ``_ETA`` (1 + R) for the float rounding.  A squared distance
    at most (rho - delta)^2 is a hit and one above (rho + delta)^2 a miss,
    for rho = separation/2.  The samples in between are drawn again in
    float64 and decoded by ``_count_hits``, with ``nearest_in_coset`` alone,
    once per block; ``rechecked`` counts them.  Where delta >= rho nothing
    is certain, so every sample takes that exact path.  Either way the hits
    are those of the exact sampler and decoder.

    The workers take the blocks one at a time from one shared iterator,
    so at most ``workers`` tasks are ever submitted, however many blocks
    there are.
    """
    if not 0 < radius < DECODE_LIMIT:
        raise ValueError(f"radius must be positive and below 2^50, got {radius}")
    if not 1 <= samples <= _MAX_SAMPLES:
        raise ValueError(f"samples must be between 1 and 2^60, got {samples}")
    if not (isinstance(spec.basis, LatticeBasis) and abs(spec.basis.determinant()) == 1):
        raise ValueError("the hit test decodes E8: the basis must be a LatticeBasis "
                         "of E8 vectors with determinant +-1")
    key = _stream_key(seed)
    rho = spec.separation / 2.0
    delta = 2.0 * math.sqrt(2.0) * _TRIG32_ERROR * radius + _ETA * (1.0 + radius)
    lo2, hi2 = (rho - delta) ** 2, (rho + delta) ** 2

    scratch = Scratch()

    def exact_hits(index):
        hits = 0
        for lo in range(0, index.size, CHUNK):
            part = index[lo:lo + CHUNK]
            y = scratch.get("sample", 8, part.size)
            _sample_chunk(key, part, radius, y, scratch)
            hits += _count_hits(y, spec, scratch)
        return hits

    def work(start):
        """(hits, rechecked) of the block from sample ``start``."""
        index = np.arange(start, min(start + _BLOCK, samples), dtype=np.uint64)
        if delta >= rho:
            return exact_hits(index), index.size
        hits, band = 0, []
        for lo in range(0, index.size, CHUNK):
            part = index[lo:lo + CHUNK]
            y = scratch.get("sample", 8, part.size)
            _sample_chunk(key, part, radius, y, scratch, trig32=True)
            d2 = scratch.get("best", 1, part.size)[0]
            d2.fill(np.inf)
            for off in spec.offsets:
                np.minimum(d2, e8_distance2(_shift(y, off, scratch), scratch), out=d2)
            hits += int(np.count_nonzero(d2 <= lo2))
            band.append(part[(lo2 < d2) & (d2 <= hi2)])
        band = np.concatenate(band)
        return hits + exact_hits(band), band.size

    starts = range(0, samples, _BLOCK)
    blocks, lock = iter(starts), threading.Lock()

    def drain():
        """(hits, rechecked) of the blocks this worker takes from ``blocks``."""
        hits = rechecked = 0
        while True:
            with lock:
                start = next(blocks, None)
            if start is None:
                return hits, rechecked
            block_hits, block_rechecked = work(start)
            hits += block_hits
            rechecked += block_rechecked

    workers = _worker_count(threads, len(starts))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            tasks = [pool.submit(drain) for _ in range(workers)]
            totals = [task.result() for task in tasks]
    else:
        totals = [drain()]
    hits, rechecked = map(sum, zip(*totals))
    value = hits / samples
    stderr = math.sqrt(max(value * (1.0 - value), 0.0) / samples)
    return DensityEstimate(value=value, stderr=stderr, samples=samples, seed=seed,
                           radius=radius, workers=workers, rechecked=rechecked)
