"""Packing densities: closed forms and a deterministic Monte-Carlo estimator.

The packing is E8's: one center per lattice point (covolume 1), at a
separation that defaults to sqrt(2), the minimal distance.  Its density
Vol(B_8(0, sep/2)) / covolume is then pi^4/384.

The finite density -- the fraction of a ball B(0, R) covered -- is
estimated by Monte Carlo: points uniform in B(0, R), hit-tested against
the lattice decoder.  The sampler is counter-based (every sample is a pure
function of (seed, index)), so the estimate is bit-reproducible for a
fixed (seed, samples) regardless of how many workers share the blocks.
Sampler and decoder work coordinate-major, on (8, n) arrays whose rows are
contiguous, and sum eight coordinates in numpy's pairwise order, so every
sample, distance and hit is the same as in the row-major formulation.

The hit test is a filtered predicate (Shewchuk, DCG 18, 1997).  A first
pass, the screen, draws every sample in float32 from the Box-Muller pair
lengths on, with float32 cos and sin within eps = 2^-18 of the float64
ones.  That moves the unit direction by at most 2 sqrt(2) eps, and the
sample by at most 2 sqrt(2) eps R; the other float32 roundings add at
most K 2^-24 R, K = 16.  The distance to the centers is 1-Lipschitz, so
it moves by as much.  The screen measures the squared distance with
``lattice.e8_distance2`` in float32, a closed form that reads both E8
cosets off one rounding and is within e2 = 2^-19 of the true one.  With
delta = 2 sqrt(2) eps R + K 2^-24 R + eta, eta for the float rounding of
the exact sampler and decoder, a float32 squared distance at most
(rho - delta)^2 - e2 is a hit and one above (rho + delta)^2 + e2 a miss,
both edges rounded outward to float32.  The samples in the band between
are drawn again in float64 and decoded by ``lattice.nearest_in_coset``
alone.  Where delta >= rho the band holds everything, and from R = 2^20 on
float32 sums of rounded coordinates are no longer exact integers; in
either case every sample takes the exact path.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .lattice import (CHUNK, DECODE_LIMIT, Scratch, covolume, e8_distance2, floor_split,
                      nearest_in_coset, sum8)

_BLOCK = 1 << 15

#: the closed-form density of the E8 packing, pi^4/384
E8_DENSITY = math.pi ** 4 / 384.0


def ball_volume(d: int, r: float) -> float:
    """Volume of the d-ball of radius r: pi^(d/2) r^d / Gamma(d/2 + 1)."""
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    if r < 0:
        raise ValueError("radius must be nonnegative")
    return math.pi ** (d / 2.0) * r ** d / math.gamma(d / 2.0 + 1.0)


@dataclass(frozen=True)
class PeriodicPackingSpec:
    """The E8 lattice packing: one center per lattice point, at the given separation."""

    separation: float = math.sqrt(2.0)

    def __post_init__(self):
        if not self.separation > 0:
            raise ValueError("separation must be positive")


def e8_packing_spec() -> PeriodicPackingSpec:
    return PeriodicPackingSpec()


def periodic_density(spec: PeriodicPackingSpec) -> float:
    """Vol(B_8(0, sep/2)) / covolume; pi^4/384 at separation sqrt(2)."""
    return ball_volume(8, spec.separation / 2.0) / covolume()


@dataclass(frozen=True)
class DensityEstimate:
    value: float
    stderr: float
    samples: int
    seed: int
    radius: float
    workers: int    # processes that ran the sample blocks, the caller's own included
    rechecked: int  # samples in the band that the float32 screen cannot decide, decoded exactly


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


#: eps, a bound on |trig32(fl32(theta)) - trig(theta)| for numpy's float32
#: cos and sin at the sampler's angles theta = 2 pi u, 0 < u < 1, theta in
#: float64.  Rounding theta to float32 contributes at most 2^-22; the
#: largest error measured on 2^24 angles was 2.6e-7, about 2^-21.9.
#: ``test_mc_kernel`` checks a quarter of this bound, so a platform with a
#: worse float32 trig fails there.
_TRIG32_ERROR = 2.0 ** -18

#: K 2^-24, K = 16: the screen's float32 roundings other than the trig move
#: a sample by at most this times R (13.875 2^-24 R in ``_sample_chunk``,
#: and second-order terms)
_ROUNDING32 = 16 * 2.0 ** -24

#: e2: ``lattice.e8_distance2`` in float32 is within this of the true
#: squared distance
_E2 = 2.0 ** -19

#: eta / (1 + R + rho + 1/rho), the float64 rounding.  Each sampler's
#: float64 steps move a sample by less than 2^-44 (1 + R), well within
#: 2^-32 (1 + R).  The exact decoder (``nearest_in_coset``),
#: whose rounding of each coordinate is exact, is within 2^-48 of the true
#: squared distance, and its hit test rounds the square root once.  A true
#: distance at most rho - eta' or above rho + eta', eta' = 2^-32 (rho + 1/rho),
#: therefore decides the exact test as well: (rho - eta')^2 <= rho^2 - 2^-48
#: because rho eta' >= 2^-32 and eta' < delta < rho, and (rho + eta')^2 exceeds
#: rho^2 (1 + 2^-50) + 2^-48 because 2 rho eta' = 2^-31 (rho^2 + 1).
_ETA = 2.0 ** -32

#: the screen runs where R < 2^20: there every coordinate of a float32
#: sample is below 2^20, and float32 sums of eight rounded coordinates are
#: exact integers with a defined parity
_SCREEN_LIMIT = 2.0 ** 20

#: above this many samples the lane counter 16 i + l wraps around 2^64
_MAX_SAMPLES = 2 ** 60

#: the most workers ``finite_density_mc`` accepts, the calling process included
_MAX_THREADS = 64


def _sample_chunk(key: np.ndarray, index: np.ndarray, radius: float, out: np.ndarray,
                  scratch: Scratch) -> None:
    """Fill ``out``, (8, n) with n <= CHUNK, with the samples numbered ``index``.

    ``index`` is a uint64 array of n sample indices; the dtype of ``out``
    sets the precision.  The uniforms overwrite their own lane bits in
    place, and they, log u and the angles 2 pi u are float64 either way.
    In float64 each value goes through the same floating-point operations,
    in the same order, as in the row-major sampler, so every sample is
    bit-identical.

    In float32, the screen's precision, -2 log u, the angles and the radius
    uniform are rounded to float32, and the square roots, cos and sin
    (within eps = ``_TRIG32_ERROR``), the products, the norm and the scale
    u^(1/8) R are float32; u^(1/8) is three correctly rounded square roots.
    With u = 2^-24, each pair length is within 1.5u (relative) of its exact
    value and each product rounds by u, so the Gaussian vector moves by at
    most (sqrt(2) eps + 2.5u) times its norm, and its direction by twice
    that.  The norm is within 3u, u^(1/8) within 1.875u, and R, the scale's
    product, its quotient and the final product round by u each: 8.875u
    along the radius.  So a float32 sample is within
    (2 sqrt(2) eps + 13.875u) R of the exact sample, to first order.
    """
    n = out.shape[1]
    bits = scratch.get("lanes", 9, n, np.uint64)
    np.add(index * np.uint64(16), _LANES, out=bits)
    bits ^= key
    _splitmix64(bits, scratch.get("mix", 9, n, np.uint64))
    u = bits.view(np.float64)
    np.multiply(np.right_shift(bits, 11, out=bits), 2.0 ** -53, out=u)
    u += 2.0 ** -54
    np.log(u[0:8:2], out=u[0:8:2])
    u[0:8:2] *= -2.0
    u[1:8:2] *= 2.0 * math.pi
    if out.dtype == np.float64:
        scale = u[8] ** 0.125
    else:
        lanes = scratch.get("uniforms", 9, n, out.dtype)
        np.copyto(lanes, u, casting="same_kind")
        u = lanes
        scale = np.sqrt(np.sqrt(np.sqrt(u[8])))
    rho, angle = u[0:8:2], u[1:8:2]
    np.sqrt(rho, out=rho)
    cos, sin = np.cos(angle, out=out[0::2]), np.sin(angle, out=out[1::2])
    np.multiply(cos, rho, out=out[0::2])
    np.multiply(sin, rho, out=out[1::2])
    scale *= radius
    norms = np.sqrt(sum8(np.square(out, out=u[:8]), scratch.get("sums", 4, n, out.dtype)))
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

    The exact hit test: d2, the lesser squared distance ``nearest_in_coset``
    returns over both cosets, is a hit where ``sqrt(d2) <= separation/2``.
    Both cosets read one ``floor_split`` of y.  ``finite_density_mc`` runs
    it on the float64 samples of the band its float32 screen cannot decide.
    """
    n = y.shape[1]
    floor, up = floor_split(y, scratch)
    best = scratch.get("best", 1, n)[0]
    np.copyto(best, nearest_in_coset(y, floor, up, False, scratch.get("point", 8, n), scratch))
    np.minimum(best, nearest_in_coset(y, floor, up, True, floor, scratch), out=best)
    return int(np.count_nonzero(np.sqrt(best) <= spec.separation / 2.0))


def _float32_edge(x: float, toward: float) -> np.float32:
    """x rounded to float32, then one float32 step toward ``toward`` (-inf or inf).

    The step covers the rounding either way, so the edge lies on the far
    side of x; beyond the float32 range it is the largest float32 or inf.
    """
    with np.errstate(over="ignore"):
        return np.nextafter(np.float32(x), np.float32(toward))


def _worker_count(threads: int, blocks: int) -> int:
    """Workers worth running: at most one per sample block, at least one,
    and one where the platform has no ``os.fork``."""
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(threads, blocks))


#: a worker process's reply: its hits and rechecked, 8 bytes each
_REPLY = 16


def _fork_worker(drain, stripe) -> tuple[int, int]:
    """(pid, read end of its pipe) of a child process that runs drain(stripe).

    The child writes its (hits, rechecked) as two little-endian 8-byte
    integers in one write, which a pipe delivers whole, and leaves through
    ``os._exit``: status 0 after the write, 1 on any exception.  It never
    returns into the caller's stack, runs no exit handlers and flushes none
    of the stdio buffers it inherited.
    """
    read, write = os.pipe()
    try:
        if (pid := os.fork()) == 0:
            status = 1
            try:
                hits, rechecked = drain(stripe)
                os.write(write, hits.to_bytes(8, "little") + rechecked.to_bytes(8, "little"))
                status = 0
            finally:
                os._exit(status)
    except BaseException:
        os.close(read)
        raise
    finally:
        os.close(write)
    return pid, read


def _reap(children) -> list[tuple[int, int]]:
    """Wait for every (pid, read end) of ``children``; returns their (hits, rechecked).

    Every child is read and reaped before any failure is raised: a nonzero
    wait status or a reply short of 16 bytes is a RuntimeError.
    """
    replies = []
    for pid, read in children:
        with os.fdopen(read, "rb") as pipe:
            reply = pipe.read(_REPLY)
        replies.append((pid, os.waitpid(pid, 0)[1], reply))
    for pid, status, reply in replies:
        if status or len(reply) != _REPLY:
            raise RuntimeError(f"Monte-Carlo worker process {pid} failed: wait status "
                               f"{status}, {len(reply)} of {_REPLY} reply bytes")
    return [(int.from_bytes(reply[:8], "little"), int.from_bytes(reply[8:], "little"))
            for _, _, reply in replies]


def finite_density_mc(spec: PeriodicPackingSpec, radius: float, samples: int,
                      seed: int, threads: int = 0) -> DensityEstimate:
    """Monte-Carlo estimate of the finite density at the given window radius.

    Deterministic for fixed (seed, samples): the hit count is a sum of
    per-block integers, each a pure function of the sample indices, so the
    result does not depend on the worker count.  At most one worker runs
    per block, whatever ``threads`` asks for.

    The hit test decodes E8, the lattice of every ``PeriodicPackingSpec``.
    A radius outside (0, DECODE_LIMIT), the decoder's limit on the
    coordinates, more than 2^60 samples, where the lane counters wrap, and
    threads outside [0, 64] (``_MAX_THREADS``) are a ValueError, raised
    before any worker process is forked.  Each block is sampled and
    hit-tested CHUNK columns at a time, in buffers that each worker reuses
    for every block it takes.

    The hit test is a filtered predicate.  Its screen draws every sample
    in float32 (``_sample_chunk``): within (2 sqrt(2) eps + K 2^-24) R of
    the exact float64 sample, with eps = ``_TRIG32_ERROR`` and
    K 2^-24 = ``_ROUNDING32``.  It measures the squared distance with
    ``lattice.e8_distance2`` in float32, within e2 = ``_E2``.  The distance
    to the centers is 1-Lipschitz, so with

        delta = (2 sqrt(2) eps + K 2^-24) R + eta,
        eta = ``_ETA`` (1 + R + rho + 1/rho)

    for the float64 rounding of the exact sampler and decoder, and
    rho = separation/2, a float32 squared distance d2 is a certain hit
    where d2 <= (rho - delta)^2 - e2: the true distance of the float32
    sample is then at most rho - delta, so that of the exact sample, its
    float64 rounding counted, at most rho - ``_ETA`` (rho + 1/rho), which
    the exact test finds within rho.  It is a certain miss
    where d2 > (rho + delta)^2 + e2.  Both edges are rounded outward to
    float32 (``_float32_edge``), since numpy rounds a Python float
    compared with a float32 array to float32 first.  The samples in
    between are drawn again in float64 and decoded by ``_count_hits``,
    with ``nearest_in_coset`` alone, once per block; ``rechecked`` counts
    them.  Where delta >= rho nothing is certain, and where
    R >= 2^20 float32 sums of rounded coordinates are not exact
    integers; either way every sample takes that exact path.  The hits are
    those of the exact sampler and decoder.

    With w workers the call forks w - 1 child processes: worker j takes
    the blocks ``starts[j::w]``, the calling process runs stripe 0 itself,
    and each child sends its (hits, rechecked) back over a pipe
    (``_fork_worker``).  Processes, not threads: a chunk makes about 60
    numpy calls, and threads hand the interpreter lock to each other
    around every one, so two threads ran 1.05 times as fast as one.  Forked,
    not spawned: a spawned worker would import numpy and the package
    afresh, about as long as its share of 2^20 samples takes.  The
    caller reaps every child, also when its own stripe raises, and a child
    that fails or replies short is a RuntimeError (``_reap``).  Where the
    platform has no ``os.fork``, one worker runs every block.
    """
    if not 0 < radius < DECODE_LIMIT:
        raise ValueError(f"radius must be positive and below 2^50, got {radius}")
    if not 1 <= samples <= _MAX_SAMPLES:
        raise ValueError(f"samples must be between 1 and 2^60, got {samples}")
    if not 0 <= threads <= _MAX_THREADS:
        raise ValueError(f"threads must be between 0 and {_MAX_THREADS}, got {threads}")
    key = _stream_key(seed)
    rho = spec.separation / 2.0
    delta = (2.0 * math.sqrt(2.0) * _TRIG32_ERROR * radius + _ROUNDING32 * radius
             + _ETA * (1.0 + radius + rho + 1.0 / rho))
    screened = delta < rho and radius < _SCREEN_LIMIT
    lo2 = _float32_edge((rho - delta) * (rho - delta) - _E2, -np.inf)
    hi2 = _float32_edge((rho + delta) * (rho + delta) + _E2, np.inf)

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
        if not screened:
            return exact_hits(index), index.size
        hits, band = 0, []
        for lo in range(0, index.size, CHUNK):
            part = index[lo:lo + CHUNK]
            y = scratch.get("sample", 8, part.size, np.float32)
            _sample_chunk(key, part, radius, y, scratch)
            d2 = e8_distance2(y, scratch)
            hits += int(np.count_nonzero(d2 <= lo2))
            band.append(part[(lo2 < d2) & (d2 <= hi2)])
        band = np.concatenate(band)
        return hits + exact_hits(band), band.size

    def drain(stripe):
        """(hits, rechecked) of the blocks from the samples in ``stripe``."""
        hits = rechecked = 0
        for start in stripe:
            block_hits, block_rechecked = work(start)
            hits += block_hits
            rechecked += block_rechecked
        return hits, rechecked

    starts = range(0, samples, _BLOCK)
    workers = _worker_count(threads, len(starts))
    children = []
    try:
        for j in range(1, workers):
            children.append(_fork_worker(drain, starts[j::workers]))
        totals = [drain(starts[0::workers])]
    finally:
        replies = _reap(children)
    hits, rechecked = map(sum, zip(*totals, *replies))
    value = hits / samples
    stderr = math.sqrt(max(value * (1.0 - value), 0.0) / samples)
    return DensityEstimate(value=value, stderr=stderr, samples=samples, seed=seed,
                           radius=radius, workers=workers, rechecked=rechecked)
