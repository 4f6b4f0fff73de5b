"""Exact E8 lattice geometry.

Vectors live in Z^8 union (Z+1/2)^8 with even coordinate sum.  Coordinates
are stored doubled (``half_coords``), so membership, norms and Gram data
are integer arithmetic throughout; floating point appears only in the
float decoders ``nearest_in_coset`` (under ``decode_batch``) and
``e8_distance2``, which works in float64 or float32.

Shell counts come from an integer dynamic program over the coordinates
(one coset at a time).  Explicit shell vectors come from a pruned box
expansion on small-integer arrays: each coset grows one coordinate at a
time, keeping the prefixes whose partial norm fits, and one ``lexsort``
orders the result by norm and coordinates.  Each shell's vectors are a
read-only row slice of that one array: int8 doubled coordinates, the
encoding of ``LatticeVector.half_coords``, validated once per shell.  The
two enumeration routes share no code, and the test suite holds them
against each other.
"""

from __future__ import annotations

import math
import mmap
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ResourceGuard

#: counts-only enumeration cap on the squared norm
MAX_NORM2_CAP = 100
#: explicit-vector enumeration cap on the squared norm
MAX_NORM2_VECTORS_CAP = 24


@dataclass(frozen=True)
class LatticeVector:
    """An E8 point, coordinates doubled so they stay integers."""

    half_coords: tuple[int, ...]

    def __post_init__(self):
        if len(self.half_coords) != 8:
            raise ValueError("E8 vectors have 8 coordinates")
        parities = {h & 1 for h in self.half_coords}
        if len(parities) != 1:
            raise ValueError("coordinates must be all integers or all half-integers")
        if sum(self.half_coords) % 4 != 0:
            raise ValueError("coordinate sum must be even")

    def norm2(self) -> int:
        """Exact squared Euclidean norm (always an even integer)."""
        return sum(h * h for h in self.half_coords) // 4


@dataclass(frozen=True)
class Shell:
    """The ``count`` lattice vectors of squared norm ``norm2``, optionally listed.

    ``vectors`` is a read-only (count, 8) int8 array of doubled coordinates
    (row i is vector i's ``half_coords``).  It is validated once, as an
    array: each row is all even or all odd, sums to 0 mod 4 and has
    sum h^2 = 4 norm2; any failure is a ValueError.  Equality and hash go
    by (norm2, count) alone.
    """

    norm2: int
    count: int
    vectors: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.norm2 % 2 or self.norm2 < 0:
            raise ValueError("shell norms in E8 are even and nonnegative")
        if self.vectors is None:
            return
        h = self.vectors
        if not isinstance(h, np.ndarray) or h.dtype != np.int8:
            raise ValueError("shell vectors are an int8 array of doubled coordinates")
        if h.shape != (self.count, 8):
            raise ValueError(f"shell vectors have shape {h.shape}, not ({self.count}, 8)")
        wide = h.astype(np.int32)   # 8 * 128^2 fits: no sum below can overflow
        if ((wide & 1) != (wide[:, :1] & 1)).any():
            raise ValueError("coordinates must be all integers or all half-integers")
        if (wide.sum(axis=1) % 4).any():
            raise ValueError("coordinate sum must be even")
        if (np.einsum("ij,ij->i", wide, wide) != 4 * self.norm2).any():
            raise ValueError("vector with wrong norm in shell")
        view = h.view()
        view.flags.writeable = False
        object.__setattr__(self, "vectors", view)


def e8_membership(v: Sequence) -> bool:
    """Is v (exact half-integer coordinates) a point of the lattice?"""
    if len(v) != 8:
        return False
    halves = []
    for x in v:
        h = Fraction(x) * 2
        if h.denominator != 1:
            raise ValueError(f"coordinate {x} is not a multiple of 1/2")
        halves.append(int(h))
    if len({h & 1 for h in halves}) != 1:
        return False
    return sum(halves) % 4 == 0


@dataclass(frozen=True)
class LatticeBasis:
    rows: tuple[LatticeVector, ...]

    def __post_init__(self):
        if len(self.rows) != 8:
            raise ValueError("a basis has 8 rows")

    def determinant(self) -> Fraction:
        """Exact determinant of the (half-integer) basis matrix."""
        return Fraction(_int_det([list(r.half_coords) for r in self.rows]), 2 ** 8)

    def gram(self) -> list[list[Fraction]]:
        rows = self.rows
        return [[Fraction(sum(a * b for a, b in zip(rows[i].half_coords, rows[j].half_coords)), 4)
                 for j in range(8)] for i in range(8)]


def _int_det(m: list[list[int]]) -> int:
    """Fraction-free Bareiss determinant of an integer matrix."""
    a = [row[:] for row in m]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


@lru_cache(maxsize=1)
def e8_basis() -> LatticeBasis:
    """A fixed unimodular basis: 2e1, the D8 chain, and the half-integer glue row.

    Lower triangular with diagonal (2, 1, 1, 1, 1, 1, 1, 1/2), so the
    determinant is exactly 1.
    """
    rows_halves = [
        (4, 0, 0, 0, 0, 0, 0, 0),
        (-2, 2, 0, 0, 0, 0, 0, 0),
        (0, -2, 2, 0, 0, 0, 0, 0),
        (0, 0, -2, 2, 0, 0, 0, 0),
        (0, 0, 0, -2, 2, 0, 0, 0),
        (0, 0, 0, 0, -2, 2, 0, 0),
        (0, 0, 0, 0, 0, -2, 2, 0),
        (1, 1, 1, 1, 1, 1, 1, 1),
    ]
    return LatticeBasis(tuple(LatticeVector(h) for h in rows_halves))


def covolume() -> float:
    """|det| of the basis; 1 for this unimodular lattice."""
    return float(abs(e8_basis().determinant()))


# ---------------------------------------------------------------------------
# shells
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _shell_counts(max_norm2: int) -> tuple[int, ...]:
    """counts[m] = #{v : ||v||^2 = m} for m = 0..max_norm2, by coordinate DP.

    Integer coset: 8 coordinates x in Z contribute x^2 with parity x mod 2;
    half coset: x = m + 1/2 contributes (2m+1)^2/4, tracked at scale 4 so the
    table stays integral; the even-sum constraint is a parity bit.
    """
    m4 = 4 * max_norm2

    def coset_counts(contributions: list[tuple[int, int]]) -> list[int]:
        # dp[parity][k]: ways to reach scaled norm k with given sum-parity
        dp = [[0] * (m4 + 1) for _ in range(2)]
        dp[0][0] = 1
        for _ in range(8):
            ndp = [[0] * (m4 + 1) for _ in range(2)]
            for par in (0, 1):
                row = dp[par]
                for k in range(m4 + 1):
                    c = row[k]
                    if c:
                        for add, p in contributions:
                            if k + add <= m4:
                                ndp[par ^ p][k + add] += c
            dp = ndp
        return dp[0]

    xmax = int(math.isqrt(max_norm2))
    integer = coset_counts([(4 * x * x, abs(x) & 1) for x in range(-xmax, xmax + 1)])
    hmax = int(math.isqrt(m4))
    half = coset_counts([(h * h, ((h - 1) // 2) & 1) for h in range(-hmax, hmax + 1) if h & 1])
    return tuple(integer[4 * m] + half[4 * m] for m in range(0, max_norm2 + 1))


def _box_vectors(max_norm2: int) -> tuple[np.ndarray, np.ndarray]:
    """All nonzero lattice vectors with ||v||^2 <= max_norm2, pruned box search.

    Returns their doubled coordinates, an (n, 8) int8 array, and their
    squared norms, an (n,) int16 array, sorted by (norm, coordinates).
    """
    budget4 = 4 * max_norm2  # in half-coordinate scale
    hmax = math.isqrt(budget4)
    coords, norms = [], []
    for parity in (0, 1):
        top = hmax - (hmax - parity) % 2  # largest |h| of this coset's parity
        h = np.arange(-top, top + 1, 2, dtype=np.int8)
        h2 = h.astype(np.int16) ** 2
        c, used = np.zeros((1, 0), np.int8), np.zeros(1, np.int16)
        for _ in range(8):
            rows, cols = np.nonzero(used[:, None] + h2 <= budget4)
            c, used = np.column_stack([c[rows], h[cols]]), used[rows] + h2[cols]
        keep = (c.sum(axis=1) % 4 == 0) & (used > 0)
        coords.append(c[keep])
        norms.append(used[keep] // 4)
    coords, norm2 = np.concatenate(coords), np.concatenate(norms)
    order = np.lexsort((*coords.T[::-1], norm2))  # the last key sorts first
    return coords[order], norm2[order]


def enumerate_shells(max_norm2: int, with_vectors: bool = False) -> list[Shell]:
    """Shells 0 < ||v||^2 <= max_norm2, complete and duplicate-free.

    Counts come from ``_shell_counts``.  ``with_vectors`` runs the box
    search on every call (max_norm2 <= MAX_NORM2_VECTORS_CAP) and gives each
    shell its rows of the one sorted int8 array of doubled coordinates.
    """
    if max_norm2 < 0:
        raise ValueError("max_norm2 must be nonnegative")
    if max_norm2 > MAX_NORM2_CAP:
        raise ResourceGuard(f"max_norm2 = {max_norm2} above cap {MAX_NORM2_CAP}")
    if with_vectors:
        if max_norm2 > MAX_NORM2_VECTORS_CAP:
            raise ResourceGuard(
                f"explicit vectors capped at norm^2 {MAX_NORM2_VECTORS_CAP}")
        coords, norm2 = _box_vectors(max_norm2)
        starts = np.flatnonzero(np.diff(norm2, prepend=-1)).tolist()
        return [Shell(int(norm2[lo]), hi - lo, coords[lo:hi])
                for lo, hi in zip(starts, starts[1:] + [len(norm2)])]
    counts = _shell_counts(max_norm2)
    return [Shell(m, counts[m]) for m in range(2, max_norm2 + 1, 2) if counts[m]]


def min_norm() -> float:
    """Minimal distance between distinct lattice points: sqrt(2)."""
    shells = enumerate_shells(2)
    if not shells:
        raise RuntimeError("no shell found at norm^2 = 2")
    return math.sqrt(shells[0].norm2)


def theta_coefficients(max_n: int) -> list[int]:
    """r(n) = #{v : ||v||^2 = 2n} for n = 0..max_n (the lattice's theta numbers)."""
    cap = MAX_NORM2_CAP // 2
    if max_n > cap:
        raise ResourceGuard(f"max_n = {max_n} above cap {cap}")
    counts = _shell_counts(2 * max_n)
    return [1] + [counts[2 * n] for n in range(1, max_n + 1)]


# ---------------------------------------------------------------------------
# nearest point
# ---------------------------------------------------------------------------

#: columns per pass of the coset kernel and of the Monte-Carlo sampler.  The
#: buffers of a pass (512 KiB for 8 rows) stay in a core's L2 cache; a pass
#: makes about 60 numpy calls whatever its width, so at 4,096 columns each
#: sample paid more interpreter time
CHUNK = 1 << 13


#: private anonymous maps where the platform has the flag (Windows maps are private)
_PRIVATE = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}


class Scratch(threading.local):
    """Named work arrays that each thread reuses from pass to pass; one
    instance may be shared by threads, each of which sees its own arrays.

    The coset kernel, the Monte-Carlo sampler and ``magic``'s Laplace sweep
    take their large temporaries from here.  With fresh multi-megabyte
    temporaries in every block, malloc handed their pages back to the
    operating system between blocks, and taking them back cost a page fault
    per 4 KiB: about a third of the Monte-Carlo time at 2^20 samples on a
    2-vCPU Xeon VM.

    The buffers are anonymous memory maps, not malloc blocks, so a buffer
    that is dropped goes back to the operating system at once, whichever
    thread made it; from malloc, a thread's buffers could stay resident in
    its arena after the thread ended.  The arrays are per thread so that
    threads may share one instance, and with it one ``MagicEvaluator``.
    The Monte-Carlo workers are forked processes, each with its own copy.
    """

    def __init__(self):
        self.arrays: dict[tuple[str, np.dtype], np.ndarray] = {}

    def get(self, name: str, rows: int, n: int, dtype=np.float64) -> np.ndarray:
        """A C-contiguous (rows, n) view of the 1-D buffer of this ``name`` and
        ``dtype``, which grows to fit; its contents are stale.  One name in two
        dtypes is two buffers."""
        key = name, np.dtype(dtype)
        buf = self.arrays.get(key)
        if buf is None or buf.size < rows * n:
            nbytes = max(rows * n, 1) * key[1].itemsize    # mmap refuses 0 bytes
            buf = self.arrays[key] = np.frombuffer(mmap.mmap(-1, nbytes, **_PRIVATE), key[1])
        return buf[:rows * n].reshape(rows, n)


def sum8(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Column sums of an (8, n) array, ((x0+x1)+(x2+x3))+((x4+x5)+(x6+x7)).

    The tree is the order numpy's pairwise ``sum(axis=1)`` uses on eight
    contiguous elements, so the sums equal those of the row-major layout
    bit for bit.  ``out`` is a (4, n) array; the sums are its row 0.
    """
    s = np.add(x[0::2], x[1::2], out=out)
    s[0::2] += s[1::2]
    s[0] += s[2]
    return s[0]


def floor_split(y: np.ndarray, scratch: Scratch) -> tuple[np.ndarray, np.ndarray]:
    """floor(y), and where y - floor(y) >= 1/2, for y, (8, n) with n <= CHUNK.

    Both cosets of ``nearest_in_coset`` read their rounding off these two
    arrays, so each column is floored once for both.  They are rows of
    ``scratch`` that the next call overwrites.
    """
    n = y.shape[1]
    floor = np.floor(y, out=scratch.get("floor", 8, n))
    frac = np.subtract(y, floor, out=scratch.get("coset", 8, n))
    return floor, np.greater_equal(frac, 0.5, out=scratch.get("up", 8, n, np.bool_))


def nearest_in_coset(y: np.ndarray, floor: np.ndarray, up: np.ndarray, half: bool,
                     point: np.ndarray, scratch: Scratch) -> np.ndarray:
    """Nearest point of D8, or of D8 + (1/2,...,1/2), to each column of y.

    ``y`` is (8, n) with n <= CHUNK, and ``floor`` and ``up`` are its
    ``floor_split``.  Writes the nearest points into ``point`` and returns
    their squared distances, a row of ``scratch`` that the next call
    overwrites.  The half coset may take ``floor`` itself as ``point``, and
    then overwrites it, so it comes second.  Every coordinate is rounded
    half up exactly: with f = floor(y), D8 takes f + [y - f >= 1/2] and the
    half coset f + 1/2.  y - f is exact, so comparing it with 1/2 is exact
    too, and no float sum such as x + 1/2 or y - 1/2 can move the choice.
    Where the coordinate sum comes out odd, the coordinate farthest from its
    point (by y - point, or (y - f) - 1/2 in the half coset) is rounded the
    other way (Conway & Sloane).
    """
    n = y.shape[1]
    if point is not floor:
        np.copyto(point, floor)
    if not half:
        point += up
    odd = np.flatnonzero(sum8(point, scratch.get("sums", 4, n)).astype(np.int64) & 1)
    if odd.size:
        delta = y[:, odd] - point[:, odd]
        if half:
            delta -= 0.5
        idx = np.abs(delta).argmax(axis=0)
        point[idx, odd] += np.where(delta[idx, np.arange(odd.size)] >= 0.0, 1.0, -1.0)
    if half:
        point += 0.5
    diff = np.subtract(y, point, out=scratch.get("coset", 8, n))
    return sum8(np.square(diff, out=diff), scratch.get("sums", 4, n))


def e8_distance2(y: np.ndarray, scratch: Scratch) -> np.ndarray:
    """Squared distance from each column of y, (8, n) with n <= CHUNK, to the nearest E8 point.

    Works in y's dtype: float64, or float32 for the Monte-Carlo screen.
    Both cosets are read off one rounding (Conway & Sloane).  With f the
    nearest integer to each coordinate, d = y - f is exact; r = |d|,
    S1 = sum r and S2 = sum r^2.  The nearest point of D8 is f, at S2, or,
    where sum f is odd, f with the coordinate of largest r rounded the
    other way, at S2 + 1 - 2 max r.  The nearest point of
    D8 + (1/2,...,1/2) is floor(y) + 1/2, at sum (1/2 - r)^2 =
    S2 + 2 - S1, or, where sum floor(y) is odd, that point with the
    coordinate of smallest r moved by one, at 2 min r more; sum floor(y)
    is sum f less the count of d < 0.  Both sums of f are exact integers
    while |y| < 2^20 in float32 (2^50 in float64).

    Every term is the distance to a lattice point, so only the rounding of
    the sums separates the result from the true squared distance.  With u
    the dtype's unit roundoff (eps/2) and r <= 1/2, so S2 <= 2 and
    S1 <= 4, the pairwise sums are off by at most 4u S2 <= 8u and
    3u S1 <= 12u (to first order in u), and the three additions of the half-coset term, whose
    partial results stay below 3, 5 and 3, by 2u, 4u and 2u more: at most
    28u < e2 = 16 eps, that is 2^-48 in float64 and 2^-19 in float32.
    The D8 term is within 11u.  ``decode_batch`` rounds exactly too, but
    sums its squares in another order and may break a tie between equally
    distant points the other way; the tests hold the two within
    2^-46 (1 + max |y|) in float64 and within e2 in float32.  The result is
    a row of ``scratch`` that the next call overwrites.
    """
    n, dtype = y.shape[1], y.dtype
    r = np.rint(y, out=scratch.get("coset", 8, n, dtype))
    odd = scratch.get("odd", 1, n, np.int64)[0]
    np.copyto(odd, sum8(r, scratch.get("sums", 4, n, dtype)), casting="unsafe")
    odd &= 1
    np.subtract(y, r, out=r)
    neg = np.less(r, 0.0, out=scratch.get("neg", 8, n, np.bool_))
    negs = sum8(neg.view(np.uint8), scratch.get("negs", 4, n, np.uint8))
    np.abs(r, out=r)
    d8, half, s1 = scratch.get("terms", 3, n, dtype)
    np.max(r, axis=0, out=d8)
    np.min(r, axis=0, out=half)
    np.copyto(s1, sum8(r, scratch.get("sums", 4, n, dtype)))
    s2 = sum8(np.square(r, out=r), scratch.get("sums", 4, n, dtype))
    d8 *= -2.0
    d8 += 1.0
    d8 *= odd
    d8 += s2
    odd += negs
    odd &= 1
    half *= 2.0
    half *= odd
    half += s2
    half += 2.0
    half -= s1
    return np.minimum(d8, half, out=d8)


#: decode_batch's work arrays (at most CHUNK columns each), kept from call to
#: call: fresh maps in every call cost a page fault per 4 KiB
_DECODE_SCRATCH = Scratch()


def decode_batch(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized decoder: nearest lattice points and distances for an (n,8) array.

    Decodes in D8 and in D8 + (1/2,...,1/2), both from one ``floor_split``,
    and keeps the closer point.  The kernel runs on the (8, n) transpose, CHUNK columns at a time; it is
    contiguous for the Monte-Carlo sampler's blocks.  The points come back
    as an (n, 8) view of an (8, n) array.
    """
    y = np.asarray(points, dtype=np.float64)
    if y.ndim == 1:
        y = y[None, :]
    if y.ndim != 2 or y.shape[1] != 8:
        raise ValueError(f"decode_batch expects (n, 8) points, got shape {y.shape}")
    best, dist = np.empty((8, len(y))), np.empty(len(y))
    scratch = _DECODE_SCRATCH
    for lo in range(0, len(y), CHUNK):
        cols = slice(lo, lo + CHUNK)
        yt = y[cols].T
        floor, up = floor_split(yt, scratch)
        da = nearest_in_coset(yt, floor, up, False, best[:, cols], scratch).copy()
        db = nearest_in_coset(yt, floor, up, True, floor, scratch)   # its points replace floor
        use_b = db < da
        best[:, cols] = np.where(use_b, floor, best[:, cols])
        np.sqrt(np.where(use_b, db, da), out=dist[cols])
    return best.T, dist


#: callers of the decoder refuse |x| >= DECODE_LIMIT: below it every sum of
#: eight rounded coordinates is an exact float integer, with a defined parity
DECODE_LIMIT = 2.0 ** 50


def nearest_point(y: Sequence[float]) -> tuple[LatticeVector, float]:
    """Nearest lattice point to y and the Euclidean distance.

    Refuses (ValueError) a coordinate that is not finite or has
    |x| >= DECODE_LIMIT.
    """
    arr = np.asarray(list(y), dtype=np.float64)
    if arr.shape != (8,):
        raise ValueError("nearest_point expects an 8-vector")
    if not (np.abs(arr) < DECODE_LIMIT).all():
        raise ValueError("coordinates must be finite with |x| < 2^50")
    best, dist = decode_batch(arr[None, :])
    halves = tuple(int(round(2.0 * c)) for c in best[0])
    return LatticeVector(halves), float(dist[0])
