"""The coordinate-major Monte-Carlo kernel against the row-major formulation.

The reference functions below are the earlier row-major sampler and decoder,
kept verbatim as an oracle.  Comparing in one process ties the test to no
particular libm: both sides call the same log, sin, cos and pow.  The
oracle's 8-sums are numpy's pairwise ``sum(axis=1)``, which is the tree
((s0+s1)+(s2+s3))+((s4+s5)+(s6+s7)) only on C-contiguous rows, so the
oracle always gets C-contiguous input.
"""

import math
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from spherepack import lattice, packing
from spherepack.lattice import CHUNK, decode_batch
from spherepack.packing import (
    _BLOCK,
    PeriodicPackingSpec,
    _sample_block,
    e8_packing_spec,
    finite_density_mc,
)

# -- the row-major reference ---------------------------------------------------

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def ref_splitmix64(x):
    with np.errstate(over="ignore"):
        z = x + _GAMMA
        z = (z ^ (z >> np.uint64(30))) * _M1
        z = (z ^ (z >> np.uint64(27))) * _M2
        return z ^ (z >> np.uint64(31))


def ref_uniforms(seed, indices, lane):
    with np.errstate(over="ignore"):
        key = indices * np.uint64(16) + np.uint64(lane)
        bits = ref_splitmix64(key ^ ref_splitmix64(np.uint64(seed & (2 ** 64 - 1))))
    return (bits >> np.uint64(11)).astype(np.float64) * 2.0 ** -53 + 2.0 ** -54


def ref_sample_block(seed, start, count, radius):
    idx = np.arange(start, start + count, dtype=np.uint64)
    normals = np.empty((count, 8))
    for pair in range(4):
        u1 = ref_uniforms(seed, idx, 2 * pair)
        u2 = ref_uniforms(seed, idx, 2 * pair + 1)
        rho = np.sqrt(-2.0 * np.log(u1))
        normals[:, 2 * pair] = rho * np.cos(2.0 * math.pi * u2)
        normals[:, 2 * pair + 1] = rho * np.sin(2.0 * math.pi * u2)
    norms = np.sqrt((normals ** 2).sum(axis=1))
    norms[norms == 0.0] = 1.0
    u = ref_uniforms(seed, idx, 8)
    r = radius * u ** 0.125
    return normals * (r / norms)[:, None]


def ref_decode_coset(y, half):
    """Nearest points of D8, or of D8 + 1/2, to the rows of y: each coordinate
    rounded half up exactly from floor(y), then the parity fix."""
    f = np.floor(y)
    frac = y - f
    p = f if half else f + (frac >= 0.5)
    delta = frac - 0.5 if half else y - p
    odd = (p.sum(axis=1).astype(np.int64) & 1).astype(bool)
    if odd.any():
        idx = np.abs(delta[odd]).argmax(axis=1)
        rows = np.nonzero(odd)[0]
        step = np.where(delta[rows, idx] >= 0.0, 1.0, -1.0)
        p[rows, idx] += step
    return p + 0.5 if half else p


def ref_decode_batch(points):
    y = np.asarray(points, dtype=np.float64)
    if y.ndim == 1:
        y = y[None, :]
    a = ref_decode_coset(y, False)
    b = ref_decode_coset(y, True)
    da = ((y - a) ** 2).sum(axis=1)
    db = ((y - b) ** 2).sum(axis=1)
    use_b = db < da
    best = np.where(use_b[:, None], b, a)
    dist = np.sqrt(np.where(use_b, db, da))
    return best, dist


def ref_hits(spec, radius, samples, seed):
    hits = 0
    for start in range(0, samples, _BLOCK):
        pts = ref_sample_block(seed, start, min(_BLOCK, samples - start), radius)
        _, d = ref_decode_batch(pts)
        hits += int((d <= spec.separation / 2.0).sum())
    return hits


# -- bit identity ----------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 42, -5, 2 ** 64 - 1])
@pytest.mark.parametrize("start", [0, 7, 3 * _BLOCK, 2 ** 40])
@pytest.mark.parametrize("count", [1, 1000, CHUNK + 1, _BLOCK])
def test_sampler_matches_row_major(seed, start, count):
    pts = _sample_block(seed, start, count, 5.0)
    assert pts.shape == (count, 8)
    assert np.array_equal(pts, ref_sample_block(seed, start, count, 5.0))


def test_sampler_returns_transpose_of_contiguous_block():
    pts = _sample_block(3, 0, 1000, 2.0)
    assert pts.T.flags.c_contiguous


@pytest.mark.parametrize("scale", [0.7, 20.0])
def test_decoder_matches_row_major_on_uniform_points(scale):
    y = np.random.default_rng(11).uniform(-scale, scale, size=(3 * CHUNK + 5, 8))
    best, dist = decode_batch(y)
    want_best, want_dist = ref_decode_batch(y)
    assert np.array_equal(best, want_best)
    assert np.array_equal(dist, want_dist)


def test_decoder_matches_row_major_on_rounding_boundaries():
    # ties in the parity fix, exact halves, integers with odd sums, and
    # coordinates so small that y - 1/2 + 1/2 rounds to 0
    edges = np.array([0.0, -0.0, 1e-20, -1e-20, 0.5, -0.5, 1.5, -1.5, 0.25, -0.25,
                      1.0, -1.0, 2.0, 0.75, -0.75, 3.5])
    y = np.random.default_rng(2).choice(edges, size=(5000, 8))
    # the farthest coordinate is exactly on its integer: the fix steps up
    y = np.vstack([y, [1.0] + [0.0] * 7, [-1.0] + [0.0] * 7, [1.5] + [0.5] * 7])
    best, dist = decode_batch(y)
    want_best, want_dist = ref_decode_batch(y)
    assert np.array_equal(best, want_best)
    assert np.array_equal(dist, want_dist)


def test_decoder_matches_row_major_on_sampled_points():
    pts = _sample_block(42, 0, _BLOCK, 5.0)
    best, dist = decode_batch(pts)
    want_best, want_dist = ref_decode_batch(np.ascontiguousarray(pts))
    assert np.array_equal(best, want_best)
    assert np.array_equal(dist, want_dist)


#: one center per lattice point, at offset zero
CENTERED = [pytest.param(e8_packing_spec(), id="zero-offset")]


@pytest.mark.parametrize("spec", CENTERED)
def test_hit_counts_match_row_major(spec):
    for radius in (0.5, 1.0, 3.0, 30.0, 1e5):    # at 1e5 every sample takes the exact path
        want = ref_hits(spec, radius, 40_000, 9) / 40_000
        for threads in (1, 2):
            est = finite_density_mc(spec, radius=radius, samples=40_000, seed=9, threads=threads)
            assert est.workers == threads
            assert est.value == want, (radius, threads)


def _exact_hits(spec, radius, samples, seed):
    """Hits of the float64 sampler and the exact hit test, with no float32 pass."""
    key, scratch = packing._stream_key(seed), lattice.Scratch()
    hits = 0
    for lo in range(0, samples, CHUNK):
        index = np.arange(lo, min(lo + CHUNK, samples), dtype=np.uint64)
        y = np.empty((8, index.size))
        packing._sample_chunk(key, index, radius, y, scratch)
        hits += packing._count_hits(y, spec, scratch)
    return hits


@pytest.mark.parametrize("spec", CENTERED)
@pytest.mark.parametrize("radius", [0.5, math.sqrt(0.5), 1.0, 5.0, 30.0, 3000.0, 30_000.0,
                                    60_000.0, 2.0 ** 40])
def test_filtered_hits_equal_exact_hits(spec, radius):
    for samples in (1, CHUNK + 1, 3 * _BLOCK + 5):
        want = _exact_hits(spec, radius, samples, 17) / samples
        for threads in (1, 2):
            est = finite_density_mc(spec, radius=radius, samples=samples, seed=17,
                                    threads=threads)
            assert est.value == want, (samples, threads)
            if radius == 2.0 ** 40:    # delta >= rho: every sample takes the exact path
                assert est.rechecked == samples
            elif radius <= 30.0 and samples > CHUNK:
                assert est.rechecked < samples // 10


def test_float32_trig_within_bound():
    # the sampler's angles 2 pi u, u the open-interval uniforms, with both extremes
    bits = np.random.default_rng(3).integers(0, 2 ** 53, size=1 << 22, dtype=np.uint64)
    u = np.concatenate([bits * 2.0 ** -53 + 2.0 ** -54, [2.0 ** -54, 1.0 - 2.0 ** -54]])
    worst = 0.0
    for part in np.array_split(u, 8):
        angle = part * (2.0 * math.pi)
        angle32 = angle.astype(np.float32)
        for trig in (np.cos, np.sin):
            worst = max(worst, float(np.abs(trig(angle32).astype(np.float64) - trig(angle)).max()))
    assert worst < packing._TRIG32_ERROR / 4


@pytest.mark.parametrize("radius", [1.0, 5.0, 3000.0, 2.0 ** 19])
def test_float32_sample_within_bound(radius):
    # 2^22 samples, each drawn by the screen in float32 and by the exact path in float64
    key, scratch = packing._stream_key(13), lattice.Scratch()
    narrow, wide = np.empty((8, CHUNK), np.float32), np.empty((8, CHUNK))
    worst = 0.0
    for lo in range(0, 1 << 22, CHUNK):
        index = np.arange(lo, lo + CHUNK, dtype=np.uint64)
        packing._sample_chunk(key, index, radius, narrow, scratch)
        packing._sample_chunk(key, index, radius, wide, scratch)
        worst = max(worst, float(np.linalg.norm(narrow - wide, axis=0).max()))
    term = (2.0 * math.sqrt(2.0) * packing._TRIG32_ERROR + packing._ROUNDING32) * radius
    assert worst < term / 4


def test_float32_edges_round_outward():
    for x in (0.25, 1.0 / 3.0, 0.5 - 2.0 ** -40, 2.0 ** -30, -1e-3, 1e60):
        lo, hi = packing._float32_edge(x, -np.inf), packing._float32_edge(x, np.inf)
        assert lo.dtype == hi.dtype == np.float32
        assert float(lo) < x < float(hi)
        column = np.array([lo, hi], dtype=np.float32)
        assert list(column <= lo) == [True, False] and list(column > hi) == [False, False]


def test_screen_needs_reach_below_2_20():
    # rho = 60 exceeds delta at every radius here, and every point lies within 1 of E8
    samples = CHUNK + 1
    wide = PeriodicPackingSpec(separation=120.0)
    below = finite_density_mc(wide, radius=2.0 ** 19, samples=samples, seed=2)
    assert (below.value, below.rechecked) == (1.0, 0)    # the screen decides every sample
    at = finite_density_mc(wide, radius=2.0 ** 20, samples=samples, seed=2)
    assert (at.value, at.rechecked) == (1.0, samples)


def _unfixed_d2(y, half):
    """Squared distance of each row of y to its rounding by floor(x + 1/2) on the coset's
    grid, parity ignored."""
    shift = 0.5 if half else 0.0
    return ((y - (np.floor((y - shift) + 0.5) + shift)) ** 2).sum(axis=1)


def _parity_block():
    """Rows where the parity fix decides the hit, for D8 and, shifted by 1/2, its half coset.

    Every base row but the last rounds to an odd coordinate sum in D8, and
    each lies at squared distance 3/4 or more from the half coset, so D8
    alone decides.
    """
    base = [
        [1.0, 0.2, 0.2, 0, 0, 0, 0, 0],          # unfixed 0.08 within, fixed 0.68 beyond
        [0.6, 0, 0, 0, 0, 0, 0, 0],              # unfixed 0.16 within, fixed 0.36 within
        [1.0, 0.45, 0.45, 0.45, 0, 0, 0, 0],     # unfixed 0.61 beyond, fixed 0.71 beyond
        [0.5, -0.5, 0, 0, 0, 0, 0, 0],           # unfixed and fixed exactly rho
        [0.625] + [0.125] * 7,                   # unfixed 1/4, fixed exactly rho
        [0.625, 0.375, 0.375] + [0.125] * 5,     # unfixed exactly rho, fixed 3/4 beyond
        [0.5, 0.5, 0, 0, 0, 0, 0, 0],            # even sum, exactly rho
    ]
    # At x = 1/2 - 2^-54 the float sum x + 1/2 rounds up to 1: rounded that
    # way, |x - f| is 1/2 + 2^-54 with an odd sum, and only the fix reaches
    # the nearer point, at 1/2 - 2^-54, which exact rounding takes at once.
    # A third coordinate walks the unfixed distance across rho.
    corners = []
    for x in (0.4921875, 0.49609375, 0.498046875):
        z0 = math.sqrt(0.5 + 2.0 ** -52 - 0.25 - x * x)
        for k in range(-3, 4):
            z = z0 + k * math.ulp(z0)
            corners.append([0.5 - 2.0 ** -54, -x, -z, 0, 0, 0, 0, 0])      # D8
            corners.append([-2.0 ** -54, 0.5 - x, 0.5 - z, 1.5] + [0.5] * 4)  # half coset
    base = np.array(base)
    return np.vstack([base, base + 0.5, np.array(corners)])


def test_hits_where_the_parity_fix_decides(monkeypatch):
    y = _parity_block()
    spec = e8_packing_spec()
    rho = spec.separation / 2.0
    want = ref_decode_batch(y)[1] <= rho
    # in both cosets some corner row, rounded by x + 1/2, is a hit only after the fix
    for half, first in ((False, 0.5 - 2.0 ** -54), (True, -2.0 ** -54)):
        rows = y[:, 0] == first
        assert (want[rows] & (np.sqrt(_unfixed_d2(y[rows], half)) > rho)).any()

    ran = []

    def counting(cols, floor, up, half, point, scratch):
        ran.append((half, cols.shape[1]))
        return lattice.nearest_in_coset(cols, floor, up, half, point, scratch)

    monkeypatch.setattr(packing, "nearest_in_coset", counting)
    scratch = lattice.Scratch()
    cols = np.ascontiguousarray(y.T)
    assert packing._count_hits(cols, spec, scratch) == int(want.sum())
    assert {half for half, _ in ran} == {False, True}
    assert sum(n for _, n in ran) == 2 * len(y)    # every column is decoded in both cosets
    got = [packing._count_hits(cols[:, i:i + 1].copy(), spec, scratch) for i in range(len(y))]
    assert np.array_equal(np.array(got, dtype=bool), want)


def _exact_distance2(y):
    """Squared distance from each column of y, (8, n), to the point ``decode_batch`` finds."""
    best, _ = decode_batch(y.T)
    return lattice.sum8(np.square(y - best.T), np.empty((4, y.shape[1])))


def _hand_made_columns():
    """Columns where the closed form's roundings and parity terms decide, as an (8, n) array."""
    rng = np.random.default_rng(21)
    ties = rng.choice([0.5, -0.5, 1.5, -1.5, 2.5, 0.0, -0.0, 1.0, 0.25], size=(2000, 8))
    signs = np.array([[1 - 2 * ((k >> i) & 1) for i in range(8)] for k in range(256)])
    holes = 0.5 * signs                               # lattice points and deep holes
    holes = np.vstack([holes, holes + np.eye(8)[rng.integers(0, 8, 256)]])
    parity = _parity_block()                          # odd sums in D8 and in the half coset
    zeros = np.array([[-0.0] * 8, [-0.0, 0.5] + [-0.0] * 6, [-0.0] * 7 + [-0.5],
                      [0.5 - 2.0 ** -54, 0.5 - 2.0 ** -54] + [0.0] * 6])
    shells = lattice.enumerate_shells(4, with_vectors=True)
    centers = np.vstack([sh.vectors[:40] / 2.0 for sh in shells] + [np.zeros((1, 8))])
    direction = rng.standard_normal((len(centers), 8))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    sphere = centers + direction * (math.sqrt(2.0) / 2.0)   # at rho from a lattice point
    cols = np.vstack([ties, holes, parity, zeros, sphere])
    offset = np.array([0.5, -0.25, 0.0, 0.0, 1.0, 0.0, 0.0, 0.125])
    return np.ascontiguousarray(np.vstack([cols, cols - offset]).T)


def _random_columns(radius):
    rng = np.random.default_rng(int(radius))
    uniform = rng.uniform(-radius, radius, size=(8, CHUNK))
    sampled = np.ascontiguousarray(_sample_block(5, 0, CHUNK, radius).T)
    return [uniform, sampled]


@pytest.mark.parametrize("radius", [5.0, 60_000.0, None], ids=["R=5", "R=60000", "hand-made"])
def test_e8_distance2_matches_exact_decoder(radius):
    blocks = _random_columns(radius) if radius else [_hand_made_columns()]
    scratch = lattice.Scratch()
    for y in blocks:
        for lo in range(0, y.shape[1], CHUNK):
            cols = np.ascontiguousarray(y[:, lo:lo + CHUNK])
            got = lattice.e8_distance2(cols, scratch)
            want = _exact_distance2(cols)
            bound = 2.0 ** -46 * (1.0 + np.abs(cols).max(axis=0))
            assert (np.abs(got - want) <= bound).all(), np.abs(got - want).max()
            assert (got <= 1.0 + 2.0 ** -48).all()    # the covering radius of E8 is 1


@pytest.mark.parametrize("radius", [5.0, 2.0 ** 19, None], ids=["R=5", "R=2^19", "hand-made"])
def test_float32_e8_distance2_within_e2(radius):
    blocks = _random_columns(radius) if radius else [_hand_made_columns()]
    scratch = lattice.Scratch()
    for y in blocks:
        for lo in range(0, y.shape[1], CHUNK):
            cols = y[:, lo:lo + CHUNK].astype(np.float32)
            got = lattice.e8_distance2(cols, scratch)
            assert got.dtype == np.float32
            want = _exact_distance2(cols.astype(np.float64))    # the same points, decoded exactly
            bound = packing._E2 + 2.0 ** -46 * (1.0 + np.abs(cols).max(axis=0))
            assert (np.abs(got - want) <= bound).all(), np.abs(got - want).max()


def _counting_forks(monkeypatch) -> list:
    """Make os.fork append to the returned list (in the caller) before it forks."""
    forks, fork = [], os.fork

    def counting():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    return forks


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_blocks_stream_to_at_most_workers_tasks(monkeypatch):
    # w workers are the caller and w - 1 forked children, one stripe of blocks each
    forks = _counting_forks(monkeypatch)
    spec = e8_packing_spec()
    samples = 16 * _BLOCK + 3   # 17 blocks
    one = finite_density_mc(spec, radius=5.0, samples=samples, seed=8, threads=1)
    assert one.workers == 1 and len(forks) == 0
    two = finite_density_mc(spec, radius=5.0, samples=samples, seed=8, threads=2)
    assert two.workers == 2 and len(forks) == 1
    assert (one.value, one.stderr, one.rechecked) == (two.value, two.stderr, two.rechecked)
    assert type(two.value) is float and type(two.rechecked) is int
    _no_child_left()


def test_workers_share_the_block_iterator_under_stress(monkeypatch):
    # more workers than CPUs, and more than blocks: each block is still run exactly once
    forks = _counting_forks(monkeypatch)
    spec = e8_packing_spec()
    samples = 12 * _BLOCK + 7   # 13 blocks
    want = finite_density_mc(spec, radius=30.0, samples=samples, seed=6, threads=1)
    threads = (os.cpu_count() or 1) + 2
    started = time.perf_counter()
    got = [finite_density_mc(spec, radius=30.0, samples=samples, seed=6, threads=threads)
           for _ in range(3)]
    assert time.perf_counter() - started < 60
    assert [est.workers for est in got] == [min(threads, 13)] * 3
    assert len(forks) == 3 * (min(threads, 13) - 1)
    del forks[:]
    got.append(finite_density_mc(spec, radius=30.0, samples=samples, seed=6, threads=64))
    assert got[-1].workers == 13 and len(forks) == 12
    for est in got:
        assert (est.value, est.stderr, est.rechecked) == (want.value, want.stderr, want.rechecked)
    assert type(got[-1].rechecked) is int
    _no_child_left()


def test_a_failing_worker_is_an_error_and_leaves_no_child(monkeypatch):
    sample_chunk = packing._sample_chunk

    def failing(key, index, *args):
        # block 1 belongs to stripe 1, which the forked child runs
        if index.size and _BLOCK <= int(index[0]) < 2 * _BLOCK:
            raise ArithmeticError("injected")
        return sample_chunk(key, index, *args)

    monkeypatch.setattr(packing, "_sample_chunk", failing)
    with pytest.raises(RuntimeError, match="worker process .* failed: wait status"):
        finite_density_mc(e8_packing_spec(), radius=5.0, samples=4 * _BLOCK, seed=1, threads=2)
    _no_child_left()


@pytest.mark.parametrize("bad", [dict(threads=65), dict(threads=-3), dict(radius=math.nan),
                                 dict(radius=0.0), dict(samples=0), dict(samples=2 ** 60 + 1)],
                         ids=["threads", "negative-threads", "nan-radius", "zero-radius",
                              "no-samples", "too-many"])
def test_refusals_come_before_any_fork(monkeypatch, bad):
    def no_fork():
        raise AssertionError("forked before refusing")

    monkeypatch.setattr(os, "fork", no_fork)
    args = {**dict(radius=5.0, samples=4 * _BLOCK, seed=1, threads=2), **bad}
    with pytest.raises(ValueError):
        finite_density_mc(e8_packing_spec(), **args)


def test_one_worker_where_the_platform_cannot_fork(monkeypatch):
    spec = e8_packing_spec()
    want = finite_density_mc(spec, radius=5.0, samples=3 * _BLOCK, seed=2, threads=3)
    monkeypatch.delattr(os, "fork")
    got = finite_density_mc(spec, radius=5.0, samples=3 * _BLOCK, seed=2, threads=3)
    assert (want.workers, got.workers) == (3, 1)
    assert (got.value, got.rechecked) == (want.value, want.rechecked)


def test_workers_do_not_flush_the_callers_stdout():
    # stdout is a pipe here, so the line waits in the buffer across the fork
    script = ("import sys\n"
              "from spherepack.packing import e8_packing_spec, finite_density_mc\n"
              "sys.stdout.write('before the workers\\n')\n"
              "est = finite_density_mc(e8_packing_spec(), 5.0, 65536, seed=3, threads=2)\n"
              "assert est.workers == 2\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(packing.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    done = subprocess.run([sys.executable, "-c", script], env=dict(env, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "before the workers\n"


# -- edge cases --------------------------------------------------------------------

def test_scratch_arrays_are_per_thread_contiguous_and_reused():
    scratch = lattice.Scratch()
    got = {}

    def take(key):
        got[key] = scratch.get("y", 8, 100)

    threads = [threading.Thread(target=take, args=(key,)) for key in ("one", "two")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    take("main")
    for a in got.values():
        assert a.shape == (8, 100) and a.flags.c_contiguous
    assert not np.shares_memory(got["one"], got["two"])
    assert not np.shares_memory(got["main"], got["one"])
    assert not np.shares_memory(got["main"], got["two"])
    key = "y", np.dtype(np.float64)
    smaller = scratch.get("y", 3, 50)
    assert smaller.shape == (3, 50) and smaller.flags.c_contiguous
    assert smaller.base is scratch.arrays[key] is got["main"].base
    larger = scratch.get("y", 8, 200)
    assert larger.shape == (8, 200) and larger.base is scratch.arrays[key]


def test_scratch_keeps_one_buffer_per_name_and_dtype():
    scratch = lattice.Scratch()
    wide = scratch.get("sums", 4, 100)
    narrow = scratch.get("sums", 4, 100, np.float32)
    assert wide.dtype == np.float64 and narrow.dtype == np.float32
    assert not np.shares_memory(wide, narrow)
    assert scratch.get("sums", 4, 100).base is wide.base
    assert scratch.get("sums", 2, 10, np.float32).base is narrow.base
    assert set(scratch.arrays) == {("sums", np.dtype(np.float64)), ("sums", np.dtype(np.float32))}


def test_decode_single_point():
    point = np.array([0.9, 0.9, 0, 0, 0, 0, 0, 0])
    best, dist = decode_batch(point)
    assert best.shape == (1, 8) and dist.shape == (1,)
    assert np.array_equal(best, [[1, 1, 0, 0, 0, 0, 0, 0]])
    assert np.array_equal(dist, ref_decode_batch(point)[1])


def test_decode_layouts_agree():
    y = np.random.default_rng(5).uniform(-4, 4, size=(1000, 8))
    want_best, want_dist = ref_decode_batch(y)
    for view in (y, np.asfortranarray(y), np.ascontiguousarray(y.T).T):
        best, dist = decode_batch(view)
        assert np.array_equal(best, want_best)
        assert np.array_equal(dist, want_dist)


def test_decode_empty_batch():
    best, dist = decode_batch(np.empty((0, 8)))
    assert best.shape == (0, 8) and dist.shape == (0,)


def test_decode_rejects_wrong_width():
    with pytest.raises(ValueError):
        decode_batch(np.zeros((3, 7)))


def test_partial_block_same_on_one_and_two_threads():
    spec = e8_packing_spec()
    one = finite_density_mc(spec, radius=5.0, samples=40_000, seed=4, threads=1)
    two = finite_density_mc(spec, radius=5.0, samples=40_000, seed=4, threads=2)
    assert two.workers == 2
    assert one.value == two.value
    assert one.value == ref_hits(spec, 5.0, 40_000, 4) / 40_000
