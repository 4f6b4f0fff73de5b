"""Packing densities: closed forms, separation checks, Monte-Carlo determinism."""

import math

import numpy as np
import pytest

from spherepack.lattice import enumerate_shells
from spherepack.packing import (
    DensityEstimate,
    PeriodicPackingSpec,
    ball_volume,
    e8_packing_spec,
    _worker_count,
    finite_density_mc,
    periodic_density,
)

TARGET = math.pi ** 4 / 384.0


def test_ball_volume_low_dimensions():
    assert ball_volume(1, 1.0) == pytest.approx(2.0, abs=1e-15)
    assert ball_volume(2, 1.0) == pytest.approx(math.pi, abs=1e-15)
    assert ball_volume(3, 1.0) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)


def test_ball_volume_dimension_eight_half_radius():
    # pi^4 (1/2)^8 / Gamma(5), Gamma(5) = 24
    assert ball_volume(8, 0.5) == pytest.approx(math.pi ** 4 / 6144.0, rel=1e-15)


def test_ball_volume_monte_carlo_cross_check():
    # cube sampling oracle in dimension 3
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1.0, 1.0, size=(200_000, 3))
    frac = ((pts ** 2).sum(axis=1) <= 1.0).mean()
    assert ball_volume(3, 1.0) == pytest.approx(frac * 8.0, rel=0.02)


def test_ball_volume_dimension_eight_monte_carlo():
    # unit-cube sampling around a radius-1/2 ball in dimension 8
    rng = np.random.default_rng(8)
    pts = rng.uniform(-0.5, 0.5, size=(400_000, 8))
    frac = ((pts ** 2).sum(axis=1) <= 0.25).mean()
    assert ball_volume(8, 0.5) == pytest.approx(frac, rel=0.05)


def test_ball_volume_rejects_bad_input():
    with pytest.raises(ValueError):
        ball_volume(0, 1.0)
    with pytest.raises(ValueError):
        ball_volume(3, -1.0)


def test_e8_density_closed_form():
    assert abs(periodic_density(e8_packing_spec()) - TARGET) < 1e-12


def test_density_at_another_separation():
    # the lattice stays E8 (covolume 1); only the radius of the balls changes
    assert periodic_density(PeriodicPackingSpec(separation=1.0)) == ball_volume(8, 0.5)
    with pytest.raises(ValueError):
        PeriodicPackingSpec(separation=0.0)


def check_separation(centers, separation: float) -> bool:
    """All pairwise distances >= separation (within 1e-12 slack)."""
    pts = np.asarray(centers, dtype=np.float64)
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    return bool((d[np.triu_indices(len(pts), k=1)] >= separation - 1e-12).all())


def test_check_separation():
    assert check_separation([[0.0] * 8], math.sqrt(2))
    mins = enumerate_shells(2, with_vectors=True)[0].vectors / 2.0
    assert check_separation(mins, math.sqrt(2))
    assert not check_separation([[0.0] * 8, [1.0] + [0.0] * 7], math.sqrt(2))


def test_separation_violation_detected_in_spec():
    # centers at distance 1 cannot support separation 2
    assert not check_separation([[0.0] * 8, [1.0] + [0.0] * 7], 2.0)


def test_mc_full_coverage_window():
    # window strictly inside one ball: every sample hits
    spec = PeriodicPackingSpec(separation=math.sqrt(2))
    est = finite_density_mc(spec, radius=0.5, samples=4096, seed=1)
    assert est.value == 1.0


def test_mc_rejects_bad_input():
    with pytest.raises(ValueError):
        finite_density_mc(e8_packing_spec(), radius=0.0, samples=10, seed=1)
    # the samples' coordinates reach the radius, and the decoder's limit is 2^50
    with pytest.raises(ValueError):
        finite_density_mc(e8_packing_spec(), radius=2.0 ** 50, samples=10, seed=1)
    with pytest.raises(ValueError):
        finite_density_mc(e8_packing_spec(), radius=1.0, samples=0, seed=1)


@pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf])
def test_mc_rejects_non_finite_radius(radius):
    with pytest.raises(ValueError):
        finite_density_mc(e8_packing_spec(), radius=radius, samples=10, seed=1)


def test_mc_reproducible_across_thread_counts():
    spec = e8_packing_spec()
    a = finite_density_mc(spec, radius=3.0, samples=200_000, seed=42, threads=1)
    b = finite_density_mc(spec, radius=3.0, samples=200_000, seed=42, threads=4)
    assert a.value == b.value
    assert a.stderr == b.stderr


@pytest.mark.parametrize("threads, blocks, workers", [
    (0, 5, 1), (1, 5, 1), (4, 5, 4), (5, 5, 5), (6, 5, 5),
    (10 ** 6, 32, 32), (10 ** 6, 1, 1), (3, 0, 1),
])
def test_mc_worker_count_clamped_to_blocks(threads, blocks, workers):
    # pure function: nothing here starts a thread
    assert _worker_count(threads, blocks) == workers


def test_mc_seed_sensitivity():
    spec = e8_packing_spec()
    a = finite_density_mc(spec, radius=3.0, samples=50_000, seed=1)
    b = finite_density_mc(spec, radius=3.0, samples=50_000, seed=2)
    assert a.value != b.value  # different but both near target
    assert abs(a.value - TARGET) < 0.05
    assert abs(b.value - TARGET) < 0.05


def test_mc_estimate_fields():
    est = finite_density_mc(e8_packing_spec(), radius=2.0, samples=10_000, seed=9)
    assert isinstance(est, DensityEstimate)
    assert 0.0 <= est.value <= 1.0
    assert est.stderr == pytest.approx(
        math.sqrt(est.value * (1 - est.value) / est.samples), rel=1e-12)
    assert est.samples == 10_000 and est.seed == 9 and est.radius == 2.0


def test_mc_sampler_stays_in_ball():
    from spherepack.packing import _sample_block
    pts = _sample_block(7, 0, 4096, 3.0)
    norms = np.sqrt((pts ** 2).sum(axis=1))
    assert (norms <= 3.0).all()
    # radial law: P(|x| <= r) = (r/R)^8; median at R * 2^(-1/8)
    med = np.median(norms)
    assert abs(med - 3.0 * 2.0 ** -0.125) < 0.02
