"""Certificate machinery: bound algebra, sign verification, Poisson harness."""

import math

import numpy as np
import pytest

from spherepack.cohn_elkies import (
    E8_DENSITY,
    ce_bound,
    default_ce_grid,
    poisson_check,
    rescaled_bound,
    verify_ce,
    verify_magic_ce,
)
from spherepack.errors import InsufficientGrid, NonpositiveFhat0
from spherepack.magic import default_evaluator
from spherepack.packing import e8_packing_spec, periodic_density
from spherepack.quadrature import QuadratureConfig

PI = math.pi


def test_ce_bound_values():
    assert ce_bound(1.0, 1.0, 8) == pytest.approx(PI ** 4 / 6144.0, rel=1e-15)
    assert ce_bound(2.0, 1.0, 1) == pytest.approx(2.0, rel=1e-15)


def test_ce_bound_linearity():
    base = ce_bound(1.0, 1.0, 8)
    assert ce_bound(3.0, 1.0, 8) == pytest.approx(3.0 * base, rel=1e-14)
    assert ce_bound(1.0, 2.0, 8) == pytest.approx(base / 2.0, rel=1e-14)


def test_ce_bound_rejects_nonpositive():
    with pytest.raises(NonpositiveFhat0):
        ce_bound(1.0, 0.0, 8)
    with pytest.raises(NonpositiveFhat0):
        ce_bound(1.0, -1.0, 8)


def test_rescaled_bound_reductions():
    assert rescaled_bound(1.0, 1.0) == E8_DENSITY
    # near-linearity in the ratio
    assert rescaled_bound(1.0 + 1e-6, 1.0) - E8_DENSITY == pytest.approx(
        1e-6 * E8_DENSITY, rel=1e-6)


def test_bound_matches_lattice_density_exactly():
    assert abs(rescaled_bound(1.0, 1.0) - periodic_density(e8_packing_spec())) < 1e-12


def test_default_grid_shape():
    grid = default_ce_grid()
    assert grid[0] == 0.0 and grid[-1] == pytest.approx(6.0)
    assert any(math.sqrt(2) < r < 1.42 for r in grid)  # refinement near sqrt(2)


def test_default_grid_equals_unique_of_both_ranges():
    # the construction the grid had before it dropped np.unique: the two
    # ranges share no point, so sorting alone gives the same tuple
    base = np.arange(0.0, 6.0 + 0.05 / 2, 0.05)
    refine = np.arange(math.sqrt(2), 1.6 + 0.005 / 2, 0.005)
    want = tuple(float(r) for r in np.unique(np.concatenate([base, refine])))
    grid = default_ce_grid()
    assert [r.hex() for r in grid] == [r.hex() for r in want]
    assert len(grid) == len(base) + len(refine) == 159


def _gaussian_pair(r):
    # g and g_hat rows of the standard Gaussian, which is its own transform
    f = np.exp(-PI * r * r)
    return np.stack([f, f])


def test_verify_ce_gaussian_fails_sign_condition():
    # the standard Gaussian is its own transform but positive everywhere
    report = verify_ce(_gaussian_pair, grid=[0.0, 1.0, 1.5, 2.0, 3.0])
    assert not report.pass_
    assert report.ce2_max_violation > 0.0
    assert report.ce1_pass  # f(0) = 1 > 0 is fine; CE2 is what fails


def test_verify_ce_requires_points_beyond_sqrt2():
    with pytest.raises(InsufficientGrid):
        verify_ce(_gaussian_pair, grid=[0.0, 0.5, 1.0])


def test_magic_certificate_passes():
    report = verify_magic_ce(default_evaluator(QuadratureConfig()))
    assert report.ce1_pass
    assert report.ce2_max_violation <= report.tol
    assert report.ce3_min_value >= -report.tol
    assert abs(report.bound - E8_DENSITY) < 1e-6
    assert report.pass_


def test_magic_certificate_matches_callable_route():
    ev = default_evaluator(QuadratureConfig())
    a = verify_magic_ce(ev)
    # the two one-row sweeps give the stacked sweep's rows bit for bit
    b = verify_ce(lambda rs: np.stack([ev.g_values(rs), ev.g_hat_values(rs)]),
                  grid=default_ce_grid())
    assert a == b
    assert a.ce2_max_violation == pytest.approx(
        max(ev.eval_g(r) for r in a.grid if r > math.sqrt(2) * (1 + 1e-6)), abs=1e-15)
    assert a.ce3_min_value == pytest.approx(min(ev.eval_g_hat(r) for r in a.grid), abs=1e-15)


def test_poisson_self_dual_point():
    lhs, rhs = poisson_check(1.0)
    assert lhs == rhs  # identical sums term by term
    assert lhs > 1.0


@pytest.mark.parametrize("sigma", [0.7, 1.0, 1.5, 2.0])
def test_poisson_identity(sigma):
    lhs, rhs = poisson_check(sigma)
    assert abs(lhs - rhs) < 1e-10 * lhs


def test_poisson_scaling_relation():
    # substitution symmetry: rhs at sigma is sigma^-4 times lhs at 1/sigma
    lhs_half, _ = poisson_check(0.5)
    _, rhs2 = poisson_check(2.0)
    assert rhs2 == pytest.approx(lhs_half / 2.0 ** 4, rel=1e-12)


def test_poisson_rejects_bad_sigma():
    with pytest.raises(ValueError):
        poisson_check(0.0)
    with pytest.raises(ValueError):
        poisson_check(0.05)  # tail not certifiable at the default cutoff


@pytest.mark.parametrize("sigma, message", [
    (math.nan, "positive and finite"), (math.inf, "positive and finite"),
    (1e-300, "cannot certify"), (1e300, "cannot certify")])
def test_poisson_refuses_nan_inf_and_extreme_sigma(sigma, message):
    # the extremes' tail bounds overflow to inf rather than raising
    with pytest.raises(ValueError, match=message):
        poisson_check(sigma)
