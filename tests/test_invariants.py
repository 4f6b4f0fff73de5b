"""Cross-module invariants that don't belong to a single unit file."""

import math

import numpy as np
import pytest

from spherepack.forms import (
    e4sq_over_delta_qseries,
    phi0_anomaly_qseries,
    phi0_qseries,
    psi_i_qseries,
    psi_s_qseries,
)
from spherepack.cohn_elkies import E8_DENSITY
from spherepack.magic import default_evaluator
from spherepack.packing import e8_packing_spec, finite_density_mc
from spherepack.quadrature import QuadratureConfig

PI = math.pi


def test_phi0_transform_overlap_08_to_125():
    """Direct series vs the inversion formula across the full overlap window.

    The inversion formula phi0(it) = phi0(i/t) - (12t/pi) A(i/t)
    + (36 t^2/pi^2) B(i/t) must agree with the direct expansion wherever
    both converge; this is the guard that licenses the small-t branch.
    """
    anom = phi0_anomaly_qseries()
    bser = e4sq_over_delta_qseries()
    for t in np.linspace(0.8, 1.25, 10):
        direct = phi0_qseries().eval(1j * t).real
        u = 1.0 / t
        transformed = (phi0_qseries().eval(1j * u)
                       - (12.0 * t / PI) * anom.eval(1j * u)
                       + (36.0 * t * t / PI ** 2) * bser.eval(1j * u)).real
        assert abs(direct - transformed) < 1e-8 * abs(direct)


def test_psi_s_transform_overlap_08_to_125():
    psi_i = psi_i_qseries()
    for t in np.linspace(0.8, 1.25, 10):
        direct = psi_s_qseries().eval(1j * t).real
        transformed = (-(t * t) * psi_i.eval(1j / t)).real
        assert abs(direct - transformed) < 1e-8 * abs(direct)


def test_a_b_purely_imaginary_on_grid():
    """|Re a|, |Re b| at rounding level across r in [0, 4] (20 points)."""
    ev = default_evaluator(QuadratureConfig())
    scale = abs(ev.eval_a(0.0))
    for r in np.linspace(0.0, 4.0, 20):
        a = ev.eval_a(float(r))
        b = ev.eval_b(float(r))
        assert abs(a.real) < 1e-7 * (abs(a) + scale)
        assert abs(b.real) < 1e-7 * (abs(b) + scale)


@pytest.mark.slow
def test_mc_deviation_does_not_grow_with_window():
    """Fixed seed, growing window: the deviation from the asymptotic density
    must not grow by more than the estimator's own 3-sigma noise."""
    spec = e8_packing_spec()
    devs = []
    sigma = None
    for radius in (3.0, 5.0, 8.0):
        est = finite_density_mc(spec, radius=radius, samples=2_000_000, seed=7)
        devs.append(abs(est.value - E8_DENSITY))
        sigma = est.stderr
    assert devs[1] <= devs[0] + 3.0 * sigma
    assert devs[2] <= devs[1] + 3.0 * sigma
