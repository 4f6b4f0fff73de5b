"""Axis kernels, the realness check and the two-sided inequality verification."""

import math

import numpy as np
import pytest

from spherepack import axis
from spherepack.axis import (
    AxisSamples,
    Eq2Convention,
    InequalityReport,
    check_realness,
    eq2_samples,
    log_grid,
    verify_inequalities,
)
from spherepack.cohn_elkies import verify_magic_ce
from spherepack.forms import (
    FormId,
    _b_minus_psi_i_q4,
    _b_plus_psi_i_q4,
    e4sq_over_delta_qseries,
    phi0_anomaly_qseries,
    phi0_qseries,
    psi_i_qseries,
    psi_s_qseries,
)
from spherepack.magic import default_evaluator
from spherepack.qseries import Nome
from spherepack.quadrature import QuadratureConfig

PI = math.pi
W = 36.0 / PI ** 2
#: the CLI's default axis grid (RunConfig's axis_grid_lo, _hi and _n)
GRID = log_grid(0.05, 20.0, 400)


def test_check_realness_on_log_grids():
    grid = log_grid(0.1, 10.0, 40)
    assert check_realness(FormId.PHI0, grid) < 1e-9
    assert check_realness(FormId.PSI_S, grid) < 1e-9
    # the other forms have no axis evaluator
    with pytest.raises(ValueError):
        check_realness(FormId.E2, [1.0])


def test_check_realness_rejects_nonpositive_grid():
    with pytest.raises(ValueError):
        check_realness(FormId.E4, [0.0, 1.0])


def test_log_grid_shape():
    g = log_grid(0.05, 20.0, 400)
    assert len(g) == 400
    assert g[0] == pytest.approx(0.05) and g[-1] == pytest.approx(20.0)
    assert all(b > a for a, b in zip(g, g[1:]))


def test_combo_algebra_identity():
    for conv in Eq2Convention:
        s = eq2_samples([0.3, 1.0, 2.0], conv)
        assert isinstance(s, AxisSamples) and s.t.shape == (3,)
        recon_plus = s.phi0 + W * s.psi_s
        recon_minus = s.phi0 - W * s.psi_s
        scale = np.maximum(np.maximum(abs(s.phi0), W * abs(s.psi_s)), 1.0)
        assert np.all(abs(s.combo_plus - recon_plus) < 1e-8 * scale)
        assert np.all(abs(s.combo_minus - recon_minus) < 1e-8 * scale)
        # plus + minus = 2 phi0 to near machine accuracy
        assert np.all(abs((s.combo_plus + s.combo_minus) - 2.0 * s.phi0) <= 1e-11 * scale)


def test_direct_convention_fails():
    report = verify_inequalities(GRID, Eq2Convention.DIRECT)
    assert not report.pass_
    # every margin is already negative, so nothing is refined
    assert report.grid_size == 400 and report.refined is False
    # the failing side is the plus combination; the minus one holds
    assert report.min_plus < 0.0
    assert report.min_minus > 0.0


def test_sweighted_convention_passes():
    report = verify_inequalities(GRID, Eq2Convention.S_WEIGHTED)
    assert report.pass_ and report.refined is True
    assert report.min_plus > 0.0
    assert report.min_minus > 0.0


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
def test_refinement_does_not_depend_on_grid_order(order):
    # the refinement points are bounded by the grid's extent, not its first and last entries
    grid = GRID[::-1] if order == "reversed" else np.random.default_rng(0).permutation(GRID)
    want = verify_inequalities(GRID, Eq2Convention.S_WEIGHTED)
    got = verify_inequalities(grid, Eq2Convention.S_WEIGHTED)
    assert want.grid_size == 982 and want.refined is True
    # grid size, refinement, minima, argmins and verdict alike
    assert got.as_dict() == want.as_dict()


def test_sweighted_single_point():
    report = verify_inequalities(grid=[1.0], convention=Eq2Convention.S_WEIGHTED)
    assert report.pass_


def test_direct_plus_combo_negative_at_both_ends():
    samples = eq2_samples([0.05, 20.0], Eq2Convention.DIRECT)
    assert np.all(samples.combo_plus < 0.0)


def test_sweighted_kernels_positive():
    s = eq2_samples(log_grid(0.05, 20.0, 50), Eq2Convention.S_WEIGHTED)
    assert np.all(s.phi0 > 0.0)
    assert np.all(s.psi_s > 0.0)


def test_convention_conclusion_matches_certificate():
    """The convention that passes here is the one whose positivity is the
    pointwise control for the certificate's grid checks."""
    axis_ok = verify_inequalities(GRID, Eq2Convention.S_WEIGHTED).pass_
    ce = verify_magic_ce(default_evaluator(QuadratureConfig()))
    assert axis_ok and ce.pass_


def test_report_is_serializable():
    report = verify_inequalities(grid=log_grid(0.1, 10.0, 30),
                                 convention=Eq2Convention.S_WEIGHTED)
    d = report.as_dict()
    assert d["convention"] == "sweighted"
    assert d["pass"] is True


# -- one stacked evaluation of the seven series per table ---------------------------

#: the kernels behind each convention's four arrays, phi0-slot weight last
_PUBLIC = {
    Eq2Convention.DIRECT: (axis.eval_phi0_axis, axis.eval_psi_s_axis,
                           axis.axis_combo_direct, 1.0),
    Eq2Convention.S_WEIGHTED: (axis.eval_psi_i_axis, axis.phi0_weighted_kernel,
                               axis.axis_combo_weighted, W),
}


@pytest.mark.parametrize("convention", list(Eq2Convention))
def test_eq2_pass_evaluates_each_series_once_per_branch(convention, monkeypatch):
    # one stacked call per table: the seven series at every grid point, i*t
    # where t >= 1 and i/t where t < 1, so each series once on each branch
    grid = np.array(log_grid(0.05, 20.0, 64))
    calls = []
    real_stack = axis.eval_stack

    def counting_stack(series, tau):
        calls.append((tuple(series), tau.copy()))
        return real_stack(series, tau)

    monkeypatch.setattr(axis, "eval_stack", counting_stack)
    samples = eq2_samples(grid, convention)
    monkeypatch.undo()
    assert len(calls) == 1
    series, tau = calls[0]
    # phi0, A, B, psi_s, psi_i, B - psi_i and B + psi_i
    want = (phi0_qseries(), phi0_anomaly_qseries(), e4sq_over_delta_qseries(),
            psi_s_qseries(), psi_i_qseries(), _b_minus_psi_i_q4(), _b_plus_psi_i_q4())
    assert len(series) == len(want) and all(a is b for a, b in zip(series, want))
    upper = grid >= 1.0
    assert 0 < upper.sum() < grid.size
    assert sorted(tau.imag) == sorted(np.where(upper, grid, 1.0 / grid))
    assert np.all(tau.real == 0.0)
    first, second, combo, w = _PUBLIC[convention]
    table = axis.axis_table(grid)
    assert np.array_equal(samples.t, grid)
    assert np.array_equal(samples.phi0, w * table.branches(first))
    assert np.array_equal(samples.psi_s, (1.0 / w) * table.branches(second))
    assert np.array_equal(samples.combo_plus, table.branches(combo, +1))
    assert np.array_equal(samples.combo_minus, table.branches(combo, -1))


def test_axis_table_forms_each_nome_once(monkeypatch):
    # the table's stack of seven series in two nomes builds each nome once
    calls = []
    value_at = Nome.value_at
    monkeypatch.setattr(Nome, "value_at", lambda nome, tau: calls.append(nome) or value_at(nome, tau))
    axis.axis_table(GRID)
    assert sorted(nome.value for nome in calls) == ["q2", "q4"]


def test_empty_grid_gives_empty_float_arrays():
    table = axis.axis_table([])
    for kernel in (axis.eval_phi0_axis, axis.eval_psi_s_axis, axis.eval_psi_i_axis,
                   axis.phi0_weighted_kernel):
        got = table.branches(kernel)
        assert got.shape == (0,) and got.dtype == float
    for combo in (axis.axis_combo_direct, axis.axis_combo_weighted):
        for sign in (1, -1):
            got = table.branches(combo, sign)
            assert got.shape == (0,) and got.dtype == float
    for convention in Eq2Convention:
        for value in vars(eq2_samples([], convention)).values():
            assert value.shape == (0,) and value.dtype == float
