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
from spherepack.forms import FormId, phi0_qseries, psi_i_qseries, psi_s_qseries
from spherepack.magic import default_evaluator
from spherepack.qseries import Nome
from spherepack.quadrature import QuadratureConfig, panel_nodes

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


# -- one kernel entry per pass ------------------------------------------------------

@pytest.mark.parametrize("convention", list(Eq2Convention))
def test_eq2_pass_evaluates_each_series_once_per_branch(convention, monkeypatch):
    # one stacked call of phi0 and psi_s per pass, at i/x for the entry's
    # arguments x < 1 alone: x = t for S_WEIGHTED and 1/t for DIRECT, so the
    # series are read at i/t where t < 1, or at i*t where t > 1.  Every other
    # point takes the moment-term Horner, and each array is one of the entry's rows
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
    want = (phi0_qseries(), psi_s_qseries())
    assert len(series) == len(want) and all(a is b for a, b in zip(series, want))
    inverted, rows = axis._CONVENTIONS[convention]
    x = 1.0 / grid if inverted else grid
    assert 0 < (x < 1.0).sum() < grid.size
    assert np.array_equal(tau.imag, 1.0 / x[x < 1.0])
    assert np.all(tau.real == 0.0)
    values = (grid * grid) * axis.kernels(rows, x) if inverted else axis.kernels(rows, x)
    assert np.array_equal(samples.t, grid)
    for got, want in zip((samples.phi0, samples.psi_s, samples.combo_plus, samples.combo_minus),
                         values):
        assert np.array_equal(got, want)


def test_kernels_form_each_nome_once(monkeypatch):
    # the entry's stack of phi0 and psi_s in two nomes builds each nome once
    calls = []
    value_at = Nome.value_at
    monkeypatch.setattr(Nome, "value_at", lambda nome, tau: calls.append(nome) or value_at(nome, tau))
    axis.kernels([axis.K_PLUS, axis.K_MINUS], np.array(GRID))
    assert sorted(nome.value for nome in calls) == ["q2", "q4"]


def test_empty_grid_gives_empty_float_arrays():
    got = axis.kernels([axis.KPHI, axis.KPSI, axis.K_PLUS, axis.K_MINUS], [])
    assert got.shape == (4, 0) and got.dtype == float
    for convention in Eq2Convention:
        for value in vars(eq2_samples([], convention)).values():
            assert value.shape == (0,) and value.dtype == float


def test_kernels_take_every_t_in_their_range():
    # the evaluator's [0, 1] nodes go down to about 2e-4, below the grids' AXIS_T_MIN
    t = np.array([2e-4, 0.005, 0.5, 1.0, 100.0])
    assert np.all(np.isfinite(axis.kernels([axis.K_PLUS, axis.K_MINUS], t)))
    for bad in (math.nan, 0.0, -1.0, 100.5):
        with pytest.raises(ValueError):
            axis.kernels([axis.K_PLUS], np.array([0.5, bad]))
    for convention in Eq2Convention:
        for bad in (math.nan, 0.0, 0.005, 100.5):
            with pytest.raises(ValueError):
                eq2_samples([0.5, bad], convention)


# -- one definition: the verdicts read the kernels the Laplace sweep integrates ------

def test_sweighted_combinations_are_the_g_and_g_hat_kernels():
    from spherepack.magic import _PROFILES, RadialKind
    rows = axis._CONVENTIONS[Eq2Convention.S_WEIGHTED][1]
    assert rows[2:] == (_PROFILES[RadialKind.G][:2], _PROFILES[RadialKind.GHAT][:2])


def test_evaluator_reads_the_entry_bit_for_bit(monkeypatch):
    # the evaluator's [0, 1] node values are the entry's rows, and the terms
    # it integrates on [1, inf) are the lists the entry's t >= 1 Horner reads
    from spherepack import magic
    built = []
    build = magic._Kernel.build.__func__
    monkeypatch.setattr(magic._Kernel, "build",
                        classmethod(lambda cls, *args: built.append(args) or build(cls, *args)))
    quad = QuadratureConfig()
    magic.MagicEvaluator(quad)
    rows = [profile[:2] for profile in magic._PROFILES.values()]
    t, _ = panel_nodes(0.0, 1.0, quad.panels_per_segment, quad.gauss_order)
    read = []
    combine = axis._combine
    monkeypatch.setattr(axis, "_combine", lambda *args: read.append(combine(*args)) or read[-1])
    axis._upper_table.__wrapped__(tuple(rows))
    assert len(built) == len(read) == len(rows)
    for (nodes, _, values, terms, _), row, want, got in zip(built, rows, axis.kernels(rows, t),
                                                            read):
        assert np.array_equal(nodes, t)
        assert values.tobytes() == want.tobytes(), row
        assert terms == got, row


def test_flipped_psi_moment_terms_fail_the_sweighted_verdict(monkeypatch):
    # a sign slip in psi_s's moment terms moves g and, now that both read one
    # definition, the verdict too (min_plus about -5.4e4)
    from spherepack import magic
    pairs = axis._float_pairs
    quad = QuadratureConfig()
    g = magic.default_evaluator(quad).g_values([1.7, 2.2])

    def clear():
        for cached in (axis._moment_terms, axis._upper_table, magic.default_evaluator):
            cached.cache_clear()

    monkeypatch.setattr(axis, "_float_pairs", lambda series: [
        (k, -c if series is psi_i_qseries() else c) for k, c in pairs(series)])
    clear()
    try:
        assert not np.array_equal(magic.default_evaluator(quad).g_values([1.7, 2.2]), g)
        report = verify_inequalities(GRID, Eq2Convention.S_WEIGHTED)
        assert not report.pass_ and report.min_plus < 0.0
    finally:
        monkeypatch.undo()
        clear()
    assert verify_inequalities(GRID, Eq2Convention.S_WEIGHTED).pass_
