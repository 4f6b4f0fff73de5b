"""Acceptance suite: the twelve headline checks, one pass/fail line each.

Each test enforces its stated tolerance and runtime budget.  Criterion 5's
slope clause at the first lattice radius is implemented exactly as stated
and marked as an expected failure: the certificate function crosses zero
transversally at sqrt(2) (slope -sqrt(2)/60, forced by the simple pole of
the collapsed-integral kernel against the sin^2 prefactor), so a
sub-1e-3 slope there is unattainable for the same function that passes
criteria 6 and 7.  The double-zero structure does hold at sqrt(4) and
sqrt(6), and the value clause holds at all three radii.
"""

import json
import math
import re
import time

import numpy as np
import pytest

from spherepack.axis import Eq2Convention, log_grid, verify_inequalities
from spherepack.cli import run
from spherepack.cohn_elkies import E8_DENSITY, poisson_check, rescaled_bound, verify_magic_ce
from spherepack.forms import (
    check_jacobi,
    check_ramanujan,
    delta_qseries,
    eisenstein_qseries,
    eta_product_qseries,
)
from spherepack.lattice import theta_coefficients
from spherepack.magic import RadialKind, default_evaluator, hankel8, tabulate_radial
from spherepack.packing import e8_packing_spec, finite_density_mc, periodic_density
from spherepack.quadrature import QuadratureConfig

SQRT2 = math.sqrt(2.0)


def report(criterion: int, passed: bool, detail: str, started: float, budget_s: float):
    elapsed = time.perf_counter() - started
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion:2d}] {status} ({elapsed:6.2f}s): {detail}")
    assert elapsed < budget_s, f"criterion {criterion} exceeded {budget_s}s budget"
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_01_e8_density_constant(capsys):
    t0 = time.perf_counter()
    value = periodic_density(e8_packing_spec())
    err = abs(value - E8_DENSITY)
    with capsys.disabled():
        report(1, err < 1e-12, f"packing density {value:.15f} vs pi^4/384, err {err:.2e}", t0, 1.0)


def test_criterion_02_shell_theta_agreement(capsys):
    t0 = time.perf_counter()
    counts = theta_coefficients(10)  # norm^2 <= 20
    e4 = eisenstein_qseries(4, 10)
    expected = [int(e4.coefficient(n)) for n in range(11)]
    ok = counts == expected and counts[:5] == [1, 240, 2160, 6720, 17520]
    with capsys.disabled():
        report(2, ok, f"shell counts (norm^2<=20) {counts[:5]}... match E4 coefficients", t0, 30.0)


def test_criterion_03_exact_identities(capsys):
    t0 = time.perf_counter()
    ram = check_ramanujan(50)
    jac = check_jacobi(200)  # q4 order 200 = order 50 in exp(pi i tau)
    delta_ok = delta_qseries(50) == eta_product_qseries(50)
    ok = ram.all_zero and jac.all_zero and delta_ok
    with capsys.disabled():
        report(3, ok, "Ramanujan residuals = 0, Jacobi quartic = 0, "
                      "discriminant = eta product through order 50", t0, 10.0)


def test_criterion_04_representation_consistency(capsys):
    t0 = time.perf_counter()
    ev = default_evaluator(QuadratureConfig())
    a0 = abs(ev.eval_a(0.0))
    worst = 0.0
    for r in (1.5, 2.0, 3.0):
        worst = max(worst, abs(ev.eval_a(r) - ev.eval_a_propagated(r)) / a0)
        worst = max(worst, abs(ev.eval_b(r) - ev.eval_b_propagated(r)) / a0)
    with capsys.disabled():
        report(4, worst < 1e-6,
               f"Laplace vs contour oracle at r in (1.5, 2, 3): worst rel {worst:.2e}", t0, 30.0)


def test_criterion_05_double_zero_values_and_higher_slopes(capsys):
    """The attainable part of criterion 5: values at all three radii and
    slopes at the genuinely double zeros sqrt(4), sqrt(6)."""
    t0 = time.perf_counter()
    ev = default_evaluator(QuadratureConfig())
    g0 = abs(ev.eval_g(0.0))
    h = 1e-3
    worst_val = max(abs(ev.eval_g(math.sqrt(2.0 * n))) for n in (1, 2, 3))
    worst_slope_23 = max(
        abs(ev.eval_g(math.sqrt(2.0 * n) + h) - ev.eval_g(math.sqrt(2.0 * n) - h)) / (2 * h)
        for n in (2, 3))
    ok = worst_val < 1e-6 * g0 and worst_slope_23 < 1e-3 * g0
    with capsys.disabled():
        report(5, ok, f"|g(sqrt(2n))| max {worst_val:.2e}; slopes at sqrt(4), sqrt(6) "
                      f"max {worst_slope_23:.2e} (slope at sqrt(2) tested separately)", t0, 30.0)


@pytest.mark.xfail(strict=True,
                   reason="spec defect: g crosses zero transversally at sqrt(2) "
                          "(slope -sqrt(2)/60 ~ -0.0236), as forced by the simple pole "
                          "of the collapsed kernel; a sub-1e-3 slope there is "
                          "incompatible with criteria 6/7 (see decisions ledger)")
def test_criterion_05_slope_clause_at_sqrt2():
    ev = default_evaluator(QuadratureConfig())
    g0 = abs(ev.eval_g(0.0))
    h = 1e-3
    slope = (ev.eval_g(SQRT2 + h) - ev.eval_g(SQRT2 - h)) / (2 * h)
    print(f"[criterion  5] FAIL (documented): slope at sqrt(2) = {slope:.6f}, "
          f"clause requires < {1e-3 * g0:.1e}")
    assert abs(slope) < 1e-3 * g0


def test_criterion_06_ce_conditions(capsys):
    t0 = time.perf_counter()
    rep = verify_magic_ce(default_evaluator(QuadratureConfig()))
    ok = (rep.ce1_pass and rep.g0 > 0 and rep.ghat0 > 0
          and rep.ce2_max_violation <= 1e-7 * abs(rep.g0)
          and rep.ce3_min_value >= -1e-7 * abs(rep.g0))
    with capsys.disabled():
        report(6, ok, f"g<=0 beyond sqrt(2) (max {rep.ce2_max_violation:.2e} at "
                      f"r={rep.ce2_argmax:.3f}), g_hat>=0 (min {rep.ce3_min_value:.2e}), "
                      f"g(0)={rep.g0:.9f}, g_hat(0)={rep.ghat0:.9f}", t0, 300.0)


def test_criterion_07_optimality_closing_identity(capsys):
    t0 = time.perf_counter()
    ev = default_evaluator(QuadratureConfig())
    a0, b0 = abs(ev.eval_a(0.0)), abs(ev.eval_b(0.0))
    g0, ghat0 = ev.eval_g(0.0), ev.eval_g_hat(0.0)
    bound = rescaled_bound(g0, ghat0)
    density = periodic_density(e8_packing_spec())
    ok = (b0 < 1e-6 * a0
          and abs(g0 / ghat0 - 1.0) < 1e-6
          and abs(bound - E8_DENSITY) < 1e-6
          and abs(bound - density) < 1e-6)
    with capsys.disabled():
        report(7, ok, f"|b(0)|/|a(0)| = {b0 / a0:.2e}, g0/ghat0 - 1 = {g0 / ghat0 - 1:.2e}, "
                      f"bound - pi^4/384 = {bound - E8_DENSITY:.2e}", t0, 60.0)


def test_criterion_08_eigenfunction_facts(capsys):
    t0 = time.perf_counter()
    ev = default_evaluator(QuadratureConfig())
    grid = np.arange(0.0, 20.0001, 0.02)
    table_a = tabulate_radial(RadialKind.A, grid, ev)   # cached node data reused
    table_b = tabulate_radial(RadialKind.B, grid, ev)
    worst = 0.0
    for r in (0.8, 1.3):
        want_a = ev.eval_a(r).imag
        worst = max(worst, abs(hankel8(table_a, r) - want_a) / abs(want_a))
        want_b = -ev.eval_b(r).imag
        worst = max(worst, abs(hankel8(table_b, r) - want_b) / abs(want_b))
    with capsys.disabled():
        report(8, worst < 0.01,
               f"radial Fourier transform: a -> +a, b -> -b, worst rel {worst:.2e}", t0, 600.0)


def test_criterion_09_poisson_summation(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for sigma in (0.7, 1.0, 1.5, 2.0):
        lhs, rhs = poisson_check(sigma)
        worst = max(worst, abs(lhs - rhs) / lhs)
    with capsys.disabled():
        report(9, worst < 1e-10, f"Gaussian lattice sums vs duals, worst rel {worst:.2e}", t0, 60.0)


def test_criterion_10_monte_carlo_density(capsys):
    t0 = time.perf_counter()
    spec = e8_packing_spec()
    est1 = finite_density_mc(spec, radius=5.0, samples=2_000_000, seed=42, threads=1)
    est4 = finite_density_mc(spec, radius=5.0, samples=2_000_000, seed=42, threads=4)
    dev = abs(est1.value - E8_DENSITY)
    ok = (dev < 0.05 * E8_DENSITY
          and dev < 3.0 * est1.stderr
          and est1.value == est4.value)
    with capsys.disabled():
        report(10, ok, f"R=5, 2e6 samples, seed 42: {est1.value:.6f} "
                       f"({dev / est1.stderr:.2f} sigma, {dev / E8_DENSITY * 100:.3f}%), "
                       f"thread-count invariant: {est1.value == est4.value}", t0, 120.0)


def test_criterion_11_axis_inequalities(capsys):
    t0 = time.perf_counter()
    grid = log_grid(0.05, 20.0, 400)
    weighted = verify_inequalities(grid, Eq2Convention.S_WEIGHTED)
    direct = verify_inequalities(grid, Eq2Convention.DIRECT)
    ok = (weighted.pass_ and weighted.min_plus > 0 and weighted.min_minus > 0
          and not direct.pass_)   # both conventions surfaced; direct is the failing reading
    with capsys.disabled():
        report(11, ok, f"S-weighted combos positive (min {weighted.min_plus:.3e} / "
                       f"{weighted.min_minus:.3e}); direct reading fails as expected "
                       f"(min {direct.min_plus:.3e})", t0, 60.0)


def test_criterion_12_cli_determinism(capsys, tmp_path):
    t0 = time.perf_counter()

    def strip(text):
        return re.sub(r'"wall_time_ms": \d+', "", text)

    ok = True
    cases = [
        ["packing", "density"],
        ["lattice", "shells", "--max-norm2", "10"],
        ["forms", "identities", "--order", "12"],
        ["bound"],
        ["packing", "mc", "--radius", "3", "--samples", "50000", "--seed", "42"],
    ]
    for argv in cases:
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        run(argv + ["--out", str(out1)])
        run(argv + ["--out", str(out2)])
        if strip(out1.read_text()) != strip(out2.read_text()):
            ok = False
    with capsys.disabled():
        report(12, ok, f"{len(cases)} CLI commands byte-identical modulo timing", t0, 120.0)
