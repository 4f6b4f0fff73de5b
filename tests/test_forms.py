"""Forms: expansion coefficients against independent oracles, exact identities,
evaluation accuracy, and the imaginary-axis transforms."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

import spherepack

from spherepack.axis import (
    axis_combo_direct,
    axis_combo_weighted,
    axis_table,
    eval_phi0_axis,
    eval_psi_i_axis,
    eval_psi_s_axis,
    check_realness,
    phi0_weighted_kernel,
)
from spherepack.errors import NonRealValue
from spherepack.forms import (
    FormId,
    check_jacobi,
    check_ramanujan,
    delta_qseries,
    divisor_sum,
    e4sq_over_delta_qseries,
    eisenstein_qseries,
    eta_product_qseries,
    e2e4_minus_e6_qseries,
    form_qseries,
    phi0_qseries,
    psi_i_qseries,
    psi_s_qseries,
    theta_qseries,
    _b_q4,
)
from spherepack.qseries import DEFAULT_ORDER_Q4, Nome

PI = math.pi


# -- divisor sums ------------------------------------------------------------

def brute_sigma(n, k):
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


def test_divisor_sum_examples():
    assert divisor_sum(1, 1) == 1
    assert divisor_sum(2, 3) == 9
    assert divisor_sum(6, 1) == 12


@pytest.mark.parametrize("k", [1, 3, 5])
def test_divisor_sum_against_brute_force(k):
    for n in range(1, 200):
        assert divisor_sum(n, k) == brute_sigma(n, k)


def test_divisor_sum_rejects_bad_input():
    with pytest.raises(ValueError):
        divisor_sum(0, 1)
    with pytest.raises(ValueError):
        divisor_sum(3, 2)


# -- q-expansions ------------------------------------------------------------

def test_eisenstein_normalization():
    for w in (2, 4, 6):
        assert eisenstein_qseries(w, 10).coefficient(0) == 1
    assert eisenstein_qseries(4, 10).coefficient(1) == 240
    assert eisenstein_qseries(2, 10).coefficient(1) == -24
    assert eisenstein_qseries(6, 10).coefficient(1) == -504


def test_eisenstein_coefficients_are_sigma_multiples():
    e4 = eisenstein_qseries(4, 30)
    for n in range(1, 31):
        assert e4.coefficient(n) == 240 * brute_sigma(n, 3)


def test_theta_low_coefficients():
    t00 = theta_qseries("00", 30)
    t01 = theta_qseries("01", 30)
    t10 = theta_qseries("10", 30)
    assert t00.coefficient(0) == 1 and t00.coefficient(4) == 2
    assert t01.coefficient(4) == -2
    assert t10.coefficient(1) == 2 and t10.coefficient(0) == 0
    assert t10.coefficient(9) == 2


def test_delta_low_coefficients():
    d = delta_qseries(10)
    assert d.coefficient(0) == 0
    assert d.coefficient(1) == 1
    assert d.coefficient(2) == -24
    assert d.coefficient(3) == 252


def test_delta_matches_eta_product_through_order_50():
    assert delta_qseries(50) == eta_product_qseries(50)


def test_phi0_leading_terms():
    num = e2e4_minus_e6_qseries(10)
    assert num.coefficient(0) == 0
    assert num.coefficient(1) == 720
    p = phi0_qseries(10)
    assert p.coefficient(0) == 0
    assert p.lowest == 1
    assert p.coefficient(1) == 518400


def test_psi_s_leading_terms_and_support():
    p = psi_s_qseries(64)
    assert p.coefficient(0) == 0
    assert p.coefficient(4) == -10240
    # invariance under tau -> tau + 2: every exponent a multiple of 4
    assert all(k % 4 == 0 for k in range(p.lowest, p.order + 1) if p.coefficient(k))


def test_psi_i_expansion_and_shift_relation():
    """psi_i has principal part q4^-8 and satisfies psi_i(z) - psi_i(z+1) = psi_s(z)."""
    n = 64
    pi_ser = psi_i_qseries(n)
    assert pi_ser.coefficient(-8) == 1
    assert pi_ser.coefficient(0) == 144
    assert pi_ser.coefficient(4) == -5120
    ps = psi_s_qseries(n)
    # shifting tau by 1 multiplies the q4^k coefficient by i^k; support is in
    # 4Z here, so the factor is (-1)^(k/4)
    for k in range(-8, n + 1):
        shifted = pi_ser.coefficient(k) * (-1) ** (k // 4) if k % 4 == 0 else Fraction(0)
        expected = ps.coefficient(k) if k >= ps.lowest else Fraction(0)
        assert pi_ser.coefficient(k) - shifted == expected


def test_e4sq_over_delta_has_simple_pole():
    b = e4sq_over_delta_qseries(10)
    assert b.lowest == -1
    assert b.coefficient(-1) == 1
    assert b.coefficient(0) == 504


# -- exact identities ----------------------------------------------------------

def test_ramanujan_identities_exact_to_order_50():
    report = check_ramanujan(50)
    assert report.all_zero


def test_ramanujan_first_coefficients():
    e2 = eisenstein_qseries(2, 5)
    lhs = e2.derivative().coefficient(1)
    e4 = eisenstein_qseries(4, 5)
    rhs = ((e2 * e2 - e4).scale(Fraction(1, 12))).coefficient(1)
    assert lhs == rhs == -24


def test_jacobi_identity_exact_and_numeric():
    report = check_jacobi(200, samples=(0.3 + 0.9j,))
    assert report.all_zero
    assert report.numeric_residuals[0] < 1e-12


def test_jacobi_fourth_power_coefficients():
    t004 = theta_qseries("00", 16) ** 4
    t104 = theta_qseries("10", 16) ** 4
    t014 = theta_qseries("01", 16) ** 4
    assert t004.coefficient(4) == 8
    assert t104.coefficient(4) == 16
    assert t014.coefficient(4) == -8


def test_normalized_derivative_e4_identity():
    # q-coefficient of D E4 equals that of (E2 E4 - E6)/3
    e4 = eisenstein_qseries(4, 10)
    de4 = e4.derivative()
    assert de4.coefficient(1) == 240
    assert e2e4_minus_e6_qseries(10).scale(Fraction(1, 3)).coefficient(1) == 240


# -- evaluation ---------------------------------------------------------------

def test_eval_e4_at_i_against_high_order_oracle():
    oracle = eisenstein_qseries(4, 200).eval(1j)
    val = form_qseries(FormId.E4).eval(1j)
    assert abs(val - oracle) < 1e-10 * abs(oracle)
    assert abs(val - 1.4557628) < 2e-7


def test_eval_theta00_at_i():
    oracle = theta_qseries("00", 400).eval(1j)
    val = form_qseries(FormId.THETA00).eval(1j)
    assert abs(val - oracle) < 1e-10 * abs(oracle)
    assert abs(val - 1.0864348) < 2e-7


def test_eval_e6_vanishes_at_i():
    assert abs(form_qseries(FormId.E6).eval(1j)) < 1e-12


def test_eval_e2_at_i_is_three_over_pi():
    assert abs(form_qseries(FormId.E2).eval(1j) - 3.0 / PI) < 1e-12


def test_delta_consistency_at_random_points():
    import random
    rng = random.Random(7)
    for _ in range(20):
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.6, 3.0))
        d = form_qseries(FormId.DELTA).eval(tau)
        e4 = form_qseries(FormId.E4).eval(tau)
        e6 = form_qseries(FormId.E6).eval(tau)
        assert abs(d - (e4 ** 3 - e6 ** 2) / 1728.0) < 1e-10 * abs(d)


def test_phi0_asymptotic_at_3i():
    val = phi0_qseries().eval(3j)
    lead = 518400.0 * math.exp(-6 * PI)
    assert abs(val / lead - 1.0) < 0.01


def test_psi_s_asymptotic_at_3i():
    val = psi_s_qseries().eval(3j)
    lead = -10240.0 * math.exp(-3 * PI)
    assert abs(val / lead - 1.0) < 0.05


def test_psi_s_two_evaluation_paths_agree():
    def psi_s_from_thetas(tau):
        """psi_s assembled from three theta evaluations instead of its own series."""
        t00, t01, t10 = (form_qseries(f).eval(tau) ** 4
                         for f in (FormId.THETA00, FormId.THETA01, FormId.THETA10))
        return 128.0 * ((t01 - t10) / t00 ** 2 - (t10 + t00) / t01 ** 2)

    for tau in (0.3 + 1.1j, 1j, -0.2 + 0.8j):
        a = psi_s_qseries().eval(tau)
        b = psi_s_from_thetas(tau)
        assert abs(a - b) < 1e-10 * max(abs(a), 1.0)


def test_psi_s_periodicity_tau_plus_two():
    tau = 0.3 + 1.1j
    assert abs(psi_s_qseries().eval(tau + 2) - psi_s_qseries().eval(tau)) < 1e-12


def test_form_qseries_covers_all_ids():
    for form in FormId:
        series = form_qseries(form)
        assert series.nome in (Nome.Q2, Nome.Q4)


# -- axis behaviour -----------------------------------------------------------

def on_axis(t, kernel, *sign):
    return axis_table(t).branches(kernel, *sign)


def test_phi0_axis_overlap_direct_vs_transformed():
    """The inversion law must reproduce the direct series on [0.8, 1.25]."""
    t = np.array([0.8, 0.9, 0.97, 1.0])
    direct = np.array([phi0_qseries().eval(1j * x).real for x in t])  # series still converges here
    trans = on_axis(t, eval_phi0_axis)
    assert np.all(np.abs(direct - trans) < 1e-8 * np.abs(direct))


def test_phi0_axis_t1_continuity():
    below, above = on_axis([1.0 - 1e-9, 1.0 + 1e-9], eval_phi0_axis)
    assert abs(below - above) < 1e-6 * abs(above)


def test_psi_s_axis_overlap_direct_vs_transformed():
    t = np.array([0.8, 0.9, 0.97, 1.0])
    direct = np.array([psi_s_qseries().eval(1j * x).real for x in t])
    trans = on_axis(t, eval_psi_s_axis)
    assert np.all(np.abs(direct - trans) < 1e-8 * np.abs(direct))


def test_phi0_axis_asymptotics():
    val, small = on_axis([4.0, 0.25], eval_phi0_axis)
    lead = 518400.0 * math.exp(-8 * PI)
    assert abs(val / lead - 1.0) < 0.01
    assert small > 1e6  # dominated by (36 t^2/pi^2) exp(2 pi/t)


def test_psi_s_axis_asymptotic():
    (val,) = on_axis([3.0], eval_psi_s_axis)
    lead = -10240.0 * math.exp(-3 * PI)
    assert abs(val / lead - 1.0) < 0.05


#: 61 log-spaced points on [0.05, 20]
LOG_GRID = 0.05 * (20.0 / 0.05) ** (np.arange(61) / 60)


def test_phi0_axis_positive_on_log_grid():
    assert np.all(on_axis(LOG_GRID, eval_phi0_axis) > 0.0)


def test_psi_s_axis_negative_on_log_grid():
    assert np.all(on_axis(LOG_GRID, eval_psi_s_axis) < 0.0)


def test_psi_i_axis_positive_and_consistent():
    t = np.array([0.3, 0.7, 1.0, 1.4, 3.0])
    v = on_axis(t, eval_psi_i_axis)
    assert np.all(v > 0.0)
    # psi_i(it) = -t^2 psi_s(i/t) ties the two axis kernels together
    w = -t * t * on_axis(1.0 / t, eval_psi_s_axis)
    assert np.all(np.abs(v - w) < 1e-8 * np.abs(v))


def test_weighted_kernel_matches_definition_below_one():
    t = np.array([0.3, 0.6, 0.9])
    direct = np.array([x * x * phi0_qseries().eval(1j / x).real for x in t])
    assert np.all(np.abs(on_axis(t, phi0_weighted_kernel) - direct) < 1e-10 * np.abs(direct))


def test_weighted_kernel_continuity_at_one():
    below, above = on_axis([1.0 - 1e-9, 1.0 + 1e-9], phi0_weighted_kernel)
    assert abs(below - above) < 1e-6 * abs(above)


def test_axis_combos_match_naive_evaluation_midrange():
    c = 36.0 / PI ** 2
    t = [0.6, 1.0, 1.8]
    phi0, psi_s = on_axis(t, eval_phi0_axis), on_axis(t, eval_psi_s_axis)
    naive_plus, naive_minus = phi0 + c * psi_s, phi0 - c * psi_s
    scale = np.maximum(np.abs(naive_plus), np.abs(naive_minus))
    assert np.all(np.abs(on_axis(t, axis_combo_direct, +1) - naive_plus) < 1e-7 * scale)
    assert np.all(np.abs(on_axis(t, axis_combo_direct, -1) - naive_minus) < 1e-7 * np.abs(naive_minus))
    psi_i, weighted = on_axis(t, eval_psi_i_axis), on_axis(t, phi0_weighted_kernel)
    naive_wplus, naive_wminus = c * psi_i + weighted, c * psi_i - weighted
    wscale = np.maximum(np.abs(naive_wminus), np.abs(naive_wplus))
    assert np.all(np.abs(on_axis(t, axis_combo_weighted, +1) - naive_wplus) < 1e-7 * np.abs(naive_wplus))
    assert np.all(np.abs(on_axis(t, axis_combo_weighted, -1) - naive_wminus) < 1e-7 * wscale)


def test_axis_realness_small_imag_parts():
    # direct complex evaluation at purely imaginary tau should be essentially real
    for t in (1.0, 2.0, 5.0):
        v = phi0_qseries().eval(1j * t)
        assert abs(v.imag) < 1e-9 * abs(v)
    t = [0.3, 0.5, 1.0, 2.0, 5.0]
    for kernel in (eval_phi0_axis, eval_psi_s_axis):
        assert on_axis(t, kernel).dtype == float


# -- kernels through the axis table ----------------------------------------------

#: each kernel and sign the axis table evaluates
AXIS_KERNELS = {
    "phi0_axis": (eval_phi0_axis,),
    "psi_s_axis": (eval_psi_s_axis,),
    "psi_i_axis": (eval_psi_i_axis,),
    "phi0_weighted_kernel": (phi0_weighted_kernel,),
    "combo_direct_plus": (axis_combo_direct, +1),
    "combo_direct_minus": (axis_combo_direct, -1),
    "combo_weighted_plus": (axis_combo_weighted, +1),
    "combo_weighted_minus": (axis_combo_weighted, -1),
}

#: straddles t = 1 and contains it
STRADDLE = np.concatenate([np.geomspace(0.05, 20.0, 41), [1.0, 1.0 - 1e-12]])


@pytest.mark.parametrize("name", list(AXIS_KERNELS))
def test_axis_array_matches_per_float(name):
    # a table over STRADDLE gives each point the value of its one-point table
    got = on_axis(STRADDLE, *AXIS_KERNELS[name])
    want = np.concatenate([on_axis([t], *AXIS_KERNELS[name]) for t in STRADDLE])
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


@pytest.mark.parametrize("name", list(AXIS_KERNELS))
@pytest.mark.parametrize("bad", [math.nan, 0.0, 0.005])
def test_axis_array_refuses_bad_t(name, bad):
    # the table refuses t outside [AXIS_T_MIN, 1/AXIS_T_MIN], and each kernel
    # is read only through a table
    with pytest.raises(ValueError):
        on_axis(np.array([0.5, bad, 2.0]), *AXIS_KERNELS[name])


#: the kernels through the table, and the realness check of each form it covers
PHASE_CHECKED = ({name: lambda t, k=kernel: on_axis(t, *k) for name, kernel in AXIS_KERNELS.items()}
                 | {f"res_{form.value}": partial(check_realness, form)
                    for form in (FormId.PHI0, FormId.PSI_S)})


@pytest.mark.parametrize("name", list(PHASE_CHECKED))
def test_axis_refuses_injected_imaginary_part(name, monkeypatch):
    # the axis table refuses any series value that is not real, so a phase
    # on each stacked series value is refused on both sides of t = 1.  Only a
    # patch like this one reaches that check: on the axis every nome is real.
    plain = spherepack.axis.eval_stack
    monkeypatch.setattr(spherepack.axis, "eval_stack",
                        lambda series, tau: plain(series, tau) * (1 + 1e-6j))
    for t in (np.array([0.5, 0.7]), np.array([1.5, 3.0])):
        with pytest.raises(NonRealValue):
            PHASE_CHECKED[name](t)


def test_builders_cache_on_effective_order():
    # a fresh process, so the misses are the builds of exactly these calls
    src = os.path.dirname(os.path.dirname(os.path.abspath(spherepack.__file__)))
    script = (
        "from spherepack import forms\n"
        "from spherepack.forms import FormId\n"
        "groups = [\n"
        "    (forms.theta_qseries, [forms.theta_qseries('00'), forms.theta_qseries('00', 256),\n"
        "                           forms.theta_qseries('00', order=256),\n"
        "                           forms.form_qseries(FormId.THETA00)]),\n"
        "    (forms.eisenstein_qseries, [forms.eisenstein_qseries(4),\n"
        "                                forms.eisenstein_qseries(4, 50),\n"
        "                                forms.form_qseries(FormId.E4)]),\n"
        "    (forms.delta_qseries, [forms.delta_qseries(), forms.delta_qseries(50),\n"
        "                           forms.form_qseries(FormId.DELTA)]),\n"
        "]\n"
        "for build, series in groups:\n"
        "    assert all(s is series[0] for s in series), build.__name__\n"
        "    print(build.__name__, build.cache_info().misses)\n")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    # delta_qseries(50) adds one Eisenstein build, E6 at order 50
    assert done.stdout.split() == ["theta_qseries", "1", "eisenstein_qseries", "2",
                                   "delta_qseries", "1"]


def test_b_q4_equals_its_construction_from_a_shorter_series():
    # q2^33 = q4^264 already covers q4^256; the default-order series gives the same
    old = e4sq_over_delta_qseries(DEFAULT_ORDER_Q4 // 8 + 1).to_q4().truncate(DEFAULT_ORDER_Q4)
    new = _b_q4()
    assert new == old
    assert (new.nome, new.lowest, new.order, new.num, new.den) == \
        (old.nome, old.lowest, old.order, old.num, old.den)


def test_axis_check_builds_one_e4sq_over_delta_and_one_delta():
    # a fresh process, so the cache entries are the command's own
    src = os.path.dirname(os.path.dirname(os.path.abspath(spherepack.__file__)))
    script = (
        "import contextlib, io\n"
        "from spherepack import cli, forms\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.run(['axis', 'check']) == 0\n"
        "print(forms.e4sq_over_delta_qseries.cache_info().currsize,\n"
        "      forms.delta_qseries.cache_info().currsize)\n")
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1", "1"]


def test_positional_and_keyword_calls_share_one_entry():
    # a positional call fills its defaults without binding; a keyword call
    # binds; both reach the entry of the same effective arguments
    first = theta_qseries("00")
    size = theta_qseries.cache_info().currsize
    assert theta_qseries("00", 256) is first and theta_qseries(kind="00") is first
    assert theta_qseries.cache_info().currsize == size
    assert eisenstein_qseries(4) is eisenstein_qseries(weight=4, order=50)


@pytest.mark.parametrize("call", [
    lambda: theta_qseries(),
    lambda: theta_qseries(order=256),
    lambda: eisenstein_qseries(order=50),
    lambda: theta_qseries("00", 256, 1),
    lambda: delta_qseries(50, order=50),
])
def test_builders_refuse_missing_or_extra_arguments(call):
    with pytest.raises(TypeError):
        call()
