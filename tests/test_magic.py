"""Magic function: contour geometry, quadrature convergence, representation
consistency, certificate values, and the radial Fourier transform in the
Laguerre eigenbasis against closed forms and the a/b eigenfunction facts."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from spherepack import magic
from spherepack.cli import run
from spherepack.cohn_elkies import default_ce_grid, verify_magic_ce
from spherepack.errors import InsufficientTable, TailBoundViolated
from spherepack.forms import WEIGHT36, FormId, form_qseries
from spherepack.lattice import Scratch
from spherepack.magic import (
    A_SCALE,
    ContourSegment,
    MagicEvaluator,
    RadialKind,
    RadialTable,
    contour_segments,
    default_evaluator,
    hankel8,
    segment_integral,
    tabulate_radial,
    _BLOCK,
    _SUBTRACT_MARGIN,
    _laplace_sweep,
)
from spherepack.quadrature import QuadratureConfig, panel_nodes

PI = math.pi
SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def ev():
    return default_evaluator(QuadratureConfig())


# -- contour geometry ----------------------------------------------------------

def test_segment_counts_and_endpoints():
    segs = contour_segments(FormId.PHI0)
    assert len(segs) == 6
    endpoints = {s.start for s in segs} | {s.end for s in segs if not s.is_ray}
    assert endpoints == {-1 + 0j, -1 + 1j, 1 + 0j, 1 + 1j, 1j, 0j}


def test_segment_coefficients():
    a = contour_segments(FormId.PHI0)
    assert [s.coefficient for s in a] == [1.0, 1.0, 1.0, 1.0, 2.0, 2.0]
    b = contour_segments(FormId.PSI_S)
    assert [s.coefficient for s in b] == [1.0, 1.0, 1.0, 1.0, 2.0, -2.0]
    assert b[-1].is_ray


def test_inverted_leg_argument_high():
    # along i -> 0, the evaluator argument -1/z = i/t keeps Im >= 1
    for t in (0.1, 0.5, 0.99):
        z = 1j * t
        assert (-1.0 / z).imag >= 1.0


def test_segment_arguments_stay_above_half():
    for seg in contour_segments(FormId.PHI0)[:4] + contour_segments(FormId.PSI_S)[:4]:
        nodes, _ = panel_nodes(seg.start, seg.end, 8, 32)
        args = -1.0 / (nodes + seg.shift)
        assert (args.imag >= 0.5 - 1e-12).all()


def test_zero_length_segment_is_zero():
    seg = ContourSegment(1j, 1j, FormId.PHI0, None, 1.0)
    assert segment_integral(seg, 1.0, QuadratureConfig()) == 0


def test_reversed_segment_negates():
    quad = QuadratureConfig()
    fwd = ContourSegment(-1 + 1j, 1j, FormId.PHI0, 1, 1.0)
    rev = ContourSegment(1j, -1 + 1j, FormId.PHI0, 1, 1.0)
    a = segment_integral(fwd, 1.0, quad)
    b = segment_integral(rev, 1.0, quad)
    assert abs(a + b) < 1e-14 * max(abs(a), 1.0)


def test_ray_self_convergence_under_refinement():
    ray = contour_segments(FormId.PHI0)[-1]
    base = segment_integral(ray, 4.0, QuadratureConfig())
    fine = segment_integral(ray, 4.0, QuadratureConfig(gauss_order=64, panels_per_segment=16))
    assert abs(base - fine) < 1e-10 * max(abs(base), 1e-12)


def test_ray_tail_bound_enforced(monkeypatch):
    # cut at Im(z) = 4, psi_s's certified tail bound is 2.3e-2, far above 1e-12
    monkeypatch.setattr(magic, "_RAY_END", 4.0)
    ray = contour_segments(FormId.PSI_S)[-1]
    with pytest.raises(TailBoundViolated):
        segment_integral(ray, 0.0, QuadratureConfig())


# -- eigenfunction values -------------------------------------------------------

def test_a_at_zero_matches_exact_value(ev):
    # Im a(0) = -8640/pi exactly; the real part is quadrature noise
    a0 = ev.eval_a(0.0)
    assert abs(a0.imag + A_SCALE) < 1e-9 * A_SCALE
    assert abs(a0.real) < 1e-10 * A_SCALE


def test_b_at_zero_vanishes(ev):
    b0 = ev.eval_b(0.0)
    assert abs(b0) < 1e-9 * A_SCALE


def test_a_vanishes_at_sqrt2(ev):
    assert abs(ev.eval_a(SQRT2)) < 1e-6 * abs(ev.eval_a(0.0))


def test_g_at_zero_is_one(ev):
    assert abs(ev.eval_g(0.0) - 1.0) < 1e-9
    assert abs(ev.eval_g_hat(0.0) - 1.0) < 1e-9


def test_g_vanishes_at_lattice_radii(ev):
    for n in (1, 2, 3):
        assert abs(ev.eval_g(math.sqrt(2.0 * n))) < 1e-6


def test_g_double_zero_slopes(ev):
    # the zeros at sqrt(4) and sqrt(6) are double: flat to FD accuracy
    h = 1e-3
    for n in (2, 3):
        r = math.sqrt(2.0 * n)
        slope = (ev.eval_g(r + h) - ev.eval_g(r - h)) / (2.0 * h)
        assert abs(slope) < 1e-3


def test_g_simple_crossing_at_sqrt2(ev):
    """At the minimal-vector radius g crosses zero transversally.

    Near sqrt(2) the collapsed representation gives g(r) ~ -(r^2-2)/120
    (the sin^2 double zero eats one order against the kernel's simple
    pole), so the slope is exactly -sqrt(2)/60.
    """
    h = 1e-3
    slope = (ev.eval_g(SQRT2 + h) - ev.eval_g(SQRT2 - h)) / (2.0 * h)
    assert abs(slope + SQRT2 / 60.0) < 1e-4


def test_g_hat_double_zero_at_sqrt2(ev):
    # in g_hat the kernel poles cancel, so even the first zero is double
    h = 1e-3
    slope = (ev.eval_g_hat(SQRT2 + h) - ev.eval_g_hat(SQRT2 - h)) / (2.0 * h)
    assert abs(slope) < 1e-3


def test_g_negative_beyond_sqrt2_samples(ev):
    for r in (1.5, 1.7, 2.05, 2.5, 3.2):
        assert ev.eval_g(r) < 0.0


def test_g_hat_nonnegative_samples(ev):
    for r in (0.5, 1.0, 1.5, 2.05, 2.5, 3.2):
        assert ev.eval_g_hat(r) > -1e-9


def test_vectorized_values_match_scalar(ev):
    rs = np.array([0.0, 0.8, 1.5, 2.2])
    av = ev.a_values(rs)
    gv = ev.g_values(rs)
    for i, r in enumerate(rs):
        assert abs(av[i] - ev.eval_a(float(r))) < 1e-12 * (abs(av[i]) + 1)
        assert abs(gv[i] - ev.eval_g(float(r))) < 1e-12


def test_sweeps_refuse_nonreal_values(ev):
    # the Laplace path is real arithmetic: a and b are i times a real array
    rs = np.array([0.0, 1.0, SQRT2, 2.5, 7.0])
    for method in (ev.a_values, ev.b_values):
        values = method(rs)
        assert values.dtype == np.complex128
        assert np.all(values.real == 0)
    for method in (ev.g_values, ev.g_hat_values):
        assert method(rs).dtype == np.float64
    assert isinstance(ev.eval_g(1.0), float)


@pytest.mark.parametrize("n", [_BLOCK + 1, 3 * _BLOCK + 5])
def test_chunked_sweep_matches_one_outer_product(ev, n):
    radii = np.linspace(0.0, 6.0, n)
    for kernel in (ev._phi, ev._psi, ev._plus, ev._minus):
        want = kernel.sin2_laplace(radii ** 2)       # every radius in one block
        got = _laplace_sweep(kernel, radii)
        assert got.shape == (n,)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_repeated_sweeps_reuse_work_arrays(ev):
    rng = np.random.default_rng(7)
    ev.g_values(np.sort(rng.uniform(0.0, 6.0, 3000)))
    kept = dict(magic._SCRATCH.arrays)
    for method in (ev.a_values, ev.b_values, ev.g_values, ev.g_hat_values):
        method(np.sort(rng.uniform(0.0, 6.0, 3000)))
        method([1.0])
    assert magic._SCRATCH.arrays.keys() == kept.keys()
    assert all(magic._SCRATCH.arrays[k] is v for k, v in kept.items())


def test_sweep_work_arrays_are_sized_by_the_block_not_the_grid(ev, monkeypatch):
    # a fresh per-thread store, so that earlier one-block sweeps do not count
    monkeypatch.setattr(magic, "_SCRATCH", Scratch())
    kernels = (ev._phi, ev._psi, ev._plus, ev._minus)
    panels = max(k.panel_rate.size for k in kernels)
    nodes = max(k.node_rate.size for k in kernels)
    terms = max(m.offset.shape[0] for k in kernels for m in (k.decaying, k.growing))
    terms1 = max(m.k2.size for k in kernels for m in (k.decaying, k.growing))
    radii = np.linspace(0.0, 6.0, 3000)
    for method in (ev.a_values, ev.b_values, ev.g_values, ev.g_hat_values):
        method(radii)
    held = sum(a.nbytes for a in magic._SCRATCH.arrays.values())
    assert 0 < held <= _BLOCK * 8 * (panels + nodes + 2 * panels + terms + terms1)


def test_sweeps_from_threads_match_one_thread(ev):
    from concurrent.futures import ThreadPoolExecutor

    radii = np.linspace(0.0, 6.0, 1001)
    methods = [ev.g_values, ev.g_hat_values, ev.a_values, ev.b_values]
    want = [m(radii) for m in methods]
    with ThreadPoolExecutor(max_workers=2) as pool:
        got = list(pool.map(lambda m: m(radii), methods * 8))
    for w, g in zip(want * 8, got):
        assert np.array_equal(w, g)


def test_quadrature_self_convergence(ev):
    fine = MagicEvaluator(QuadratureConfig(gauss_order=48, panels_per_segment=12))
    for r in (0.0, 1.0, 2.0):
        for f in ("eval_a", "eval_b"):
            coarse_v = getattr(ev, f)(r)
            fine_v = getattr(fine, f)(r)
            assert abs(coarse_v - fine_v) < 1e-8 * (abs(coarse_v) + A_SCALE)
        assert abs(ev.eval_g(r) - fine.eval_g(r)) < 1e-8 * (abs(ev.eval_g(r)) + 1.0)


# -- the sweep against the direct Laplace rule -------------------------------------

QUADS = [QuadratureConfig(), QuadratureConfig(gauss_order=48, panels_per_segment=12)]


def _kernel_inputs(quad):
    """Each kernel's [0, 1] nodes, weights and values and its full list of
    moment terms, built afresh from the forms."""
    t, w = panel_nodes(0.0, 1.0, quad.panels_per_segment, quad.gauss_order)
    kphi = (t * t) * form_qseries(FormId.PHI0).eval(1j / t).real
    kpsi = (t * t) * form_qseries(FormId.PSI_S).eval(1j / t).real
    phi, psi = magic._moment_terms(FormId.PHI0), magic._moment_terms(FormId.PSI_S)
    return t, w, {
        "_phi": (kphi, phi),
        "_psi": (kpsi, psi),
        "_plus": (kphi - WEIGHT36 * kpsi, magic._combine(1.0, phi, -WEIGHT36, psi)),
        "_minus": (-kphi - WEIGHT36 * kpsi, magic._combine(-1.0, phi, -WEIGHT36, psi)),
    }


def _direct_sin2_laplace(t, w, values, terms, s):
    """sin^2(pi s/2) L[K](s) with nothing factored or left out: the exponential
    of the whole s x node product, both node products, and every moment term."""
    order, offset, coeff = (np.array(col, dtype=float) for col in zip(*terms))
    up = offset <= 0.0
    grow = coeff[up] @ (t ** order[up, None] * np.exp(-offset[up, None] * t))

    def moments(pick, s):
        x = 1.0 / (offset[pick, None] + PI * s)
        c, m = coeff[pick] * np.exp(-offset[pick]), order[pick]
        return np.exp(-PI * s) * (c @ x + (m * c) @ x ** 2 + (m * (m - 1.0) * c) @ x ** 3)

    sine = np.sin(PI * (s - 2.0 * np.round(s / 2.0)) / 2.0)
    low = s < 2.0 + _SUBTRACT_MARGIN
    e = np.exp(np.multiply.outer(s, -PI * t))
    inner = np.where(low, e @ (w * (values - grow)), e @ (w * values)) + moments(~up, s)
    inner[~low] += moments(up, s[~low])
    out = sine * sine * inner
    shift, m = np.round(-offset[up] / PI)[:, None], order[up, None]
    gap = s[low] - shift
    near = np.abs(gap) < 1.0
    q = np.where(near, 0.5 * np.sinc(gap / 2.0), sine[low] / (PI * np.where(near, 1.0, gap)))
    out[low] += coeff[up] @ np.where(m == 0, sine[low] * q, q * q)
    return out


def test_sweep_matches_the_direct_rule(ev):
    radii = np.concatenate([np.sqrt([0.0, 1e-6, 2.0 - 1e-9, 2.0 + 1e-9, 3.0 - 1e-9,
                                     3.0 + 1e-9, 8.0, 36.0, 400.0, 1e4]), [1e150],
                            np.linspace(0.0, 40.0, 1001)])
    s, close = radii ** 2, radii <= 6.0
    t, w, inputs = _kernel_inputs(ev.quad)
    want = {name: _direct_sin2_laplace(t, w, values, terms, s)
            for name, (values, terms) in inputs.items()}
    # one scale for all four, |a(0)|/4, the scale b is measured on: K_psi's
    # own largest value (8.7) is below an ulp of its subtracted [0, 1] sum (86)
    scale = max(np.abs(v[close]).max() for v in want.values())
    for name, v in want.items():
        got = _laplace_sweep(getattr(ev, name), radii)
        assert np.abs(got - v)[close].max() <= 1e-15 * scale, name
        far = (radii >= 2.0 * SQRT2) & (v != 0.0)
        assert np.all(np.abs(got - v)[far] <= 1e-13 * np.abs(v[far])), name


@pytest.mark.parametrize("quad", QUADS, ids=["default", "48x12"])
def test_moment_cut_omits_a_proven_negligible_tail(quad):
    ev = MagicEvaluator(quad)
    for name, (_, terms) in _kernel_inputs(quad)[2].items():
        order, offset, coeff = (np.array(col, dtype=float) for col in zip(*terms))
        decaying = offset > 0.0
        by = np.argsort(offset[decaying], kind="stable")
        order, offset, coeff = order[decaying][by], offset[decaying][by], coeff[decaying][by]
        kept = getattr(ev, name).decaying
        n = kept.offset.shape[0]
        # the kept terms are the low-offset head of the sorted terms, held
        # with moment order 2 first, then 1, then 0
        head = np.argsort(-order[:n], kind="stable")
        m, scaled = order[:n][head], (coeff[:n] * np.exp(-offset[:n]))[head]
        assert np.array_equal(kept.offset.ravel(), offset[:n][head]), name
        assert np.array_equal(kept.k, scaled), name
        assert np.array_equal(kept.k2, (m * scaled)[m >= 1.0]), name
        assert np.array_equal(kept.k3, (m * (m - 1.0) * scaled)[m == 2.0]), name
        assert n < offset.size and offset[n:].min() >= offset[:n].max(), name
        size = np.abs(coeff) * np.exp(-offset)
        bound = size * (1.0 + order + order * (order - 1.0))
        assert bound[n:].sum() <= 2.0 ** -60 * size[:n].max(), name
        # and the omitted tail is the longest one within the bound
        assert bound[n - 1:].sum() > 2.0 ** -60 * size[:n - 1].max(), name


@pytest.mark.parametrize("quad", QUADS, ids=["default", "48x12"])
def test_nodes_split_into_panel_ends_plus_first_panel(quad):
    panels, order = quad.panels_per_segment, quad.gauss_order
    t, _ = panel_nodes(0.0, 1.0, panels, order)
    lo, base = magic._panel_split(t, panels)
    assert np.array_equal(lo, np.arange(panels) / panels)
    assert np.array_equal(base, t[:order])
    assert np.abs(t.reshape(panels, order) - (lo[:, None] + base)).max() <= 2.0 ** -53


def test_a_node_table_that_does_not_split_is_refused(monkeypatch):
    def perturbed(*args):
        t, w = panel_nodes(*args)
        t = t.copy()
        t[40] += 1e-15
        return t, w

    monkeypatch.setattr(magic, "panel_nodes", perturbed)
    with pytest.raises(RuntimeError):
        MagicEvaluator(QuadratureConfig())


# -- representation consistency --------------------------------------------------

def test_propagated_matches_contour_for_a(ev):
    for r in (1.5, 2.0, 3.0):
        contour = ev.eval_a(r)
        prop = ev.eval_a_propagated(r)
        assert abs(contour - prop) < 1e-6 * max(abs(contour), abs(ev.eval_a(0.0)))


def test_propagated_matches_contour_for_b(ev):
    for r in (1.5, 2.0, 3.0):
        contour = ev.eval_b(r)
        prop = ev.eval_b_propagated(r)
        assert abs(contour - prop) < 1e-6 * max(abs(contour), abs(ev.eval_a(0.0)))


def test_propagated_near_minimal_radius(ev):
    r = SQRT2 * 1.0001
    contour = ev.eval_a(r)
    prop = ev.eval_a_propagated(r)
    assert abs(contour - prop) < 1e-5 * max(abs(contour), 1e-6)
    assert abs(contour - prop) < 1e-6 * abs(ev.eval_a(0.0))


def test_propagated_at_sqrt2_is_zero(ev):
    a0 = abs(ev.eval_a(0.0))
    assert abs(ev.eval_a(SQRT2)) <= 1e-14 * a0
    assert abs(ev.eval_b(SQRT2)) <= 1e-14 * a0


def test_propagated_rejects_small_radius(ev):
    # the contour oracle holds below sqrt(2) too, and agrees with production there
    a0 = abs(ev.eval_a(0.0))
    for r in (0.0, 0.5, 1.0, 1.2, 1.4):
        assert abs(ev.eval_a_propagated(r) - ev.eval_a(r)) <= 1e-14 * a0
        assert abs(ev.eval_b_propagated(r) - ev.eval_b(r)) <= 1e-14 * a0


def test_propagated_a_sign_at_three(ev):
    # 4i sin^2 * positive integral: a/i > 0 at r just above sqrt(2), and the
    # resulting g is negative there
    val = ev.eval_a_propagated(1.5)
    assert val.imag > 0.0
    assert ev.eval_g(1.5) < 0.0


# -- the Laplace integrals against the contour oracle ------------------------------

#: the radius where the subtracted form hands over to the plain integral
SWITCH = math.sqrt(2.0 + _SUBTRACT_MARGIN)
ORACLE_RADII = np.concatenate([
    [0.0, 1e-3, SQRT2 - 1e-9, SQRT2 + 1e-9, SWITCH - 1e-9, SWITCH + 1e-9, 20.0],
    np.sqrt(2.0 * np.arange(1, 9)),
    np.arange(0.0, 20.0001, 0.02),
])


@pytest.fixture(scope="module")
def oracle(ev):
    """a, b, g and g_hat at ORACLE_RADII from the six-leg contour, one radius at a time."""
    a = np.array([ev.eval_a_propagated(float(r)) for r in ORACLE_RADII])
    b = np.array([ev.eval_b_propagated(float(r)) for r in ORACLE_RADII])
    plus, minus = 1j * PI / 8640.0 * a, 1j / (240.0 * PI) * b
    return a, b, (plus - minus).real, (plus + minus).real


def test_laplace_a_and_b_match_contour_oracle(ev, oracle):
    a, b, _, _ = oracle
    a0 = abs(ev.eval_a(0.0))
    assert np.abs(ev.a_values(ORACLE_RADII) - a).max() <= 1e-14 * a0
    assert np.abs(ev.b_values(ORACLE_RADII) - b).max() <= 1e-14 * a0


def test_laplace_g_and_g_hat_match_contour_oracle(ev, oracle):
    _, _, g, g_hat = oracle
    assert np.abs(ev.g_values(ORACLE_RADII) - g).max() <= 1e-14
    assert np.abs(ev.g_hat_values(ORACLE_RADII) - g_hat).max() <= 1e-14


def test_minus_kernel_growth_cancels_exactly(ev):
    # the e^{2 pi t} terms of -Kphi and -W Kpsi cancel in the merged terms, so
    # K- grows only like t; K+ keeps them
    assert set(ev._minus.shift.ravel()) == {0.0}
    assert set(ev._plus.shift.ravel()) == {0.0, 2.0}


@pytest.mark.parametrize("radii", [np.array(default_ce_grid()), np.linspace(0.0, 20.0, 20002)[1:]],
                         ids=["ce_grid", "dense"])
def test_sign_conditions_hold_without_slack(ev, radii):
    beyond = radii > SQRT2
    assert ev.g_values(radii)[beyond].max() <= 0.0
    assert ev.g_hat_values(radii).min() >= 0.0


def test_bound_reports_signs_without_slack(capsys):
    assert run(["bound"]) == 0
    res = json.loads(capsys.readouterr().out)["results"]
    assert res["ce2_max_violation"] <= 0.0
    assert res["ce3_min_value"] >= 0.0
    rep = verify_magic_ce(default_evaluator(QuadratureConfig()))
    assert rep.tol == 1e-7 * abs(rep.g0)


def test_moment_terms_equal_the_fraction_construction_bit_for_bit(monkeypatch):
    # before, each coefficient was float(series.coefficient(k)), a Fraction
    def fraction_pairs(series):
        return [(k, float(series.coefficient(k)))
                for k in range(series.lowest, series.order + 1) if series.coefficient(k) != 0]

    def bits(terms):
        return [(m, float(r).hex(), float(c).hex()) for m, r, c in terms]

    for form in (FormId.PHI0, FormId.PSI_S):
        terms = magic._moment_terms(form)
        with monkeypatch.context() as patch:
            patch.setattr(magic, "_float_pairs", fraction_pairs)
            assert bits(magic._moment_terms.__wrapped__(form)) == bits(terms)


def test_production_never_builds_the_contour_table():
    # a fresh process, so the count is the commands' own
    src = os.path.dirname(os.path.dirname(os.path.abspath(magic.__file__)))
    script = (
        "import contextlib, io\n"
        "from spherepack import cli, magic\n"
        "from spherepack.quadrature import QuadratureConfig\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.run(['bound']) == 0\n"
        "    assert cli.run(['magic', 'table', '--which', 'GHat', '--grid', '0:20:101']) == 0\n"
        "print(magic._contour_table.cache_info().misses)\n"
        "magic.default_evaluator(QuadratureConfig()).eval_a_propagated(1.0)\n"
        "print(magic._contour_table.cache_info().misses)\n")
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "1"]


# -- radial tables ---------------------------------------------------------------

def test_tabulate_radial_monotone_and_deterministic(ev):
    grid = [0.1, 0.5, 1.0, 2.0]
    t1 = tabulate_radial(RadialKind.G, grid, ev)
    t2 = tabulate_radial(RadialKind.G, grid, ev)
    assert np.array_equal(t1.radii, t2.radii) and np.array_equal(t1.values, t2.values)
    assert list(t1.radii) == sorted(t1.radii)


def test_tabulate_zeros_of_g(ev):
    grid = [SQRT2, 2.0, math.sqrt(6.0)]
    table = tabulate_radial(RadialKind.G, grid, ev)
    g0 = ev.eval_g(0.0)
    assert all(abs(v) < 1e-6 * abs(g0) for v in table.values)


def test_radial_table_validation():
    with pytest.raises(ValueError):
        RadialTable((1.0, 1.0), (0.0, 0.0))
    with pytest.raises(ValueError):
        RadialTable((1.0,), (0.0, 0.0))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="radii must be finite"):
            RadialTable((0.0, bad, 1.0), (0.0, 0.0, 0.0))


def test_radial_table_arrays_are_read_only_copies(ev):
    grid = np.array([0.1, 0.5, 1.0])
    table = tabulate_radial(RadialKind.G, grid, ev)
    for array in (table.radii, table.values):
        assert array.dtype == np.float64 and array.shape == (3,)
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0
    grid[0] = 0.2
    assert table.radii[0] == 0.1


@pytest.mark.parametrize("which", ["A", "GHat"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_magic_table_rows_are_the_tabulated_floats(ev, capsys, which, fmt):
    assert run(["magic", "table", "--which", which, "--grid", "0:6:61", "--format", fmt]) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        # a float with an integral value prints without a point, so JSON reads an int
        rows = [(float(row["r"]), float(row["value"]))
                for row in json.loads(out)["results"]["rows"]]
    else:
        rows = [tuple(map(float, line.split(","))) for line in out.splitlines()[1:]]
    grid = [6.0 * j / 60 for j in range(61)]
    table = tabulate_radial(RadialKind(which), grid, ev)
    want = list(zip(table.radii.tolist(), table.values.tolist()))
    assert [(r.hex(), v.hex()) for r, v in rows] == [(r.hex(), v.hex()) for r, v in want]


# -- Hankel transform -------------------------------------------------------------

def test_hankel_gaussian_self_transform():
    s = np.arange(0.0, 6.0001, 0.01)
    table = RadialTable(s, np.exp(-PI * s ** 2))
    got = hankel8(table, 1.0)
    want = math.exp(-PI)
    assert abs(got - want) < 1e-6 * want


def test_hankel_refuses_non_finite_radius():
    s = np.arange(0.0, 6.0001, 0.01)
    table = RadialTable(s, np.exp(-PI * s ** 2))
    for r in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="finite r > 0"):
            hankel8(table, r)


def test_hankel_refuses_a_radius_whose_cube_is_not_normal():
    s = np.arange(0.0, 6.0001, 0.01)
    table = RadialTable(s, np.exp(-PI * s ** 2))
    for r in (1e-110, 1e-105, 1e110):       # r^3 underflows, is subnormal, overflows
        with pytest.raises(ValueError, match="finite r > 0"):
            hankel8(table, r)
    # r -> 0: the integral of f over R^8, which is 1 for exp(-pi |x|^2)
    assert abs(hankel8(table, 1e-60) - 1.0) < 1e-6


def test_hankel_insufficient_table():
    s = np.arange(0.0, 2.0, 0.1)
    table = RadialTable(s, np.exp(-s))
    with pytest.raises(InsufficientTable):
        hankel8(table, 1.0)
    s = np.arange(0.0, 6.0, 0.5)
    table = RadialTable(s, np.exp(-s))
    with pytest.raises(InsufficientTable):
        hankel8(table, 1.0)


def _laguerre_eigenfunction(k, s):
    """phi_k(s) = L_k^(3)(2 pi s^2) e^{-pi s^2} from the explicit sum
    L_k^(3)(x) = sum_j (-1)^j C(k+3, k-j) x^j / j!."""
    x = 2.0 * PI * np.asarray(s, dtype=float) ** 2
    laguerre = sum((-1) ** j * math.comb(k + 3, k - j) * x ** j / math.factorial(j)
                   for j in range(k + 1))
    return laguerre * np.exp(-x / 2.0)


def _gaussian(a):
    # e^{-pi a s^2} -> a^-4 e^{-pi r^2/a}
    return (lambda s: np.exp(-PI * a * s ** 2),
            lambda r: a ** -4 * math.exp(-PI * r * r / a), a ** -4)


_HANKEL_ORACLES = {
    "gauss_a0.5": _gaussian(0.5),
    "gauss_a2": _gaussian(2.0),
    # s^2 e^{-pi s^2} -> (4/pi - r^2) e^{-pi r^2}
    "s2_gauss": (lambda s: s ** 2 * np.exp(-PI * s ** 2),
                 lambda r: (4.0 / PI - r * r) * math.exp(-PI * r * r), 4.0 / PI),
    **{f"phi{k}": (lambda s, k=k: _laguerre_eigenfunction(k, s),
                   lambda r, k=k: (-1) ** k * float(_laguerre_eigenfunction(k, r)),
                   math.comb(k + 3, 3))
       for k in (3, 10, 20)},
}


@pytest.mark.parametrize("name", sorted(_HANKEL_ORACLES))
def test_hankel_meets_closed_form_transforms(name):
    profile, transform, scale = _HANKEL_ORACLES[name]
    s = np.arange(0.0, 6.0001, 0.01)
    table = RadialTable(s, profile(s))
    worst = max(abs(hankel8(table, r) - transform(r)) for r in (0.05, 0.3, 0.8, 1.3, 2.0, 3.0))
    assert worst <= 1e-6 * scale, worst


@pytest.fixture(scope="module")
def eigen_tables(ev):
    grid = np.arange(0.0, 20.0001, 0.02)
    return (tabulate_radial(RadialKind.A, grid, ev),
            tabulate_radial(RadialKind.B, grid, ev))


def test_hankel_plus_eigenfunction(ev, eigen_tables):
    table_a, _ = eigen_tables
    for r in (0.8, 1.3):
        got = hankel8(table_a, r)
        want = ev.eval_a(r).imag
        assert abs(got - want) < 0.01 * abs(want)


def test_hankel_minus_eigenfunction(ev, eigen_tables):
    _, table_b = eigen_tables
    for r in (0.8, 1.3):
        got = hankel8(table_b, r)
        want = -ev.eval_b(r).imag
        assert abs(got - want) < 0.01 * abs(want)


def test_kernel_weights_match_two_single_series_evaluations():
    # the evaluator reads phi0 and psi_s at the 1j/t nodes from one stacked
    # call; each kernel's table equals the one built from two plain evals
    quad = QuadratureConfig()
    ev = MagicEvaluator(quad)
    panels = quad.panels_per_segment
    t, w = panel_nodes(0.0, 1.0, panels, quad.gauss_order)
    kphi = (t * t) * form_qseries(FormId.PHI0).eval(1j / t).real
    kpsi = (t * t) * form_qseries(FormId.PSI_S).eval(1j / t).real
    phi, psi = magic._moment_terms(FormId.PHI0), magic._moment_terms(FormId.PSI_S)
    want = {
        "_phi": magic._Kernel.build(t, w, kphi, phi, panels),
        "_psi": magic._Kernel.build(t, w, kpsi, psi, panels),
        "_plus": magic._Kernel.build(t, w, kphi - WEIGHT36 * kpsi,
                                     magic._combine(1.0, phi, -WEIGHT36, psi), panels),
        "_minus": magic._Kernel.build(t, w, -kphi - WEIGHT36 * kpsi,
                                      magic._combine(-1.0, phi, -WEIGHT36, psi), panels),
    }
    for name, kernel in want.items():
        assert np.array_equal(getattr(ev, name).weights, kernel.weights), name
