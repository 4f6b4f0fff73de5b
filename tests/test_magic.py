"""Magic function: contour geometry, quadrature convergence, representation
consistency, certificate values, and the radial Fourier transform in the
Laguerre eigenbasis against closed forms and the a/b eigenfunction facts."""

import cmath
import json
import math
import os
import subprocess
import sys
import tracemalloc
from functools import partial

import numpy as np
import pytest

from spherepack import axis, magic, qseries
from spherepack.cli import run
from spherepack.cohn_elkies import default_ce_grid, verify_magic_ce
from spherepack.errors import InsufficientTable, TailBoundViolated
from spherepack.forms import (
    WEIGHT36,
    FormId,
    e4sq_over_delta_qseries,
    form_qseries,
    phi0_anomaly_qseries,
    phi0_qseries,
    psi_i_qseries,
)
from spherepack.lattice import Scratch
from spherepack.magic import (
    A_SCALE,
    MagicEvaluator,
    RadialKind,
    RadialTable,
    default_evaluator,
    hankel8,
    tabulate_radial,
    _BLOCK,
    _SUBTRACT_MARGIN,
    _laplace_sweep,
)
from spherepack.qseries import Nome
from spherepack.quadrature import QuadratureConfig, panel_nodes

PI = math.pi
SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def ev():
    return default_evaluator(QuadratureConfig())


# -- contour geometry ----------------------------------------------------------

FORMS = (FormId.PHI0, FormId.PSI_S)


def test_segment_counts_and_endpoints():
    assert len(magic._LEGS) == 5 and set(magic._RAY) == set(FORMS)
    endpoints = {a for a, *_ in magic._LEGS} | {b for _, b, *_ in magic._LEGS}
    assert endpoints == {-1 + 0j, -1 + 1j, 1 + 0j, 1 + 1j, 1j, 0j}
    # the table is the five legs, then the ray up from i, one panel rule each
    nodes, weights = magic._contour_table(FormId.PHI0, QuadratureConfig())
    assert nodes.shape == weights.shape == (6 * 8 * 32,)
    ray = nodes[5 * 8 * 32:]
    assert (ray.real == 0.0).all() and 1.0 < ray.imag.min() < ray.imag.max() < magic._RAY_END


def test_segment_coefficients():
    assert [c for *_, c in magic._LEGS] == [1.0, 1.0, 1.0, 1.0, 2.0]
    assert [magic._RAY[form][0] for form in FORMS] == [2.0, -2.0]


def test_inverted_leg_argument_high():
    # along i -> 0, the evaluator argument -1/z = i/t keeps Im >= 1
    for t in (0.1, 0.5, 0.99):
        z = 1j * t
        assert (-1.0 / z).imag >= 1.0


def test_segment_arguments_stay_above_half():
    for start, end, shift, _ in magic._LEGS:
        nodes, _ = panel_nodes(start, end, 8, 32)
        args = -1.0 / (nodes + shift)
        assert (args.imag >= 0.5 - 1e-12).all()


def test_ray_self_convergence_under_refinement(ev):
    # the whole contour, ray included, against a rule four times finer
    fine = MagicEvaluator(QuadratureConfig(gauss_order=64, panels_per_segment=16))
    radii = [0.0, 1.0, 1.5, 2.0, 2.5]
    a0 = abs(ev.eval_a(0.0))
    for form in FORMS:
        gap = np.abs(ev.contour_values(form, radii) - fine.contour_values(form, radii)).max()
        assert gap <= 1e-14 * a0


def test_ray_tail_bound_enforced(monkeypatch):
    # cut at Im(z) = 4, the certified tail bounds are 2e-6 for phi0 and
    # 2.3e-2 for psi_s, both far above 1e-12
    monkeypatch.setattr(magic, "_RAY_END", 4.0)
    for form in FORMS:
        with pytest.raises(TailBoundViolated):
            magic._contour_table.__wrapped__(form, QuadratureConfig())


def test_contour_table_build_makes_one_series_evaluation(monkeypatch):
    calls = []
    stack = qseries.eval_stack
    monkeypatch.setattr(qseries, "eval_stack",
                        lambda series, tau: calls.append(tau.size) or stack(series, tau))
    for form in FORMS:
        magic._contour_table.__wrapped__(form, QuadratureConfig(16, 4))
    assert calls == [6 * 16 * 4] * 2


def test_ray_tail_bound_enforced_by_the_oracle(ev, monkeypatch):
    # the node table checks the bound at r = 0 when it builds the ray, so a
    # shortened ray fails at any radius; a failed build leaves no cache entry
    monkeypatch.setattr(magic, "_RAY_END", 4.0)
    magic._contour_table.cache_clear()
    with pytest.raises(TailBoundViolated):
        ev.eval_b_propagated(1.0)


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
    av, gv = ev.values((RadialKind.A, RadialKind.G), rs)
    for i, r in enumerate(rs):
        assert abs(1j * av[i] - ev.eval_a(float(r))) < 1e-12 * (abs(av[i]) + 1)
        assert abs(gv[i] - ev.eval_g(float(r))) < 1e-12


def test_sweeps_refuse_nonreal_values(ev):
    # the Laplace path is real arithmetic: a and b are i times a real array
    rs = np.array([0.0, 1.0, SQRT2, 2.5, 7.0])
    assert ev.values(tuple(RadialKind), rs).dtype == np.float64
    for method in (ev.eval_a, ev.eval_b):
        values = np.array([method(float(r)) for r in rs])
        assert values.dtype == np.complex128
        assert np.all(values.real == 0)
    for method in (ev.g_values, ev.g_hat_values):
        assert method(rs).dtype == np.float64
    assert isinstance(ev.eval_g(1.0), float)


def _one_row_sweeps(ev):
    """A sweep of each profile on its own: A and B through ``values``."""
    return [partial(ev.values, (RadialKind.A,)), partial(ev.values, (RadialKind.B,)),
            ev.g_values, ev.g_hat_values]


@pytest.mark.parametrize("n", [_BLOCK + 1, 3 * _BLOCK + 5])
def test_chunked_sweep_matches_one_outer_product(ev, n, monkeypatch):
    radii = np.linspace(0.0, 6.0, n)
    kernels = list(ev._kernels.values())
    got = _laplace_sweep(ev._rule, kernels, radii)
    monkeypatch.setattr(magic, "_BLOCK", n)
    wanted = _laplace_sweep(ev._rule, kernels, radii)     # every radius in one block
    assert got.shape == wanted.shape == (len(kernels), n)
    for row, want in zip(got, wanted):
        assert np.abs(row - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("quad", [QuadratureConfig(), QuadratureConfig(gauss_order=16,
                                                                       panels_per_segment=4)],
                         ids=["default", "4x16"])
def test_stacked_rows_equal_the_one_row_methods(quad):
    ev = MagicEvaluator(quad)
    radii = np.linspace(0.0, 8.0, 3 * _BLOCK + 5)
    one_row = {RadialKind.A: ev.values((RadialKind.A,), radii)[0],
               RadialKind.B: ev.values((RadialKind.B,), radii)[0],
               RadialKind.G: ev.g_values(radii), RadialKind.GHAT: ev.g_hat_values(radii)}
    for kinds in (tuple(RadialKind), tuple(reversed(RadialKind)),
                  (RadialKind.G, RadialKind.A, RadialKind.G)):
        rows = ev.values(kinds, radii)
        assert rows.shape == (len(kinds), radii.size)
        for kind, row in zip(kinds, rows):
            assert np.array_equal(row, one_row[kind]), kind


@pytest.mark.parametrize("argv", [["bound"], ["magic", "verify"], ["magic", "eval", "--r", "1"],
                                  ["magic", "table", "--which", "A", "--grid", "0:6:50"]])
def test_each_magic_command_makes_one_sweep(capsys, monkeypatch, argv):
    calls = []
    sweep = magic._laplace_sweep
    monkeypatch.setattr(magic, "_laplace_sweep", lambda *args: calls.append(args) or sweep(*args))
    assert run(argv) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_repeated_sweeps_reuse_work_arrays(ev):
    rng = np.random.default_rng(7)
    ev.g_values(np.sort(rng.uniform(0.0, 6.0, 3000)))
    kept = dict(magic._SCRATCH.arrays)
    for method in _one_row_sweeps(ev):
        method(np.sort(rng.uniform(0.0, 6.0, 3000)))
        method([1.0])
    assert magic._SCRATCH.arrays.keys() == kept.keys()
    assert all(magic._SCRATCH.arrays[k] is v for k, v in kept.items())


def test_sweep_work_arrays_are_sized_by_the_block_not_the_grid(ev, monkeypatch):
    # a fresh per-thread store, so that earlier one-block sweeps do not count
    monkeypatch.setattr(magic, "_SCRATCH", Scratch())
    kernels = ev._kernels.values()
    panels, nodes = (rate.size for rate in ev._rule)
    terms = max(m.offset.shape[0] for k in kernels for m in (k.decaying, k.growing))
    terms1 = max(m.k2.size for k in kernels for m in (k.decaying, k.growing))
    radii = np.linspace(0.0, 6.0, 3000)
    for method in _one_row_sweeps(ev):
        method(radii)
    held = sum(a.nbytes for a in magic._SCRATCH.arrays.values())
    assert 0 < held <= _BLOCK * 8 * (panels + nodes + 2 * panels + terms + terms1)


@pytest.mark.parametrize("span, halves", [("below", 1), ("above", 1), ("straddling", 2)])
def test_a_one_sided_block_forms_one_half_of_the_node_product(ev, span, halves, monkeypatch):
    # a fresh per-thread store: its "m" buffer grows to the widest product formed
    monkeypatch.setattr(magic, "_SCRATCH", Scratch())
    panels = ev._rule[0].size
    radii = np.linspace(*_SWEEP_SPANS[span], 500)
    ev.values(tuple(RadialKind), radii)
    assert magic._SCRATCH.arrays["m", np.dtype(np.float64)].size == halves * panels * radii.size


def test_sweeps_from_threads_match_one_thread(ev):
    from concurrent.futures import ThreadPoolExecutor

    radii = np.linspace(0.0, 6.0, 1001)
    methods = _one_row_sweeps(ev)
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


def _inversion_terms(fa, fb):
    """The terms (m, j, c) of c t^m e^{-pi j t} of fa Kphi + fb Kpsi on
    [1, inf), from the inversion laws' exact coefficients, each c a
    float(Fraction): Kphi = t^2 phi0(it) - (12t/pi) A(it) + (36/pi^2) B(it)
    in q2 = e^{-2 pi t} and Kpsi = -psi_i(it) in q4 = e^{-pi t/4}, merged on
    (m, j), the phi0 terms first, and exact cancellations dropped."""
    parts = ((0, 2, 1.0, phi0_qseries()), (0, 1, -12.0 / PI, phi0_anomaly_qseries()),
             (0, 0, 36.0 / PI ** 2, e4sq_over_delta_qseries()), (1, 0, -1.0, psi_i_qseries()))
    merged = {}
    for kernel, m, factor, series in parts:
        for k in range(series.lowest, series.order + 1):
            if c := series.coefficient(k):
                j = 2 * k if series.nome is Nome.Q2 else k // 4
                assert series.nome is Nome.Q2 or k % 4 == 0
                merged[m, j] = merged.get((m, j), 0.0) + (fa, fb)[kernel] * (factor * float(c))
    return [(m, j, c) for (m, j), c in merged.items() if c != 0.0]


def _kernel_inputs(quad):
    """Each kernel's [0, 1] nodes, weights and values and its full list of
    moment terms, built afresh from the forms."""
    t, w = panel_nodes(0.0, 1.0, quad.panels_per_segment, quad.gauss_order)
    kphi = (t * t) * form_qseries(FormId.PHI0).eval(1j / t).real
    kpsi = (t * t) * form_qseries(FormId.PSI_S).eval(1j / t).real
    values = (kphi, kpsi, kphi - WEIGHT36 * kpsi, -kphi - WEIGHT36 * kpsi)
    return t, w, {kind: (v, _inversion_terms(*profile[:2]))
                  for v, (kind, profile) in zip(values, magic._PROFILES.items())}


def _direct_sin2_laplace(t, w, values, terms, s):
    """sin^2(pi s/2) L[K](s) with nothing factored or left out: the exponential
    of the whole s x node product, both node products, and every moment term."""
    order, j, coeff = (np.array(col, dtype=float) for col in zip(*terms))
    offset, up = PI * j, j <= 0.0
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
    shift, m = -j[up, None], order[up, None]
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
    rows = _laplace_sweep(ev._rule, [ev._kernels[name] for name in want], radii)
    for (name, v), got in zip(want.items(), rows):
        assert np.abs(got - v)[close].max() <= 1e-15 * scale, name
        far = (radii >= 2.0 * SQRT2) & (v != 0.0)
        assert np.all(np.abs(got - v)[far] <= 1e-13 * np.abs(v[far])), name


#: the moments' s: 0 and 200 log-spaced points over [1e-3, 1e6]
_MOMENT_S = np.concatenate([[0.0], np.logspace(-3.0, 6.0, 200)])


def _profile_table():
    """The profiles' one table on [1, inf), (rows, 3, width), and its lowest rate index."""
    return axis._upper_table(tuple(profile[:2] for profile in magic._PROFILES.values()))


def _moment_sizes(order, offset, coeff, s):
    """|each term's moment on [1, inf)| at each s, less the common factor e^{-pi s}."""
    x = 1.0 / np.add.outer(offset, PI * s)
    m = order[:, None]
    return (np.abs(coeff) * np.exp(-offset))[:, None] * (x + m * x ** 2 + m * (m - 1.0) * x ** 3)


@pytest.mark.parametrize("quad", QUADS, ids=["default", "48x12"])
def test_moment_cut_omits_a_proven_negligible_tail(quad):
    ev = MagicEvaluator(quad)
    slabs, low = _profile_table()
    top = low + slabs.shape[2] - 1
    for name, (_, terms) in _kernel_inputs(quad)[2].items():
        order, j, coeff = (np.array(col, dtype=float) for col in zip(*terms))
        decaying = j > 0.0
        by = np.argsort(j[decaying], kind="stable")
        order, j, coeff = order[decaying][by], j[decaying][by], coeff[decaying][by]
        offset = PI * j
        kept = ev._kernels[name].decaying
        rates = kept.offset.ravel()
        # the table keeps whole rates, its columns j <= top, so n counts terms, not rows
        n = np.count_nonzero(j <= top)
        # the kept terms are the low-offset head of the sorted terms, held as
        # one row per distinct offset whose coefficients are its terms' sums,
        # within one rounding per term; the rows with an x^3 coefficient come
        # first, then those with an x^2 one
        assert np.array_equal(np.sort(rates), np.unique(offset[:n])), name
        m, scaled = order[:n], coeff[:n] * np.exp(-offset[:n])
        t1, t2 = kept.k2.size, kept.k3.size
        held = (kept.k, np.append(kept.k2, np.zeros(rates.size - t1)),
                np.append(kept.k3, np.zeros(rates.size - t2)))
        for got, parts in zip(held, (scaled, m * scaled, m * (m - 1.0) * scaled)):
            for rate, value in zip(rates, got):
                terms = parts[offset[:n] == rate]
                slack = terms.size * 2.0 ** -53 * np.abs(terms).sum()
                assert abs(value - math.fsum(terms)) <= slack, name
        assert np.all(kept.k3 != 0.0) and np.all((kept.k2 != 0.0) | (held[2][:t1] != 0.0)), name
        assert n < offset.size and offset[n:].min() > offset[:n].max(), name
        # at every s the omitted moments sum to at most 2^-60 of the largest kept one
        size = _moment_sizes(order, offset, coeff, _MOMENT_S)
        assert np.all(size[n:].sum(axis=0) <= 2.0 ** -60 * size[:n].max(axis=0)), name
    # and the omitted tail is the longest one within the cut: dropping the
    # table's top rate too puts some polynomial's dropped terms at t = 1
    # above 2^-60 of its leading one
    widths = []
    for name, (_, terms) in _kernel_inputs(quad)[2].items():
        for m in range(3):
            pairs = sorted((j, c) for k, j, c in terms if k == m)
            if pairs:
                j, c = (np.array(col, dtype=float) for col in zip(*pairs))
                size = np.abs(c) * np.exp(-PI * j)
                assert size[j > top].sum() <= 2.0 ** -60 * size[0], (name, m)
                widths.append(size[j >= top].sum() > 2.0 ** -60 * size[0])
    assert any(widths)


def test_dropped_moments_meet_the_cut_proof():
    # qseries.top_cut's moment reader: at every s the dropped moments of each
    # polynomial P_m of a profile's table are at most (1 + m + m(m - 1)) 2^-60
    # of its leading term's size at t = 1, |c| e^{-pi j}, times e^{-pi s} x,
    # x = 1/(pi (j + s)) at the first dropped j (e^{-pi s} taken out on both sides)
    slabs, low = _profile_table()
    first = low + slabs.shape[2]
    for name, (_, terms) in _kernel_inputs(QuadratureConfig())[2].items():
        for m in range(3):
            pairs = sorted((j, c) for k, j, c in terms if k == m)
            if not pairs:
                continue
            j, coeff = (np.array(col, dtype=float) for col in zip(*pairs))
            offset, dropped = PI * j, j >= first
            assert dropped.any() and not dropped[0], (name, m)
            size = _moment_sizes(np.full(dropped.sum(), float(m)), offset[dropped], coeff[dropped],
                                 _MOMENT_S).sum(axis=0)
            lead = abs(coeff[0]) * np.exp(-offset[0]) / (PI * (first + _MOMENT_S))
            assert np.all(size <= (1 + m + m * (m - 1)) * 2.0 ** -60 * lead), (name, m)


def test_moments_hold_one_row_per_rate(ev):
    # (x, x^2, x^3) rows of the decaying moments, one per column j >= 1 of the
    # table that holds a term (it keeps j <= 23): K+- merge their phi0 and
    # psi_i terms at the even rates, Kphi its three orders at each rate
    rows = {kind: (k.decaying.offset.shape[0], k.decaying.k2.size, k.decaying.k3.size)
            for kind, k in ev._kernels.items()}
    assert rows == {RadialKind.A: (11, 11, 11), RadialKind.B: (23, 0, 0),
                    RadialKind.G: (23, 11, 11), RadialKind.GHAT: (23, 11, 11)}
    slabs, low = _profile_table()
    assert low + slabs.shape[2] - 1 == 23
    for kind, slab in zip(magic._PROFILES, slabs):
        assert rows[kind][0] == np.count_nonzero(slab[:, 1 - low:].any(axis=0)), kind


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


# -- the sweep against the arithmetic it replaced ------------------------------------
#
# The oracles below are the sweep as first written: np.array_split's blocks,
# both sides of s = 3 evaluated in every block, and moment sums that add
# offset + pi s by broadcasting and take e^{-pi s} each on their own.  The
# sweep must equal them bit for bit.

_ORACLE_SCRATCH = Scratch()


def _broadcast_moments(moments, s):
    terms, n = moments.offset.shape[0], s.size
    t1, t2 = moments.k2.size, moments.k3.size
    x, x2 = _ORACLE_SCRATCH.get("x", terms, n), _ORACLE_SCRATCH.get("x2", t1, n)
    np.add(moments.offset, PI * s, out=x)
    np.reciprocal(x, out=x)
    total = moments.k @ x
    np.multiply(x[:t1], x[:t1], out=x2)
    total += moments.k2 @ x2
    x3 = x2[:t2]
    x3 *= x[:t2]
    total += moments.k3 @ x3
    return np.exp(-PI * s) * total


def _both_sides_sin2_laplace(kernel, s, sine, low, e1, e2):
    n, panels = s.size, e1.shape[0]
    m = _ORACLE_SCRATCH.get("m", 2 * panels, n)
    np.matmul(kernel.weights, e2, out=m)
    both = m.reshape(2, panels, n)
    both *= e1
    sums = both.sum(axis=1)
    inner = np.where(low, sums[1], sums[0]) + _broadcast_moments(kernel.decaying, s)
    inner[~low] += _broadcast_moments(kernel.growing, s[~low])
    out = sine * sine * inner
    w = s[low] - kernel.shift
    near = np.abs(w) < 1.0
    q = np.where(near, 0.5 * np.sinc(w / 2.0), sine[low] / (PI * np.where(near, 1.0, w)))
    out[low] += kernel.coeff @ np.where(kernel.order == 0, sine[low] * q, q * q)
    return out


def _array_split_sweep(rule, kernels, radii):
    r = magic._checked_radii(radii)
    panel_rate, node_rate = rule
    rows = []
    for s in np.array_split(r ** 2, max(1, -(-r.size // magic._BLOCK))):
        sine = np.sin(PI * (s - 2.0 * np.round(s / 2.0)) / 2.0)
        low = s < 2.0 + _SUBTRACT_MARGIN
        e1 = _ORACLE_SCRATCH.get("e1", panel_rate.size, s.size)
        np.multiply.outer(panel_rate, s, out=e1)
        np.exp(e1, out=e1)
        e2 = _ORACLE_SCRATCH.get("e2", node_rate.size, s.size)
        np.multiply.outer(node_rate, s, out=e2)
        np.exp(e2, out=e2)
        rows.append([_both_sides_sin2_laplace(k, s, sine, low, e1, e2) for k in kernels])
    return np.concatenate(rows, axis=1)


#: radii whose squares lie wholly below the switch s = 3, wholly above it, or on both sides
_SWEEP_SPANS = {"below": (0.0, 1.73), "above": (1.74, 9.0), "straddling": (0.0, 6.0)}


@pytest.mark.parametrize("span", list(_SWEEP_SPANS))
@pytest.mark.parametrize("quad", [QuadratureConfig(), QuadratureConfig(gauss_order=16,
                                                                       panels_per_segment=4)],
                         ids=["default", "4x16"])
def test_sweep_is_the_array_split_broadcast_sweep_bit_for_bit(quad, span):
    ev = MagicEvaluator(quad)
    kernels = [ev._kernels[kind] for kind in RadialKind]
    rng = np.random.default_rng(11)
    lo, hi = _SWEEP_SPANS[span]
    for n in (1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5):
        radii = np.sort(rng.uniform(lo, hi, n))
        got = _laplace_sweep(ev._rule, kernels, radii)
        want = _array_split_sweep(ev._rule, kernels, radii)
        assert got.shape == want.shape == (4, n)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), n


def test_moment_denominators_are_the_broadcast_add_bit_for_bit(ev):
    # [offset, 1] @ [1; pi s] adds two exact products, rounded once
    rng = np.random.default_rng(5)
    for s in (np.zeros(3), np.full(3, 1e300), rng.uniform(0.0, 40.0, 1000),
              10.0 ** rng.uniform(-300.0, 300.0, 1000)):
        pi_s = np.array([np.ones_like(s), PI * s])
        for kernel in ev._kernels.values():
            for moments in (kernel.decaying, kernel.growing):
                got = moments.rate @ pi_s
                want = np.add.outer(moments.offset.ravel(), PI * s)
                assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("radii, calls", [([1.0], 1), ([2.0], 2), ([1.0, 2.0], 2)],
                         ids=["below", "above", "straddling"])
def test_moment_sums_run_only_for_the_side_a_block_needs(ev, radii, calls, monkeypatch):
    # the decaying terms always, the growing terms only where some s >= 3
    seen = []
    moments = magic._Moments.__call__
    monkeypatch.setattr(magic._Moments, "__call__",
                        lambda self, *args: seen.append(self) or moments(self, *args))
    ev.values((RadialKind.G,), radii)
    assert len(seen) == calls


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


def test_contour_values_match_one_radius_calls(ev):
    radii = np.array([0.0, 0.7, SQRT2, 1.5, 2.0, 3.0, 5.5])
    a0 = abs(ev.eval_a(0.0))
    for form, one in ((FormId.PHI0, ev.eval_a_propagated), (FormId.PSI_S, ev.eval_b_propagated)):
        many = ev.contour_values(form, radii)
        assert many.dtype == np.complex128 and many.shape == radii.shape
        assert np.abs(many - [one(float(r)) for r in radii]).max() <= 1e-15 * a0


def test_contour_values_of_no_radii_is_empty(ev):
    for form in (FormId.PHI0, FormId.PSI_S):
        out = ev.contour_values(form, np.array([]))
        assert out.shape == (0,) and out.dtype == np.complex128


def test_laplace_values_of_no_radii_are_empty(ev):
    # no radius is no block of the sweep; the contour oracle refuses a form it
    # has no ray for by name, as the realness check does
    assert ev.values((RadialKind.G,), []).shape == (1, 0)
    assert ev.values(tuple(RadialKind), np.empty(0)).shape == (4, 0)
    assert ev.values((), [0.5, 1.0]).shape == (0, 2)
    assert ev.g_values([]).shape == ev.g_hat_values([]).shape == (0,)
    table = tabulate_radial(RadialKind.G, [], ev)
    assert table.radii.shape == table.values.shape == (0,)
    with pytest.raises(ValueError, match="Phi0 and PsiS"):
        ev.contour_values(FormId.E4, [1.0])


def test_contour_values_run_in_capped_blocks(ev):
    # 5,000 radii in one (5,000, 1,536) product took 234 MiB; blocks of 42
    # radii keep a few 1 MiB temporaries
    radii = np.linspace(0.0, 6.0, 5000)
    want = ev.contour_values(FormId.PHI0, radii[:42])    # the node table is built
    tracemalloc.start()
    try:
        got = ev.contour_values(FormId.PHI0, radii)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20, peak
    assert np.array_equal(got[:42], want)


@pytest.mark.parametrize("form", FORMS)
def test_six_legs_sum_to_contour_values(ev, form):
    # each leg's nodes on their own, with the integrand from the scalar series path
    series, rule = form_qseries(form), (ev.quad.panels_per_segment, ev.quad.gauss_order)
    terms = []
    for start, end, shift, c in magic._LEGS:
        for z, w in zip(*panel_nodes(start, end, *rule)):
            terms.append((z, c * w * series.eval(complex(-1.0 / (z + shift))) * (z + shift) ** 2))
    for t, w in zip(*panel_nodes(1.0, magic._RAY_END, *rule)):
        terms.append((1j * t, magic._RAY[form][0] * 1j * w * series.eval(1j * t)))
    a0 = abs(ev.eval_a(0.0))
    for r in (0.0, 1.0, 1.5, 2.5):
        total = sum(cw * cmath.exp(1j * PI * r * r * z) for z, cw in terms)
        assert abs(total - ev.contour_values(form, [r])[0]) <= 1e-15 * a0


def test_magic_verify_makes_one_oracle_call_per_form(capsys, monkeypatch):
    calls = []
    contour_sum = magic._contour_sum
    monkeypatch.setattr(magic, "_contour_sum",
                        lambda *args: calls.append(args) or contour_sum(*args))
    assert run(["magic", "verify"]) == 0
    capsys.readouterr()
    assert len(calls) == 2
    assert [np.size(r2) for _, _, r2 in calls] == [3, 3]


@pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf, 1e200])
def test_both_representations_refuse_the_same_radii(ev, r):
    calls = [lambda: ev.contour_values(FormId.PHI0, [1.0, r]),
             lambda: ev.contour_values(FormId.PSI_S, [r]),
             lambda: ev.eval_a_propagated(r), lambda: ev.eval_b_propagated(r),
             lambda: ev.values((RadialKind.A,), [r]), lambda: ev.values(tuple(RadialKind), [0.5, r])]
    for call in calls:
        with pytest.raises(ValueError, match="radii must satisfy"):
            call()


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
    """a, b, g and g_hat at ORACLE_RADII from the six-leg contour, one call per form."""
    a, b = (ev.contour_values(form, ORACLE_RADII) for form in (FormId.PHI0, FormId.PSI_S))
    plus, minus = 1j * PI / 8640.0 * a, 1j / (240.0 * PI) * b
    return a, b, (plus - minus).real, (plus + minus).real


def test_laplace_a_and_b_match_contour_oracle(ev, oracle):
    a, b, _, _ = oracle
    a0 = abs(ev.eval_a(0.0))
    laplace_a, laplace_b = 1j * ev.values((RadialKind.A, RadialKind.B), ORACLE_RADII)
    assert np.abs(laplace_a - a).max() <= 1e-14 * a0
    assert np.abs(laplace_b - b).max() <= 1e-14 * a0


def test_laplace_g_and_g_hat_match_contour_oracle(ev, oracle):
    _, _, g, g_hat = oracle
    assert np.abs(ev.g_values(ORACLE_RADII) - g).max() <= 1e-14
    assert np.abs(ev.g_hat_values(ORACLE_RADII) - g_hat).max() <= 1e-14


def test_minus_kernel_growth_cancels_exactly(ev):
    # the e^{2 pi t} terms of -Kphi and -W Kpsi cancel in the merged terms, so
    # K- grows only like t; K+ keeps them
    assert set(ev._kernels[RadialKind.GHAT].shift.ravel()) == {0.0}
    assert set(ev._kernels[RadialKind.G].shift.ravel()) == {0.0, 2.0}


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


def test_moment_terms_equal_the_fraction_construction_bit_for_bit():
    # before, each coefficient was float(series.coefficient(k)), a Fraction:
    # every entry of the profiles' table is that construction's term bit for
    # bit, whose terms above the table's top cut are left out
    table, low = _profile_table()
    for (name, (_, terms)), slab in zip(_kernel_inputs(QuadratureConfig())[2].items(), table):
        want = np.zeros_like(slab)
        for m, j, c in terms:
            if j - low < slab.shape[1]:
                want[m, j - low] = c
        assert want.tobytes() == slab.tobytes(), name


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


def _hankel8_before(table, r):
    """hankel8 as it was before its rule and coefficients were cached,
    verbatim, with the table and radius checks left out."""
    def eigenbasis(s):
        x = 2.0 * PI * s * s
        phi = np.empty((magic._EIGEN_TERMS,) + s.shape)
        phi[0] = np.exp(-x / 2.0)
        phi[1] = (4.0 - x) * phi[0]
        for k in range(1, magic._EIGEN_TERMS - 1):
            phi[k + 1] = ((2 * k + 4 - x) * phi[k] - (k + 3) * phi[k - 1]) / (k + 1)
        return phi

    radii, values = table.radii, table.values
    s, w = panel_nodes(0.0, min(float(radii[-1]), magic._EIGEN_END), 16, 16)
    k = np.arange(magic._EIGEN_TERMS)
    moments = eigenbasis(s) @ (w * _CUBIC_INTERP(radii, values, s) * s ** 7)
    coeffs = (PI ** 4 / 3.0) * moments * 96.0 / ((k + 1) * (k + 2) * (k + 3))
    return float((-1.0) ** k * coeffs @ eigenbasis(np.array(float(r))))


_CUBIC_INTERP = magic._cubic_interp
_HEX_RADII = np.random.default_rng(31).uniform(0.05, 3.0, 20)


def _oracle_table(name, end=6.0):
    s = np.arange(0.0, end + 1e-4, 0.01)
    return RadialTable(s, _HANKEL_ORACLES[name][0](s))


def test_hankel_is_bit_identical_to_the_uncached_formula(eigen_tables):
    tables = [*eigen_tables, *(_oracle_table(name) for name in sorted(_HANKEL_ORACLES))]
    for table in tables:
        got = [hankel8(table, r).hex() for r in _HEX_RADII]
        assert got == [_hankel8_before(table, r).hex() for r in _HEX_RADII]


def _count_interpolations(monkeypatch):
    calls = []
    monkeypatch.setattr(magic, "_cubic_interp",
                        lambda *args: calls.append(1) or _CUBIC_INTERP(*args))
    return calls


def test_hankel_builds_a_tables_coefficients_once(monkeypatch):
    calls = _count_interpolations(monkeypatch)
    table = _oracle_table("gauss_a2")
    first = [hankel8(table, r) for r in (0.8, 1.3)]
    assert len(calls) == 1
    assert table._signed_coefficients.flags.writeable is False
    again = RadialTable(table.radii, table.values)
    assert [hankel8(again, r) for r in (0.8, 1.3)] == first
    assert len(calls) == 2


def test_hankel_refuses_a_radius_after_the_coefficients_are_cached():
    table = _oracle_table("gauss_a2")
    hankel8(table, 1.0)
    for r in (math.nan, 0.0, 1e-110):
        with pytest.raises(ValueError, match="finite r > 0"):
            hankel8(table, r)


def test_hankel_refuses_an_insufficient_table_on_every_call(monkeypatch):
    calls = _count_interpolations(monkeypatch)
    s = np.arange(0.0, 6.0001, 0.25)
    table = RadialTable(s, np.exp(-s))
    for _ in range(3):
        with pytest.raises(InsufficientTable, match="too coarse"):
            hankel8(table, 1.0)
    assert calls == []


def test_hankel_refuses_a_table_that_does_not_start_at_zero():
    s = np.arange(1.0, 6.0001, 0.01)
    table = RadialTable(s, np.exp(-PI * s ** 2))
    # extrapolated over [0, 1), the transform missed e^{-pi} by about 4.8e-4
    assert abs(_hankel8_before(table, 1.0) - math.exp(-PI)) > 1e-4
    with pytest.raises(InsufficientTable, match="start at radius 0"):
        hankel8(table, 1.0)


def test_hankel_builds_one_read_only_rule_per_upper_limit():
    magic._eigen_rule.cache_clear()
    tables = [_oracle_table("gauss_a2", end) for end in (5.0, 20.0, 5.0, 20.0)]
    for table in tables:
        assert hankel8(table, 0.9).hex() == _hankel8_before(table, 0.9).hex()
    info = magic._eigen_rule.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 2, 2)
    for end in (5.0, magic._EIGEN_END):
        s, w, basis, s7 = magic._eigen_rule(end)
        assert s.max() < end and basis.shape == (magic._EIGEN_TERMS, s.size)
        assert not any(a.flags.writeable for a in (s, w, basis, s7))


def test_kernel_weights_match_two_single_series_evaluations():
    # the evaluator reads phi0 and psi_s at the 1j/t nodes from one stacked
    # call; each kernel's table equals the one built from two plain evals
    quad = QuadratureConfig()
    ev = MagicEvaluator(quad)
    panels = quad.panels_per_segment
    t, w = panel_nodes(0.0, 1.0, panels, quad.gauss_order)
    kphi = (t * t) * form_qseries(FormId.PHI0).eval(1j / t).real
    kpsi = (t * t) * form_qseries(FormId.PSI_S).eval(1j / t).real
    slabs, low = _profile_table()
    values = (kphi, kpsi, kphi - WEIGHT36 * kpsi, -kphi - WEIGHT36 * kpsi)
    want = {kind: magic._Kernel.build(t, w, v, slab, low, panels)
            for kind, v, slab in zip(magic._PROFILES, values, slabs)}
    for name, kernel in want.items():
        assert np.array_equal(ev._kernels[name].weights, kernel.weights), name
