"""Series arithmetic: ring laws, truncation bookkeeping, evaluation guards."""

import cmath
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from spherepack.errors import DomainTooLow, NomeMismatch, TruncationInsufficient, ZeroDivisionSeries
from spherepack.forms import (
    FormId,
    _b_minus_psi_i_q4,
    _b_plus_psi_i_q4,
    e4sq_over_delta_qseries,
    form_qseries,
    phi0_anomaly_qseries,
    psi_i_qseries,
)
from spherepack.qseries import (_STACK_BLOCK, ETA_MIN, Nome, QSeries, eval_stack,
                                from_coefficients, one_series, stride_power, top_cut)


def geometric(order):
    return QSeries(Nome.Q2, [1] * (order + 1))


def test_mul_identity():
    f = from_coefficients(Nome.Q2, [(0, 3), (2, -5), (7, 1)], 10)
    assert (f * one_series(Nome.Q2, 10)) == f


def test_mul_telescoping():
    # (1 - q) * sum q^n == 1 through the truncation order
    one_minus_q = from_coefficients(Nome.Q2, [(0, 1), (1, -1)], 20)
    prod = one_minus_q * geometric(20)
    assert prod.coefficient(0) == 1
    assert all(prod.coefficient(k) == 0 for k in range(1, prod.order + 1))


def test_self_division_is_one():
    f = from_coefficients(Nome.Q2, [(1, 1), (2, -24), (3, 252)], 12)
    quot = f / f
    assert quot.coefficient(0) == 1
    assert all(quot.coefficient(k) == 0 for k in range(1, quot.order + 1))


def test_division_tracks_lowest():
    num = from_coefficients(Nome.Q2, [(2, 1)], 10)           # q^2
    den = from_coefficients(Nome.Q2, [(1, 1), (2, 1)], 10)  # q + q^2
    quot = num / den
    assert quot.lowest == 1
    assert quot.coefficient(1) == 1
    assert quot.coefficient(2) == -1


def test_inverse_of_pole():
    den = from_coefficients(Nome.Q2, [(1, 1), (2, -24)], 10)  # q - 24 q^2
    inv = den.inverse()
    assert inv.lowest == -1
    assert inv.coefficient(-1) == 1
    assert inv.coefficient(0) == 24
    prod = den * inv
    assert prod.coefficient(0) == 1
    assert all(prod.coefficient(k) == 0 for k in range(1, prod.order + 1))


def test_zero_series_division_rejected():
    with pytest.raises(ZeroDivisionSeries):
        one_series(Nome.Q2, 5) / QSeries(Nome.Q2, [0] * 6)


def test_nome_mismatch_rejected():
    with pytest.raises(NomeMismatch):
        one_series(Nome.Q2, 5) * one_series(Nome.Q4, 5)


def test_q2_to_q4_multiplies_exponents_by_eight():
    f = from_coefficients(Nome.Q2, [(0, 1), (3, 7)], 5)
    g = f.to_q4()
    assert g.nome is Nome.Q4
    assert g.coefficient(0) == 1
    assert g.coefficient(24) == 7
    assert all(g.coefficient(k) == 0 for k in range(1, 24) )


def test_derivative_definition():
    # D(constant) = 0 and D(q) = q in nome Q2
    assert one_series(Nome.Q2, 5).derivative().is_zero()
    q = from_coefficients(Nome.Q2, [(1, 1)], 5)
    assert q.derivative() == q
    # In nome Q4 the exponent k scales by k/8 (q4^8 = q2)
    f = from_coefficients(Nome.Q4, [(4, 1)], 8)
    assert f.derivative().coefficient(4) == Fraction(1, 2)


def test_eval_constant_anywhere():
    assert one_series(Nome.Q2, 5).eval(0.3 + 2.0j) == 1.0


def test_eval_geometric_matches_closed_form():
    tau = 0.1 + 1.2j
    w = complex(math.e) ** 0  # placeholder to keep math import used
    q = Nome.Q2.value_at(tau)
    val = geometric(60).eval(tau)
    assert abs(val - 1.0 / (1.0 - q)) < 1e-13 * abs(val)


def test_eval_domain_guard():
    with pytest.raises(DomainTooLow):
        geometric(60).eval(0.0 + 0.3j)


def test_eval_truncation_guard():
    # A short, large-coefficient series near the domain floor cannot certify 1e-12.
    f = from_coefficients(Nome.Q2, [(0, 1), (3, 10 ** 9)], 3)
    with pytest.raises(TruncationInsufficient):
        f.eval(0.0 + 0.5j)


def test_add_respects_truncation_window():
    f = from_coefficients(Nome.Q2, [(0, 1)], 4)
    g = from_coefficients(Nome.Q2, [(0, 1)], 9)
    assert (f + g).order == 4


def test_pow_matches_repeated_mul():
    f = from_coefficients(Nome.Q2, [(0, 1), (1, 2), (2, -1)], 12)
    assert f ** 3 == f * f * f


# -- array evaluation -------------------------------------------------------------

def _array_points():
    re = np.linspace(-1.5, 1.5, 7)
    im = np.array([0.5, 0.8, 1.0, 2.5, 6.0])
    return (re[:, None] + 1j * im[None, :]).ravel()


@pytest.mark.parametrize("form", list(FormId))
def test_array_eval_matches_scalar(form):
    series = form_qseries(form)
    taus = _array_points()
    got = series.eval(taus)
    assert got.shape == taus.shape and got.dtype == complex
    want = np.array([series.eval(complex(t)) for t in taus])
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


def test_array_eval_keeps_shape_and_pole():
    # psi_i has a double pole at the cusp (negative lowest exponent)
    series = psi_i_qseries()
    taus = _array_points().reshape(7, 5)
    got = series.eval(taus)
    assert got.shape == (7, 5)
    assert abs(got[3, 2] - series.eval(complex(taus[3, 2]))) <= 1e-13 * abs(got[3, 2])


#: period P -> (x, k) with x + P k exact in float64: from 2^53 on the float
#: spacing is 2 (16 from 2^56, where 8 10^16 lies), so x is a multiple of it
_PERIOD_SHIFTS = {
    1: [(0.375, 1), (-0.625, 7), (0.375, 2 ** 40 + 1), (-2.0, 10 ** 15), (2.0, 10 ** 16),
        (6.0, -(10 ** 16))],
    8: [(0.375, 1), (-0.625, 7), (3.375, 2 ** 40 + 1), (-2.0, 10 ** 15), (6.0, -(10 ** 15)),
        (0.0, 10 ** 16), (-16.0, 10 ** 16)],
}


@pytest.mark.parametrize("form", list(FormId))
def test_eval_is_periodic_in_re_tau(form):
    # the nome has period P in Re(tau), also where P k is far beyond 1/ulp
    series = form_qseries(form)
    period = 1 if series.nome is Nome.Q2 else 8
    shifts = _PERIOD_SHIFTS[period]
    base = np.array([complex(x, 0.6) for x, _ in shifts])
    shifted = np.array([complex(x + period * k, 0.6) for x, k in shifts])
    assert [Fraction(t.real) for t in shifted] == [Fraction(x) + period * k for x, k in shifts]
    want = series.eval(base)
    for got in (series.eval(shifted), [series.eval(complex(t)) for t in shifted]):
        assert np.all(np.abs(np.asarray(got) - want) <= 1e-12 * np.maximum(np.abs(want), 1.0))


@pytest.mark.parametrize("nome", list(Nome))
def test_nome_keeps_its_bits_within_one_period(nome):
    # |Re(tau)| < P: the nome is the plain exponential, bit for bit
    if nome is Nome.Q2:
        period, plain = 1.0, lambda exp, tau: exp(2j * cmath.pi * tau)
    else:
        period, plain = 8.0, lambda exp, tau: exp(1j * cmath.pi * tau / 4)
    taus = [complex(s * period, y) for s in (-0.999, -0.375, -0.0, 0.0, 0.5, 0.999)
            for y in (0.5, 1.3)]
    for tau in taus:
        assert nome.value_at(tau) == plain(cmath.exp, tau)
    assert np.array_equal(nome.value_at(np.array(taus)), plain(np.exp, np.array(taus)))


def test_scalar_eval_returns_python_complex():
    series = form_qseries(FormId.PSI_S)
    assert type(series.eval(0.1 + 1.3j)) is complex
    assert type(series.eval(np.complex128(0.1 + 1.3j))) is complex


@pytest.mark.parametrize("tau, e4, q2, q4", [
    (1j, "(1.4557628922687096+0j)", "(0.0018674427317079893+0j)", "(0.45593812776599624+0j)"),
    (np.complex128(1j), "(1.4557628922687096+0j)", "(0.0018674427317079893+0j)",
     "(0.45593812776599624+0j)"),
    # the nome's argument 2*pi*i*tau is formed in complex64 before cmath.exp
    (np.complex64(1j), "(1.4557628112481305+0j)", "(0.0018674424051939472+0j)",
     "(0.4559381178011517+0j)"),
    (np.float64(0.25), None, "(6.123233995736766e-17+1j)",
     "(0.9807852804032304+0.19509032201612825j)"),
])
def test_number_dispatch_returns_python_complex_bit_for_bit(tau, e4, q2, q4):
    # every numbers.Number, numpy scalars included, takes the cmath path
    pinned = [(Nome.Q2.value_at(tau), q2), (Nome.Q4.value_at(tau), q4)]
    if e4 is not None:
        pinned.append((form_qseries(FormId.E4).eval(tau), e4))
    for got, want in pinned:
        assert type(got) is complex and repr(got) == want


def test_array_dispatch_returns_ndarrays():
    series = form_qseries(FormId.E4)
    for tau in (np.array(1j), np.array([1j, 0.25 + 1.5j])):
        got = series.eval(tau)
        assert type(got) is np.ndarray and got.shape == tau.shape and got.dtype == complex
        assert complex(got.flat[0]) == series.eval(1j)
        assert np.shape(Nome.Q4.value_at(tau)) == tau.shape


def test_array_eval_of_empty_array_is_empty():
    # the length-0 case of arrays-in/arrays-out, also for a pole at the cusp
    for series in (psi_i_qseries(), form_qseries(FormId.PHI0)):
        got = series.eval(np.empty((0, 3), dtype=complex))
        assert got.shape == (0, 3) and got.dtype == complex


def test_array_eval_raises_the_scalar_errors():
    taus = np.array([0.0 + 1.0j, 0.2 + 0.3j])
    with pytest.raises(DomainTooLow):
        geometric(60).eval(taus)
    with pytest.raises(DomainTooLow):
        geometric(60).eval(complex(taus[1]))
    f = from_coefficients(Nome.Q2, [(0, 1), (3, 10 ** 9)], 3)
    taus = np.array([0.0 + 3.0j, 0.0 + 0.5j])
    with pytest.raises(TruncationInsufficient):
        f.eval(taus)
    with pytest.raises(TruncationInsufficient):
        f.eval(complex(taus[1]))
    with pytest.raises(DomainTooLow):
        geometric(60).eval(np.array([1j, complex(0.0, math.nan)]))


# -- exactness: integer numerators against a plain-Fraction reference -------------

def _window(s):
    """(nome, lowest, exact coefficients) of a library series, after checking
    that it is stored as reduced int numerators over a positive denominator."""
    assert type(s.den) is int and s.den > 0 and all(type(n) is int for n in s.num)
    assert math.gcd(s.den, *s.num) == 1
    return s.nome, s.lowest, [s.coefficient(k) for k in range(s.lowest, s.order + 1)]


def _ref(nome, lowest, coeffs):
    """Reference series: leading zeros trimmed as the library does."""
    coeffs = [Fraction(c) for c in coeffs]
    while len(coeffs) > 1 and coeffs[0] == 0:
        coeffs.pop(0)
        lowest += 1
    return nome, lowest, coeffs


def _ref_at(r, k):
    _, lowest, coeffs = r
    return coeffs[k - lowest] if k >= lowest else Fraction(0)


def _ref_order(r):
    return r[1] + len(r[2]) - 1


def _ref_add(r, s):
    lowest, order = min(r[1], s[1]), min(_ref_order(r), _ref_order(s))
    return _ref(r[0], lowest, [_ref_at(r, k) + _ref_at(s, k) for k in range(lowest, order + 1)])


def _ref_scale(r, c):
    return _ref(r[0], r[1], [Fraction(c) * a for a in r[2]])


def _ref_mul(r, s):
    n = min(len(r[2]), len(s[2]))
    acc = [Fraction(0)] * n
    for i, a in enumerate(r[2]):
        for j, b in enumerate(s[2]):
            if i + j < n:
                acc[i + j] += a * b
    return _ref(r[0], r[1] + s[1], acc)


def _ref_pow(r, e):
    out = _ref(r[0], 0, [1] + [0] * (len(r[2]) - 1))
    for _ in range(e):
        out = _ref_mul(out, r)
    return out


def _ref_inverse(r):
    u = r[2]
    inv = [1 / u[0]]
    for k in range(1, len(u)):
        inv.append(-sum(u[j] * inv[k - j] for j in range(1, k + 1)) / u[0])
    return _ref(r[0], -r[1], inv)


def _ref_eq(r, s):
    lo, hi = min(r[1], s[1]), min(_ref_order(r), _ref_order(s))
    return r[0] is s[0] and all(_ref_at(r, k) == _ref_at(s, k) for k in range(lo, hi + 1))


def _random_coeffs(rng, n):
    """Rationals with small numerators and denominators, about a third zero;
    the first is nonzero and seldom a unit."""
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) if rng.random() > 0.35 else 0
              for _ in range(n)]
    coeffs[0] = rng.choice([2, -3, Fraction(5, 4), Fraction(-7, 6), 1, -1])
    return coeffs


def test_integer_numerators_match_fraction_reference():
    import random
    rng = random.Random(20240611)
    for _ in range(120):
        nome = rng.choice([Nome.Q2, Nome.Q4])
        ca, cb = _random_coeffs(rng, rng.randint(1, 14)), _random_coeffs(rng, rng.randint(1, 14))
        la, lb = rng.randint(-4, 3), rng.randint(-4, 3)
        a, b = QSeries(nome, ca, la), QSeries(nome, cb, lb)
        ra, rb = _ref(nome, la, ca), _ref(nome, lb, cb)
        c = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        assert _window(a) == ra and _window(b) == rb
        assert _window(a + b) == _ref_add(ra, rb)
        assert _window(a - b) == _ref_add(ra, _ref_scale(rb, -1))
        assert _window(-a) == _ref_scale(ra, -1)
        assert _window(a.scale(c)) == _ref_scale(ra, c)
        assert _window(a * b) == _ref_mul(ra, rb)
        e = rng.randint(0, 4)
        assert _window(a ** e) == _ref_pow(ra, e)
        assert _window(a.inverse()) == _ref_inverse(ra)
        assert _window(a / b) == _ref_mul(ra, _ref_inverse(rb))
        cut = rng.randint(a.lowest, a.order)
        assert _window(a.truncate(cut)) == _ref(nome, la, ca[:cut - a.lowest + 1])
        step = Fraction(1) if nome is Nome.Q2 else Fraction(1, 8)
        assert _window(a.derivative()) == _ref(
            nome, a.lowest, [step * (a.lowest + j) * x for j, x in enumerate(ra[2])])
        if nome is Nome.Q2:
            spread = [0] * (8 * len(ra[2]) - 7)
            spread[::8] = ra[2]
            assert _window(a.to_q4()) == _ref(Nome.Q4, 8 * a.lowest, spread)
        assert (a == b) == _ref_eq(ra, rb)
        # == over the common window, across different denominators (13 divides
        # no denominator of _random_coeffs)
        longer = QSeries(nome, ra[2] + [Fraction(1, 13)], a.lowest)
        assert longer.den != a.den and longer == a and a == longer
        bumped = QSeries(nome, ra[2][:-1] + [ra[2][-1] + Fraction(1, 17)], a.lowest)
        assert bumped != a and (bumped == longer) is False


def test_zero_window_through_integer_paths():
    z = QSeries(Nome.Q4, [Fraction(0), 0, Fraction(0, 5)], -2)
    assert z.is_zero() and z.den == 1
    assert z.order == 0 and z.coefficient(-3) == 0
    with pytest.raises(ZeroDivisionSeries):
        z.inverse()
    f = QSeries(Nome.Q4, [Fraction(3, 4), 0, 1], 0)
    assert (f - f).is_zero()


# The builder calls the benchmark makes (each distinct call once), hashed as
# (nome, lowest, [(numerator, denominator), ...]) of each exact coefficient.
# Recorded with the earlier Fraction-coefficient implementation.
_PINNED_CALLS = [
    ("eisenstein_qseries", 2, 50), ("eisenstein_qseries", 4, 50), ("eisenstein_qseries", 6, 50),
    ("theta_qseries", "00", 200), ("theta_qseries", "10", 200), ("theta_qseries", "01", 200),
    ("form_qseries", "THETA00"), ("form_qseries", "THETA10"), ("form_qseries", "THETA01"),
    ("delta_qseries", 50), ("eta_product_qseries", 50),
    ("form_qseries", "PHI0"), ("form_qseries", "PSI_S"), ("phi0_qseries",),
    ("phi0_anomaly_qseries",), ("e4sq_over_delta_qseries",), ("psi_i_qseries",),
    ("_b_minus_psi_i_q4",), ("_b_plus_psi_i_q4",),
]
_PINNED_SHA256 = "1b345697b56f1c73507f263add64fb990cf7a3fe2e992a9c4530d60e2b013fab"


def _build(call):
    from spherepack import forms
    name, *args = call
    return forms.form_qseries(FormId[args[0]]) if name == "form_qseries" else getattr(forms, name)(*args)


def test_builder_coefficients_match_pinned_hash():
    import hashlib
    digest = hashlib.sha256()
    for call in _PINNED_CALLS:
        nome, lowest, coeffs = _window(_build(call))
        pairs = [(c.numerator, c.denominator) for c in coeffs]
        digest.update(repr((nome.value, lowest, pairs)).encode())
    assert digest.hexdigest() == _PINNED_SHA256


# -- the real-nome stride loop against the complex one, both against exact values --

def _complex_horner(series, tau):
    """eval's loop, guards left out, in complex in every case: Horner over
    every stride-th coefficient in nome**stride, then the complex integer
    power nome**lowest."""
    floats, _, step = series._numeric()
    w = series.nome.value_at(tau)
    y = stride_power(w, step)
    acc = 0.0 + 0.0j
    for c in reversed(floats[::step]):
        acc = acc * y + c
    if series.lowest:
        acc *= w ** series.lowest
    return acc


def _dense_horner(series, tau):
    """The loop eval ran before the stride: complex Horner over every
    coefficient in the nome itself, then nome**lowest."""
    w = series.nome.value_at(tau)
    acc = 0.0 + 0.0j
    for c in reversed(series._numeric()[0]):
        acc = acc * w + c
    if series.lowest:
        acc *= w ** series.lowest
    return acc


#: t log-spaced on [0.01, 100], t = 1 included
_AXIS_T = np.logspace(-2.0, 2.0, 33)


def _axis_points():
    t = _AXIS_T
    assert 1.0 in t
    return {"i*t": 1j * t[t >= 0.5], "i/t": 1j / t[t <= 2.0], "i*(1/t)": 1j * (1.0 / t[t <= 2.0])}


@pytest.mark.parametrize("call", _PINNED_CALLS, ids=lambda call: "-".join(map(str, call)))
def test_real_nome_horner_is_the_complex_loop_bit_for_bit(call):
    series = _build(call)
    for label, taus in _axis_points().items():
        got = series.eval(taus)
        assert got.dtype == complex
        assert np.array_equal(got, _complex_horner(series, taus)), label
        assert np.all(got.imag == 0.0), label
        assert all(series.eval(complex(z)) == _complex_horner(series, complex(z)) for z in taus)
    taus = _array_points()
    assert np.array_equal(series.eval(taus), _complex_horner(series, taus))


def test_real_nome_keeps_the_complex_power_of_a_pole():
    # psi_i has lowest exponent -8; with the numpy this was written against,
    # (nome.real)**-8 differs from the real part of the complex power in the last
    # bit at some of these points, so a float power would fail the comparison
    series = psi_i_qseries()
    assert series.lowest == -8
    points = _axis_points()
    for label, taus in points.items():
        assert np.array_equal(series.eval(taus), _complex_horner(series, taus)), label
    w = series.nome.value_at(np.concatenate(list(points.values())))
    if np.array_equal((w ** -8).real, w.real ** -8):
        pytest.skip("this numpy rounds the complex and the float power alike, "
                    "so the comparison cannot tell them apart")


def _gamma(n):
    u = Fraction(1, 2 ** 53)
    return n * u / (1 - n * u)


@pytest.mark.parametrize("call", _PINNED_CALLS, ids=lambda call: "-".join(map(str, call)))
def test_stride_and_dense_loops_meet_the_horner_bound(call):
    # The float nome of an axis point is a dyadic rational; against the exact
    # series there, both loops stay within Higham's Horner bound (Accuracy and
    # Stability of Numerical Algorithms, 5.1) gamma_2n sum |c_k| |w|^k.  n
    # counts the coefficient slots plus |lowest|, which covers the rounding
    # of each float coefficient and of nome**lowest; the stride loop's
    # chain nome**stride adds fewer roundings than the dense loop's steps.
    series = _build(call)
    exponents = range(series.lowest, series.order + 1)
    gamma = _gamma(2 * (len(series.num) + abs(series.lowest)))
    for t in (0.5, 1.0, 2.0, 7.0):
        tau = complex(0.0, t)
        w = series.nome.value_at(tau)
        assert w.imag == 0.0 and 0.0 < w.real < 1.0
        w = Fraction(w.real)
        exact = sum(series.coefficient(k) * w ** k for k in exponents)
        bound = gamma * sum(abs(series.coefficient(k)) * w ** k for k in exponents)
        for got in (series.eval(tau), _dense_horner(series, tau)):
            assert got.imag == 0.0
            assert abs(Fraction(got.real) - exact) <= bound, (t, got)


def test_stride_of_each_pinned_series():
    # the gcd of the nonzero exponent offsets: the Q4 theta series, psi_s and
    # psi_i step by 4 or 8, every Q2 series by 1
    sparse = {("theta_qseries", "00", 200): 4, ("theta_qseries", "10", 200): 8,
              ("theta_qseries", "01", 200): 4, ("form_qseries", "THETA00"): 4,
              ("form_qseries", "THETA10"): 8, ("form_qseries", "THETA01"): 4,
              ("form_qseries", "PSI_S"): 8, ("psi_i_qseries",): 4,
              ("_b_minus_psi_i_q4",): 4, ("_b_plus_psi_i_q4",): 4}
    for call in _PINNED_CALLS:
        series = _build(call)
        step = series._numeric()[2]
        assert step == sparse.get(call, 1), call
        assert all(j % step == 0 for j, n in enumerate(series.num) if n), call
    assert one_series(Nome.Q2, 5)._numeric()[2] == 1


def test_stride_power_is_one_chain_for_float_and_complex():
    xs = np.array([0.3, 0.77, 0.912345678901, 1e-3])
    for k in (1, 2, 3, 4, 7, 8, 12):
        got = stride_power(xs, k)
        assert np.array_equal(stride_power(xs + 0j, k).real, got)
        assert np.all(np.abs(got - xs ** k) <= 2 * k * 2.0 ** -53 * xs ** k)
        assert stride_power(complex(0.77), k).real == stride_power(0.77, k)
    assert stride_power(xs, 1) is xs


# -- the stacked loop against the one-series array loop --------------------------

def _one_series_loop(series, tau):
    """The array loop of QSeries.eval before eval_stack, guards left out:
    one series, in y = nome**stride, float when its own nome is real, the
    add of each zero coefficient skipped."""
    w = series.nome.value_at(tau)
    real = not w.imag.any()
    floats, _, step = series._numeric()
    y = stride_power(w.real if real else w, step)
    *rest, top = floats[::step]
    acc = np.full(w.shape, top, dtype=y.dtype)
    for c in reversed(rest):
        acc *= y
        if c:
            acc += c
    if series.lowest:
        power = w ** series.lowest
        acc *= power.real if real else power
    return acc.astype(complex, copy=False)


def _stack_series():
    """The seven axis series, E2 and E4 (dense Q2), theta10 (Q4, stride 8) and Delta."""
    return (form_qseries(FormId.PHI0), phi0_anomaly_qseries(), e4sq_over_delta_qseries(),
            form_qseries(FormId.PSI_S), psi_i_qseries(), _b_minus_psi_i_q4(), _b_plus_psi_i_q4(),
            form_qseries(FormId.E2), form_qseries(FormId.E4), form_qseries(FormId.THETA10),
            form_qseries(FormId.DELTA))


_IM = np.array([0.5, 0.6, 0.9, 1.0, 1.7, 3.0, 7.5])

#: label -> (points, whether every nome is real there)
_STACK_POINTS = {
    "axis": (1j * _IM, True),
    "off axis": (np.array([x + 1j * y for x in (-0.45, -0.1, 0.2, 0.49) for y in _IM]), False),
    # q2 is real at Re(tau) = 1 and q4 is not, so the stack runs complex there
    "Re = 1": (1.0 + 1j * _IM, False),
    "|Re| >= period": (np.array([x + 1j * y for x in (-8.0, 9.25, -17.5, 1e6 + 0.375)
                                 for y in _IM]), False),
    # more than two blocks of the stacked loop, on and off the axis
    "blocks, axis": (1j * np.geomspace(0.5, 8.0, 2 * _STACK_BLOCK + 5), True),
    "blocks, off axis": (0.3 + 1j * np.geomspace(0.5, 8.0, 2 * _STACK_BLOCK + 5), False),
}


@pytest.mark.parametrize("label", list(_STACK_POINTS))
@pytest.mark.parametrize("shape", ["(n,)", "(m, 1)"])
def test_stack_rows_are_the_one_series_loop_bit_for_bit(label, shape):
    # == on floats and complexes counts -0.0 equal to 0.0: a padded row or a
    # complex loop may give a zero of the other sign, and nothing else differs
    taus, real = _STACK_POINTS[label]
    if shape == "(m, 1)":
        taus = taus.reshape(-1, 1)
    series = _stack_series()
    got = eval_stack(series, taus)
    assert got.shape == (len(series),) + taus.shape
    assert got.dtype == (float if real else complex)
    for row, s in zip(got, series):
        want = _one_series_loop(s, taus)
        assert np.array_equal(row, want), (label, s)
        # the one-series case is eval's own array path, the zero signs included
        own = s.eval(taus)
        assert own.dtype == complex and np.array_equal(own, want)
        assert np.array_equal(np.signbit(own.real), np.signbit(want.real))
        assert np.array_equal(np.signbit(own.imag), np.signbit(want.imag))
    if label == "Re = 1":
        q2 = [i for i, s in enumerate(series) if s.nome is Nome.Q2]
        assert q2 and np.all(got[q2].imag == 0.0)


def test_stack_keeps_each_rows_refusals():
    e4 = form_qseries(FormId.E4)
    short = from_coefficients(Nome.Q2, [(0, 1), (3, 10 ** 9)], 3)
    with pytest.raises(TruncationInsufficient):
        eval_stack((e4, short, psi_i_qseries()), np.array([3.0j, 0.5j]))
    with pytest.raises(DomainTooLow):
        eval_stack((e4, psi_i_qseries()), np.array([1j, 0.2 + 0.4j]))
    with pytest.raises(DomainTooLow):
        eval_stack((e4,), np.array([1j, complex(0.0, math.nan)]))
    # nome underflow with a pole at the cusp: psi_i's q4 at Im(tau) = 1000
    with pytest.raises(DomainTooLow):
        eval_stack((e4, psi_i_qseries()), np.array([1j, 1000j]))
    assert eval_stack((e4, form_qseries(FormId.PSI_S)), np.array([1000j])).shape == (2, 1)


@pytest.mark.parametrize("re", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_a_non_finite_real_part_is_refused_on_both_paths(re):
    e4, bad = form_qseries(FormId.E4), complex(re, 1.0)
    with pytest.raises(DomainTooLow, match=r"Re\(tau\) is not finite at tau = "):
        e4.eval(bad)
    for taus in (np.array([1j, bad, 2j]), np.array([[1j, 2j], [3j, bad]])):
        with pytest.raises(DomainTooLow, match=r"Re\(tau\) is not finite at tau = "):
            eval_stack((e4, psi_i_qseries()), taus)
        with pytest.raises(DomainTooLow, match=r"Re\(tau\) is not finite at tau = "):
            e4.eval(taus)


def test_stack_of_empty_array_is_empty_float():
    for shape in ((0,), (0, 3)):
        got = eval_stack(_stack_series(), np.empty(shape, dtype=complex))
        assert got.shape == (11,) + shape and got.dtype == float


def test_stack_rows_sharing_a_nome_power_are_each_eval():
    # phi0 and Delta share (Q2, 1), psi_i and B + psi_i share (Q4, -8), E4 comes twice
    series = (form_qseries(FormId.PHI0), form_qseries(FormId.E4), form_qseries(FormId.DELTA),
              psi_i_qseries(), form_qseries(FormId.THETA10), _b_plus_psi_i_q4(),
              form_qseries(FormId.E4))
    assert series[0].lowest == series[2].lowest == 1 and series[0].nome is series[2].nome
    assert series[3].lowest == series[5].lowest == -8 and series[3].nome is series[5].nome
    for label, (taus, _) in _STACK_POINTS.items():
        got = eval_stack(series, taus)
        for row, s in zip(got, series):
            assert np.array_equal(row, s.eval(taus)), (label, s)


# -- the top cut: each loop stops where the dropped terms fall below rounding --

def _exact_and_bound(series, w):
    """The stored window at the float nome w, sum c_k w^k as exact (re, im)
    Fractions, and Higham's bound gamma sum |c_k| |w|^k plus 2^-60 of the
    leading term, both taken 0.1 % up for the float sums.  Each complex
    product rounds by at most sqrt(2) gamma_2 (Higham, 3.6), so gamma counts
    four roundings per coefficient slot and per unit of |lowest|.  The exact
    sum runs on integers: w = (a + bi)/d with d a power of 2, and
    w^-k = d^k (a - bi)^k / (a^2 + b^2)^k."""
    d = math.lcm(Fraction(w.real).denominator, Fraction(w.imag).denominator)
    a, b = int(w.real * d), int(w.imag * d)
    re = im = 0
    for j, n in enumerate(reversed(series.num)):
        re, im = re * a - im * b + n * d ** j, re * b + im * a
    low = series.lowest
    pa, pb = (a, b) if low > 0 else (a, -b)
    for _ in range(abs(low)):
        re, im = re * pa - im * pb, re * pb + im * pa
    scale = Fraction(series.den * d ** (len(series.num) - 1 + max(low, 0))
                     * (a * a + b * b) ** max(-low, 0), d ** max(-low, 0))
    r = abs(w)
    floats = series._numeric()[0]
    size = math.fsum(abs(c) * r ** j for j, c in enumerate(floats))
    gamma = float(_gamma(4 * (len(floats) + abs(low))))
    bound = (gamma * size + 2.0 ** -60 * abs(floats[0])) * r ** low * 1.001
    return re / scale, im / scale, bound


def _assert_within(series, got, w):
    re, im, bound = _exact_and_bound(series, w)
    err = (Fraction(got.real) - re) ** 2 + (Fraction(got.imag) - im) ** 2
    assert err <= Fraction(bound) ** 2, (series, got, w)


_CUT_IM = (0.5, 1.0, 2.3, 20.0)


@pytest.mark.parametrize("re", [0.0, -0.3, 0.45])
def test_cut_loop_meets_the_horner_bound_plus_the_cut(re):
    # Against the exact stored window, the loop that stops at the top cut is
    # within Higham's Horner bound plus 2^-60 of the leading term: the number
    # path at each point, the array path at each Im(tau) alone and at all of
    # them at once, where the cut is taken at the largest |nome|
    series = _stack_series()
    taus = np.array([complex(re, im) for im in _CUT_IM])
    for s in series:
        for tau in taus:
            _assert_within(s, s.eval(complex(tau)), s.nome.value_at(complex(tau)))
    for points in [taus[i:i + 1] for i in range(len(taus))] + [taus]:
        got = eval_stack(series, points)
        for row, s in zip(got, series):
            for value, w in zip(row, s.nome.value_at(points)):
                _assert_within(s, complex(value), complex(w))


def test_cut_keeps_every_coefficient_of_the_widest_series_at_eta_min():
    for s in (psi_i_qseries(), _b_minus_psi_i_q4(), _b_plus_psi_i_q4()):
        floats, _, step = s._numeric()
        assert s._top(abs(s.nome.value_at(1j * ETA_MIN))) == len(floats[::step])


def test_top_cut_measures_from_the_first_nonzero_term():
    # a table polynomial may start with zeros: its leading term is the first nonzero one
    assert top_cut([0.0, 0.0, 1.0, 2.0 ** -61, 2.0 ** -62]) == 3
    assert top_cut([1.0, 2.0 ** -59]) == 2
    assert top_cut([1.0, 2.0 ** -61, 2.0 ** -61]) == 1
    assert top_cut([0.0, 0.0]) == 1


def test_cut_is_memoised_per_rung():
    s = form_qseries(FormId.E4)
    s._tops.clear()
    tops = [s._top(abs(s.nome.value_at(1j * im))) for im in (1.0, 1.001, 1.002)]
    # |q| 0.0019 and its 0.6 % and 1.3 % smaller neighbours share the rung 2^-9
    assert tops == [tops[0]] * 3 and list(s._tops) == [-36]
    assert s._top(float("nan")) == len(s.num)


def test_kernels_stack_the_cut_widths(monkeypatch):
    # one S-weighted verdict on the default grid: the base pass stacks phi0 and
    # psi_s at its 200 points t < 1 and keeps 14 coefficients at most (50
    # uncut); the refinement pass's 582 points all lie above t = 1 and stack
    # none; the direct verdict's pass stacks 14 again.  Every pass's moment-term
    # Horner on t >= 1 is 26 coefficients wide (103 uncut)
    from spherepack import axis, cli
    widths, tops = [], []
    stack, top = axis.eval_stack, QSeries._top

    def counting_stack(series, tau):
        tops.clear()
        out = stack(series, tau)
        widths.append(max(tops))
        return out

    monkeypatch.setattr(axis, "eval_stack", counting_stack)
    monkeypatch.setattr(QSeries, "_top", lambda s, abs_max: tops.append(top(s, abs_max)) or tops[-1])
    config = cli.RunConfig()
    grid = axis.log_grid(config.axis_grid_lo, config.axis_grid_hi, config.axis_grid_n)
    axis.verify_inequalities(grid, axis.Eq2Convention.S_WEIGHTED)
    assert widths == [14]
    axis.verify_inequalities(grid, axis.Eq2Convention.DIRECT)
    assert widths == [14, 14]
    for _, rows in axis._CONVENTIONS.values():
        assert axis._upper_table(rows)[0].shape == (len(rows), 3, 26)
    rates = []
    for _, _, _, series, rate in axis._PARTS:
        s = series()
        rates += [rate * (s.lowest + k) for k, n in enumerate(s.num) if n]
    assert max(rates) - min(rates) + 1 == 103


def test_stack_hashes_no_enum_member(monkeypatch):
    # Enum.__hash__ is a Python-level method; eval_stack keys nothing on a nome
    from enum import Enum
    from spherepack import axis
    callers = []
    plain = Enum.__hash__

    def counting(member):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not eval_stack.__code__:
            frame = frame.f_back
        callers.append(frame is not None)
        return plain(member)

    rows, t = [axis.K_PLUS, axis.K_MINUS], np.geomspace(0.05, 20.0, 400)
    axis.kernels(rows, t)
    monkeypatch.setattr(Enum, "__hash__", counting)
    hash(Nome.Q2)
    assert callers == [False]
    axis.kernels(rows, t)
    eval_stack(_stack_series(), _STACK_POINTS["off axis"][0])
    assert True not in callers
