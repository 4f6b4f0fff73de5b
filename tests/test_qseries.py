"""Series arithmetic: ring laws, truncation bookkeeping, evaluation guards."""

import math
from fractions import Fraction

import numpy as np
import pytest

from spherepack.errors import DomainTooLow, NomeMismatch, TruncationInsufficient, ZeroDivisionSeries
from spherepack.forms import FormId, form_qseries, psi_i_qseries
from spherepack.qseries import Nome, QSeries, from_coefficients, monomial, one_series, zero_series


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
    num = monomial(Nome.Q2, 2, 10)           # q^2
    den = from_coefficients(Nome.Q2, [(1, 1), (2, 1)], 10)  # q + q^2
    quot = num / den
    assert quot.leading_exponent() == 1
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
        one_series(Nome.Q2, 5) / zero_series(Nome.Q2, 5)


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
    q = monomial(Nome.Q2, 1, 5)
    assert q.derivative() == q
    # In nome Q4 the exponent k scales by k/8 (q4^8 = q2)
    f = monomial(Nome.Q4, 4, 8)
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
        f.eval(0.0 + 0.5j, tol=1e-12)


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


def test_scalar_eval_returns_python_complex():
    series = form_qseries(FormId.PSI_S)
    assert type(series.eval(0.1 + 1.3j)) is complex
    assert type(series.eval(np.complex128(0.1 + 1.3j))) is complex


def test_array_eval_raises_the_scalar_errors():
    taus = np.array([0.0 + 1.0j, 0.2 + 0.3j])
    with pytest.raises(DomainTooLow):
        geometric(60).eval(taus)
    with pytest.raises(DomainTooLow):
        geometric(60).eval(complex(taus[1]))
    f = from_coefficients(Nome.Q2, [(0, 1), (3, 10 ** 9)], 3)
    taus = np.array([0.0 + 3.0j, 0.0 + 0.5j])
    with pytest.raises(TruncationInsufficient):
        f.eval(taus, tol=1e-12)
    with pytest.raises(TruncationInsufficient):
        f.eval(complex(taus[1]), tol=1e-12)
    with pytest.raises(DomainTooLow):
        geometric(60).eval(np.array([1j, complex(0.0, math.nan)]))
