"""The quasimodular forms of the E8 certificate: exact series and identities.

Exact q-expansions for E2, E4, E6, the discriminant, the three Jacobi theta
constants, and the two weight-0 combinations that drive the magic function:

    phi0  = (E2*E4 - E6)^2 / Delta             (nome q2)
    psi_s = 128*((th01^4 - th10^4)/th00^8
                 - (th10^4 + th00^4)/th01^8)   (nome q4)

plus psi_i(z) = z^2 * psi_s(-1/z), the inversion companion of psi_s, which
is again a theta quotient and is the kernel the magic function's minus
eigenfunction integrates along the imaginary axis.

The classical identities the whole construction leans on (Ramanujan's
derivative identities, the Jacobi quartic identity, Delta as an eta
product) are checked here in exact arithmetic.  Evaluation on the positive
imaginary axis lives in ``spherepack.axis``.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache, partial, wraps

from .qseries import (
    DEFAULT_ORDER_Q2,
    DEFAULT_ORDER_Q4,
    Nome,
    QSeries,
    from_coefficients,
    one_series,
)

#: the weight 36/pi^2 that pairs psi_s (or psi_i) with phi0 in the axis combinations
WEIGHT36 = 36.0 / math.pi ** 2


class FormId(Enum):
    E2 = "E2"
    E4 = "E4"
    E6 = "E6"
    DELTA = "Delta"
    THETA00 = "Theta00"
    THETA01 = "Theta01"
    THETA10 = "Theta10"
    PHI0 = "Phi0"
    PSI_S = "PsiS"


# ---------------------------------------------------------------------------
# arithmetic helpers and generators
# ---------------------------------------------------------------------------

def _series_cache(build):
    """lru_cache keyed on the effective arguments, defaults filled in, so
    theta_qseries("00") and theta_qseries("00", 256) are one entry.  A
    positional call fills its defaults from a tuple made here; a keyword
    call, or one with too few or too many arguments, goes through
    ``Signature.bind``, which raises TypeError on the latter."""
    cached = lru_cache(maxsize=None)(build)
    signature = inspect.signature(build)
    params = signature.parameters.values()
    defaults = tuple(p.default for p in params)
    required = sum(p.default is p.empty for p in params)

    @wraps(build)
    def call(*args, **kwargs):
        if not kwargs and required <= len(args) <= len(defaults):
            return cached(*args, *defaults[len(args):])
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return cached(*bound.args)

    call.cache_info = cached.cache_info
    return call


def divisor_sum(n: int, k: int) -> int:
    """sigma_k(n), the sum of k-th powers of the divisors of n."""
    if n < 1:
        raise ValueError(f"divisor_sum needs n >= 1, got {n}")
    if k not in (1, 3, 5):
        raise ValueError(f"divisor_sum supports k in {{1, 3, 5}}, got {k}")
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d ** k
            e = n // d
            if e != d:
                total += e ** k
        d += 1
    return total


@_series_cache
def eisenstein_qseries(weight: int, order: int = DEFAULT_ORDER_Q2) -> QSeries:
    """E2, E4 or E6 as an exact q2-series with constant term 1."""
    if weight not in (2, 4, 6):
        raise ValueError(f"weight must be 2, 4 or 6, got {weight}")
    if order < 0:
        raise ValueError("order must be nonnegative")
    factor, k = {2: (-24, 1), 4: (240, 3), 6: (-504, 5)}[weight]
    return QSeries(Nome.Q2, [1] + [factor * divisor_sum(n, k) for n in range(1, order + 1)])


@_series_cache
def theta_qseries(kind: str, order: int = DEFAULT_ORDER_Q4) -> QSeries:
    """Jacobi theta constant in the common nome q4 = exp(pi*i*tau/4).

    theta00 = sum q4^(4n^2), theta01 = sum (-1)^n q4^(4n^2),
    theta10 = sum q4^((2n+1)^2); each n in Z contributes, so all
    coefficients away from the constant term are even.
    """
    if kind not in ("00", "01", "10"):
        raise ValueError(f"theta kind must be '00', '01' or '10', got {kind!r}")
    if order < 0:
        raise ValueError("order must be nonnegative")
    pairs: list[tuple[int, int]] = []
    n = 0
    while True:
        if kind in ("00", "01"):
            e = 4 * n * n
            if e > order:
                break
            c = -1 if (kind == "01" and n % 2) else 1
            pairs.append((e, c if n == 0 else 2 * c))
        else:
            e = (2 * n + 1) ** 2
            if e > order:
                break
            pairs.append((e, 2))
        n += 1
    if not pairs:
        pairs = [(0, 0)]
    return from_coefficients(Nome.Q4, pairs, order)


@_series_cache
def delta_qseries(order: int = DEFAULT_ORDER_Q2) -> QSeries:
    """The discriminant (E4^3 - E6^2)/1728; integer coefficients, q-coefficient 1."""
    if order < 1:
        raise ValueError("order must be at least 1")
    e4 = eisenstein_qseries(4, order)
    e6 = eisenstein_qseries(6, order)
    return (e4 ** 3 - e6 ** 2).scale(Fraction(1, 1728))


@_series_cache
def eta_product_qseries(order: int = DEFAULT_ORDER_Q2) -> QSeries:
    """q * prod_{n>=1} (1 - q^n)^24, expanded symbolically.

    Independent construction of the discriminant's expansion, used as the
    oracle against :func:`delta_qseries`; each factor from its binomials.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    prod = one_series(Nome.Q2, order - 1)
    for n in range(1, order):
        factor = [(n * k, (-1) ** k * math.comb(24, k)) for k in range(25) if n * k < order]
        prod = prod * from_coefficients(Nome.Q2, factor, order - 1)
    # shift by q
    return from_coefficients(
        Nome.Q2, [(k + 1, prod.coefficient(k)) for k in range(0, order)], order)


@_series_cache
def phi0_qseries(order: int = DEFAULT_ORDER_Q2) -> QSeries:
    """(E2*E4 - E6)^2 / Delta; leading term 518400*q."""
    if order < 2:
        raise ValueError("order must be at least 2")
    pad = order + 2  # division by Delta (simple zero) costs precision
    num = e2e4_minus_e6_qseries(pad)
    series = (num * num) / delta_qseries(pad)
    return series.truncate(order)


@_series_cache
def e2e4_minus_e6_qseries(order: int = DEFAULT_ORDER_Q2) -> QSeries:
    """E2*E4 - E6, the depth-1 weight-8 combination; leading term 720*q."""
    return (eisenstein_qseries(2, order) * eisenstein_qseries(4, order)
            - eisenstein_qseries(6, order))


@_series_cache
def phi0_anomaly_qseries(order: int = DEFAULT_ORDER_Q2) -> QSeries:
    """(E2*E4 - E6)*E4 / Delta, the linear anomaly term of phi0 under inversion."""
    pad = order + 2
    num = e2e4_minus_e6_qseries(pad) * eisenstein_qseries(4, pad)
    return (num / delta_qseries(pad)).truncate(order)


@_series_cache
def e4sq_over_delta_qseries(order: int = DEFAULT_ORDER_Q2) -> QSeries:
    """E4^2 / Delta; has a simple pole at the cusp (lowest exponent -1)."""
    pad = order + 2
    e4 = eisenstein_qseries(4, pad)
    return ((e4 * e4) / delta_qseries(pad)).truncate(order)


@_series_cache
def psi_s_qseries(order: int = DEFAULT_ORDER_Q4) -> QSeries:
    """128*((th01^4 - th10^4)/th00^8 - (th10^4 + th00^4)/th01^8) in nome q4.

    Constant term 0; leading term -10240*q4^4 = -10240*exp(pi*i*tau); the
    exponent support lies in 4Z (the series is invariant under
    tau -> tau + 2).
    """
    if order < 8:
        raise ValueError("order must be at least 8")
    t004 = theta_qseries("00", order) ** 4
    t014 = theta_qseries("01", order) ** 4
    t104 = theta_qseries("10", order) ** 4
    series = ((t014 - t104) / (t004 * t004) - (t104 + t004) / (t014 * t014)).scale(128)
    return series.truncate(order)


@_series_cache
def psi_i_qseries(order: int = DEFAULT_ORDER_Q4) -> QSeries:
    """The inversion companion psi_i(z) = z^2 * psi_s(-1/z) as a theta quotient.

    psi_i = 128*((th01^4 - th10^4)/th00^8 + (th00^4 + th01^4)/th10^8);
    it has a double pole at the cusp in exp(pi*i*tau) (lowest q4 exponent
    -8) and satisfies psi_i(z) - psi_i(z+1) = psi_s(z), the relation that
    closes the contour algebra for the minus eigenfunction.
    """
    if order < 8:
        raise ValueError("order must be at least 8")
    pad = order + 16  # division by th10^8 (zero of order 8) costs precision
    t004 = theta_qseries("00", pad) ** 4
    t014 = theta_qseries("01", pad) ** 4
    t104 = theta_qseries("10", pad) ** 4
    series = ((t014 - t104) / (t004 * t004) + (t004 + t014) / (t104 * t104)).scale(128)
    return series.truncate(order)


def _b_q4() -> QSeries:
    """The default-order E4^2/Delta (q2^50 = q4^400) in nome q4, cut at the
    default q4 order; kept only for the two series below."""
    return e4sq_over_delta_qseries().to_q4().truncate(DEFAULT_ORDER_Q4)


@lru_cache(maxsize=None)
def _b_minus_psi_i_q4() -> QSeries:
    """E4^2/Delta - psi_i in nome q4, whose double poles cancel exactly
    (constant term 360).  Kept only for the benchmark, whose series builds
    call it by name; ``axis`` cancels these poles in its moment terms."""
    return _b_q4() - psi_i_qseries()


@lru_cache(maxsize=None)
def _b_plus_psi_i_q4() -> QSeries:
    """E4^2/Delta + psi_i in nome q4; kept only for the benchmark, as
    ``_b_minus_psi_i_q4`` is."""
    return _b_q4() + psi_i_qseries()


#: builder of each named form; the builders cache on the effective order, so
#: form_qseries(FormId.THETA00) and theta_qseries("00", 256) share one entry
_FORM_BUILDERS = {
    FormId.E2: partial(eisenstein_qseries, 2),
    FormId.E4: partial(eisenstein_qseries, 4),
    FormId.E6: partial(eisenstein_qseries, 6),
    FormId.DELTA: delta_qseries,
    FormId.THETA00: partial(theta_qseries, "00"),
    FormId.THETA01: partial(theta_qseries, "01"),
    FormId.THETA10: partial(theta_qseries, "10"),
    FormId.PHI0: phi0_qseries,
    FormId.PSI_S: psi_s_qseries,
}


def form_qseries(form: FormId) -> QSeries:
    """Series for any named form at its nome's default order; the form's
    value at tau is ``form_qseries(form).eval(tau)``."""
    return _FORM_BUILDERS[form]()


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RamanujanReport:
    """Residual series of the three derivative identities (all should vanish)."""

    order: int
    residual_e2: QSeries   # D E2 - (E2^2 - E4)/12
    residual_e4: QSeries   # D E4 - (E2 E4 - E6)/3
    residual_e6: QSeries   # D E6 - (E2 E6 - E4^2)/2

    @property
    def all_zero(self) -> bool:
        return (self.residual_e2.is_zero() and self.residual_e4.is_zero()
                and self.residual_e6.is_zero())


def check_ramanujan(order: int = DEFAULT_ORDER_Q2) -> RamanujanReport:
    """Exact residuals of D E2 = (E2^2-E4)/12, D E4 = (E2 E4-E6)/3, D E6 = (E2 E6-E4^2)/2."""
    if order < 2:
        raise ValueError("order must be at least 2")
    e2 = eisenstein_qseries(2, order)
    e4 = eisenstein_qseries(4, order)
    e6 = eisenstein_qseries(6, order)
    r2 = e2.derivative() - (e2 * e2 - e4).scale(Fraction(1, 12))
    r4 = e4.derivative() - (e2 * e4 - e6).scale(Fraction(1, 3))
    r6 = e6.derivative() - (e2 * e6 - e4 * e4).scale(Fraction(1, 2))
    return RamanujanReport(order, r2, r4, r6)


@dataclass(frozen=True)
class JacobiReport:
    order: int
    residual: QSeries                      # th00^4 - th10^4 - th01^4, exact
    numeric_residuals: tuple[float, ...]   # |...| at the sample points

    @property
    def all_zero(self) -> bool:
        return self.residual.is_zero()


def check_jacobi(order: int = DEFAULT_ORDER_Q4,
                 samples: tuple[complex, ...] = ()) -> JacobiReport:
    """theta00^4 = theta10^4 + theta01^4, exactly in series and numerically at samples."""
    if order < 8:
        raise ValueError("order must be at least 8")
    res = (theta_qseries("00", order) ** 4 - theta_qseries("10", order) ** 4
           - theta_qseries("01", order) ** 4)
    thetas = (FormId.THETA00, FormId.THETA10, FormId.THETA01)
    numeric = []
    for tau in samples:
        t00, t10, t01 = (form_qseries(f).eval(tau) ** 4 for f in thetas)
        numeric.append(abs(t00 - t10 - t01))
    return JacobiReport(order, res, tuple(numeric))
