"""The axis kernels and the two-sided positivity inequalities.

With W = 36/pi^2, the Laplace sweep of ``spherepack.magic`` integrates one
row fa Kphi + fb Kpsi per radial profile, where Kphi(t) = t^2 phi0(i/t)
and Kpsi(t) = t^2 psi_s(i/t) = -psi_i(it).  ``kernels(rows, t)`` is the one
evaluation of such rows over a flat array of t, for the sweep's [0, 1]
nodes and for the verdicts here alike.  On each side of t = 1 the rows are
one real table of terms c t^m x^j, x = e^{-pi/t} below it and e^{-pi t}
above it, so x <= e^{-pi} on both, read by one Horner loop in x.  One
builder, ``_table``, adds each table up from its parts: ``_LOWER``, the
series phi0 and psi_s at i/t, and ``_PARTS``, the inversion laws' parts,
whose terms the sweep integrates too and in which the e^{2 pi t} parts of
K- cancel exactly.  On the axis every nome is real, and the entry runs in
real arithmetic only.

``eq2_samples``/``verify_inequalities`` probe phi0 +- W psi_s in two
conventions, each four rows of the entry:

* ``DIRECT``: phi0(it) = t^2 Kphi(1/t) and psi_s(it) = t^2 Kpsi(1/t).  The
  minus combination is t^2 K+(1/t) and the plus one -t^2 K-(1/t), negative
  wherever g_hat's kernel is positive, so the convention fails and the
  report says so.

* ``S_WEIGHTED``: W psi_i(it) = -W Kpsi(t) and t^2 phi0(i/t) / W, whose
  combinations W psi_i(it) +- t^2 phi0(i/t) are K+ = Kphi - W Kpsi and
  K- = -Kphi - W Kpsi, the kernels of g and g_hat (``magic._PROFILES``):
  the pointwise integrand-sign controls for g <= 0 beyond sqrt(2) and
  g_hat >= 0.  Both are strictly positive on the axis, and their
  positivity is what the certificate's grid checks consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .forms import (
    WEIGHT36,
    FormId,
    e4sq_over_delta_qseries,
    phi0_anomaly_qseries,
    phi0_qseries,
    psi_i_qseries,
    psi_s_qseries,
)
from .qseries import top_cut

PI = math.pi

#: the verdicts' smallest t: below it phi0(i/t) and psi_s(i/t) underflow
AXIS_T_MIN = 0.01

#: the axis kernels as (fa, fb) rows of fa Kphi + fb Kpsi
KPHI, KPSI = (1.0, 0.0), (0.0, 1.0)
#: K+ = W psi_i(it) + t^2 phi0(i/t) and K- = W psi_i(it) - t^2 phi0(i/t): g's and g_hat's kernels
K_PLUS, K_MINUS = (1.0, -WEIGHT36), (-1.0, -WEIGHT36)


# ---------------------------------------------------------------------------
# the kernels' expansions on each side of t = 1
# ---------------------------------------------------------------------------

#: the kernels' parts as (kernel, moment order m, factor, series, rate): kernel
#: 0 (Kphi) or 1 (Kpsi) sums factor t^m F over its parts, F = series(), whose
#: term in nome**k is one in x**j, j = rate k.  Below t = 1, F is read at i/t and
#: x = e^{-pi/t}: Kphi = t^2 phi0(i/t) in q2 and Kpsi = t^2 psi_s(i/t) in q4.
_LOWER = (
    (0, 2, 1.0, phi0_qseries, Fraction(2)),
    (1, 2, 1.0, psi_s_qseries, Fraction(1, 4)),
)

#: Above it, F at it and x = e^{-pi t}: the inversion laws (Viazovska, Props. 6
#: and 8), Kphi = t^2 phi0 - (12t/pi) A + (36/pi^2) B, A = (E2 E4 - E6) E4/Delta
#: and B = E4^2/Delta in q2, and Kpsi = -psi_i in q4, checked on [0.8, 1.25].
_PARTS = (
    (0, 2, 1.0, phi0_qseries, Fraction(2)),
    (0, 1, -12.0 / PI, phi0_anomaly_qseries, Fraction(2)),
    (0, 0, 36.0 / PI ** 2, e4sq_over_delta_qseries, Fraction(2)),
    (1, 0, -1.0, psi_i_qseries, Fraction(1, 4)),
)


@lru_cache(maxsize=16)
def _table(parts, rows: tuple[tuple[float, float], ...]) -> tuple[np.ndarray, tuple, int]:
    """The rows' one expansion from ``parts``: a read-only (len(rows),
    len(orders), width) float table, the moment orders m the parts use,
    rising, and the lowest rate j0.  [i, n, j - j0] holds row i's
    coefficient of t^m x^j, m = orders[n]: fa or fb times factor times each
    float term of the parts, in their order, so the e^{2 pi t} parts of K-
    cancel exactly.  A term off the integer rates is a RuntimeError, a
    complex one a TypeError, and a part whose ``tail_estimate`` at its nome
    at t = 1 exceeds ``EVAL_TOL`` TruncationInsufficient, for every t on its
    side.  Each P_m keeps the fewest coefficients whose dropped terms sum at
    x = e^{-pi} to at most 2^-60 of its leading one, the widest P_m's count
    for all: ``qseries.top_cut``, whose proof covers every x <= e^{-pi} and
    the moments that ``magic`` reads off the columns j >= 1 of ``_PARTS``'.
    """
    terms = []
    for kernel, m, factor, series, rate in parts:
        s = series()
        nome = math.exp(-PI * rate)
        s._check(1.0, nome, nome)
        held = np.flatnonzero([n != 0 for n in s.num])
        j, off = np.divmod((s.lowest + held) * rate.numerator, rate.denominator)
        if off.any():
            raise RuntimeError(f"{series.__name__} has an exponent off {rate.denominator}Z")
        terms.append((kernel, m, j, factor * np.array(s._numeric()[0])[held]))
    orders = tuple(sorted({m for _, m, _, _ in terms}))
    lo = min(j.min() for _, _, j, _ in terms)
    poly = np.zeros((len(rows), len(orders), max(j.max() for _, _, j, _ in terms) - lo + 1))
    for kernel, m, j, c in terms:
        poly[:, orders.index(m), j - lo] += np.array([row[kernel] for row in rows])[:, None] * c
    first = int(np.argmax(poly.any(axis=(0, 1))))
    poly = poly[:, :, first:]
    size = (np.abs(poly) * np.exp(-PI * np.arange(poly.shape[2]))).reshape(-1, poly.shape[2])
    table = poly[:, :, :max(map(top_cut, size.tolist()), default=1)].copy()
    table.flags.writeable = False
    return table, orders, int(lo + first)


# ---------------------------------------------------------------------------
# the one kernel entry
# ---------------------------------------------------------------------------

def _checked_t(t, lo: float) -> np.ndarray:
    """t as a flat float array; ValueError unless every t is positive and in
    [lo, 1/AXIS_T_MIN] (NaN is not)."""
    t = np.asarray(t, dtype=float).ravel()
    inside = (t > 0.0) & (t >= lo) & (t <= 1.0 / AXIS_T_MIN)
    if not inside.all():
        raise ValueError(f"axis evaluation needs 0 < t in [{lo}, {1 / AXIS_T_MIN}], "
                         f"got {t[np.argmin(inside)]}")
    return t


def _side(parts, rows, t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The rows at t from one stacked Horner loop in x over ``_table(parts,
    rows)``, whose top cut holds for x <= e^{-pi}, a (len(rows) len(orders), 1)
    column per power of x, then the sum of t^m times each P_m, times x**j0."""
    table, orders, low = _table(parts, rows)
    columns = table.reshape(-1, table.shape[2]).T[:, :, None]
    acc = np.repeat(columns[-1], t.size, axis=1)
    for c in columns[-2::-1]:
        acc *= x
        acc += c
    by_order = acc.reshape(len(rows), len(orders), t.size).swapaxes(0, 1)
    return sum(t ** m * p for m, p in zip(orders, by_order)) * x ** low


def kernels(rows: Sequence[tuple[float, float]], t) -> np.ndarray:
    """(len(rows), t.size): row (fa, fb) is fa Kphi + fb Kpsi at each t in
    (0, 1/AXIS_T_MIN] (ValueError otherwise, NaN included), from ``_side`` of
    ``_LOWER`` at x = e^{-pi/t} where t < 1 and of ``_PARTS`` at x = e^{-pi t}
    where t >= 1."""
    t = _checked_t(t, 0.0)
    rows = tuple((float(fa), float(fb)) for fa, fb in rows)
    out = np.empty((len(rows), t.size))
    for where, parts, exponent in ((t < 1.0, _LOWER, -PI / t), (t >= 1.0, _PARTS, -PI * t)):
        if where.any():
            out[:, where] = _side(parts, rows, t[where], np.exp(exponent[where]))
    return out


# ---------------------------------------------------------------------------
# the two conventions and their inequality reports
# ---------------------------------------------------------------------------

class Eq2Convention(Enum):
    DIRECT = "direct"
    S_WEIGHTED = "sweighted"


def log_grid(lo: float, hi: float, n: int) -> tuple[float, ...]:
    """n logarithmically spaced points on [lo, hi]; ``cli.RunConfig`` holds
    the default axis grid's lo, hi and n."""
    if not (0 < lo < hi) or n < 2:
        raise ValueError("need 0 < lo < hi and n >= 2")
    ratio = hi / lo
    return tuple(lo * ratio ** (j / (n - 1)) for j in range(n))


def check_realness(form: FormId, grid: Sequence[float]) -> float:
    """max |Im F(it)| / |F(it)| over a grid in [AXIS_T_MIN, 1/AXIS_T_MIN],
    for F = PHI0 or PSI_S: 0 whenever it returns, as ``kernels`` is real.  It
    reads F(it) = t^2 K(1/t) for F's kernel row K.  A grid outside that range,
    or any other form, is a ValueError.  Kept only for the benchmark."""
    t = _checked_t(grid, AXIS_T_MIN)
    if form not in (FormId.PHI0, FormId.PSI_S):
        raise ValueError(f"realness is checked for Phi0 and PsiS, not {form.value}")
    kernels((KPHI if form is FormId.PHI0 else KPSI,), 1.0 / t)
    return 0.0


@dataclass(frozen=True, eq=False)
class AxisSamples:
    """The grid, the two kernels and their weighted sum and difference, as arrays."""

    t: np.ndarray
    phi0: np.ndarray
    psi_s: np.ndarray
    combo_plus: np.ndarray    # phi0 + (36/pi^2) psi_s
    combo_minus: np.ndarray   # phi0 - (36/pi^2) psi_s

    def margins(self) -> tuple[np.ndarray, np.ndarray]:
        """Both combinations over max(|kernels|): scale-free sign margins."""
        scale = np.maximum(np.maximum(np.abs(self.phi0), WEIGHT36 * np.abs(self.psi_s)), 1e-300)
        return self.combo_plus / scale, self.combo_minus / scale

    def concat(self, other: "AxisSamples") -> "AxisSamples":
        return AxisSamples(*map(np.concatenate, zip(vars(self).values(), vars(other).values())))


#: per convention: whether the rows are read as t^2 times their value at 1/t,
#: and the ``kernels`` rows of AxisSamples' phi0, psi_s, combo_plus and combo_minus
_CONVENTIONS = {
    # phi0(it) = t^2 Kphi(1/t) and psi_s(it) = t^2 Kpsi(1/t)
    Eq2Convention.DIRECT: (True, (KPHI, KPSI, (1.0, WEIGHT36), K_PLUS)),
    # W psi_i(it) = -W Kpsi(t) and t^2 phi0(i/t) / W = Kphi(t) / W
    Eq2Convention.S_WEIGHTED: (False, ((0.0, -WEIGHT36), (1.0 / WEIGHT36, 0.0), K_PLUS, K_MINUS)),
}


def eq2_samples(grid: Sequence[float], convention: Eq2Convention) -> AxisSamples:
    """Kernel pairs and combinations over the whole grid, from one ``kernels``
    call: the exp(2 pi t)-sized parts of the combinations cancel exactly in
    their moment terms, so the samples remain meaningful where naive
    subtraction would lose all precision.  A t outside [AXIS_T_MIN,
    1/AXIS_T_MIN] raises ValueError, NaN included.
    """
    t = _checked_t(grid, AXIS_T_MIN)
    inverted, rows = _CONVENTIONS[convention]
    values = (t * t) * kernels(rows, 1.0 / t) if inverted else kernels(rows, t)
    return AxisSamples(t, *values)


@dataclass(frozen=True)
class InequalityReport:
    convention: Eq2Convention
    grid_size: int
    min_plus: float
    argmin_plus: float
    min_minus: float
    argmin_minus: float
    min_margin_plus: float    # combo / max(|kernels|), scale-free sign margin
    min_margin_minus: float
    refined: bool
    pass_: bool

    def as_dict(self) -> dict:
        return ({f.name.rstrip("_"): getattr(self, f.name) for f in fields(self)}
                | {"convention": self.convention.value})


def verify_inequalities(grid: Sequence[float], convention: Eq2Convention) -> InequalityReport:
    """Positivity of both combinations over the grid, with local refinement.

    A refinement pass (4x density) is run around any sample whose smaller
    normalized margin lies in [0, 1e-3), to make sure a thin sign dip is
    not straddled by the grid; a negative margin has already failed.
    pass is true iff both combinations are strictly positive everywhere.
    """
    pts = np.asarray(grid, dtype=float)
    if not pts.size:
        raise ValueError("grid must not be empty")
    samples = eq2_samples(pts, convention)
    plus, minus = samples.margins()
    low = np.minimum(plus, minus)
    near = samples.t[(0.0 <= low) & (low < 1e-3)]
    extra = np.outer(near, [0.99, 0.995, 1.005, 1.01]).ravel()
    extra = extra[(pts.min() <= extra) & (extra <= pts.max())]
    if extra.size:
        samples = samples.concat(eq2_samples(extra, convention))
        plus, minus = samples.margins()
    # first-index argmin: ties resolve to the earliest sample, as min() does
    ip, im = int(np.argmin(samples.combo_plus)), int(np.argmin(samples.combo_minus))
    min_plus, min_minus = float(samples.combo_plus[ip]), float(samples.combo_minus[im])
    return InequalityReport(
        convention=convention, grid_size=samples.t.size,
        min_plus=min_plus, argmin_plus=float(samples.t[ip]),
        min_minus=min_minus, argmin_minus=float(samples.t[im]),
        min_margin_plus=float(plus.min()), min_margin_minus=float(minus.min()),
        refined=bool(extra.size), pass_=min_plus > 0.0 and min_minus > 0.0)
