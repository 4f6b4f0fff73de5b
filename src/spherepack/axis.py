"""The axis kernels and the two-sided positivity inequalities.

With W = 36/pi^2, the Laplace sweep of ``spherepack.magic`` integrates one
row fa Kphi + fb Kpsi per radial profile, where Kphi(t) = t^2 phi0(i/t)
and Kpsi(t) = t^2 psi_s(i/t) = -psi_i(it).  ``kernels(rows, t)`` is the one
evaluation of such rows over a flat array of t, for the sweep's [0, 1]
nodes and for the verdicts here alike.  Where t < 1 it is one stacked
series evaluation of phi0 and psi_s at i/t (Im > 1), and the one realness
check: on the axis every nome is real, so a series value with a nonzero
imaginary part raises NonRealValue.  Where t >= 1 it sums ``_upper_table``,
the rows' one expansion there, whose terms c t^m e^{-pi j t} the sweep
integrates too, and in which the e^{2 pi t} parts of K- cancel exactly.

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
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import NonRealValue
from .forms import (
    WEIGHT36,
    FormId,
    e4sq_over_delta_qseries,
    form_qseries,
    phi0_anomaly_qseries,
    phi0_qseries,
    psi_i_qseries,
)
from .qseries import eval_stack, top_cut

PI = math.pi

#: the verdicts' smallest t: below it phi0(i/t) and psi_s(i/t) underflow
AXIS_T_MIN = 0.01

#: the axis kernels as (fa, fb) rows of fa Kphi + fb Kpsi
KPHI, KPSI = (1.0, 0.0), (0.0, 1.0)
#: K+ = W psi_i(it) + t^2 phi0(i/t) and K- = W psi_i(it) - t^2 phi0(i/t): g's and g_hat's kernels
K_PLUS, K_MINUS = (1.0, -WEIGHT36), (-1.0, -WEIGHT36)


# ---------------------------------------------------------------------------
# the kernels' expansion on [1, inf)
# ---------------------------------------------------------------------------

def _float_pairs(series):
    # the series' own floats: n / den is correctly rounded, as float(Fraction) is
    floats = series._numeric()[0]
    return [(series.lowest + j, c) for j, (n, c) in enumerate(zip(series.num, floats)) if n]


@lru_cache(maxsize=2)
def _moment_terms(form: FormId) -> tuple[tuple[int, float, float], ...]:
    """(moment order m, rate offset, coefficient) of t^2 F(i/t) expanded on [1, inf).

    phi0: t^2 phi0(i/t) = t^2 phi0(it) - (12t/pi) A(it) + (36/pi^2) B(it)
    there, with A = (E2 E4 - E6) E4/Delta and B = E4^2/Delta, all in
    exp(-2 pi n t).  psi_s: t^2 psi_s(i/t) = -psi_i(it), in exp(-pi k t).
    The tests check these inversion laws on t in [0.8, 1.25].
    """
    if form is FormId.PHI0:
        parts = ((2, 1.0, phi0_qseries()), (1, -12.0 / PI, phi0_anomaly_qseries()),
                 (0, 36.0 / PI ** 2, e4sq_over_delta_qseries()))
        return tuple((m, 2.0 * PI * n, f * c)
                     for m, f, series in parts for n, c in _float_pairs(series))
    pairs = _float_pairs(psi_i_qseries())
    if any(k % 4 for k, _ in pairs):
        raise RuntimeError("psi_i support must lie in 4Z")
    return tuple((0, PI * (k // 4), -c) for k, c in pairs)


def _combine(fa: float, terms_a, fb: float, terms_b) -> tuple[tuple[int, float, float], ...]:
    """The terms of fa*A + fb*B, merged on (moment order, rate offset); exact
    cancellations (the e^{2 pi t} terms of K-) are dropped."""
    merged: dict[tuple[int, float], float] = {}
    for f, terms in ((fa, terms_a), (fb, terms_b)):
        for m, offset, c in terms:
            merged[m, offset] = merged.get((m, offset), 0.0) + f * c
    return tuple((m, offset, c) for (m, offset), c in merged.items() if c != 0.0)


@lru_cache(maxsize=8)
def _upper_table(rows: tuple[tuple[float, float], ...]) -> tuple[np.ndarray, int]:
    """The rows' one expansion on [1, inf): a read-only (width, 3 len(rows), 1)
    table and the lowest rate index j0.  Row i, (fa, fb), is
    q^j0 sum_m t^m P_m(q) in q = e^{-pi t}, where P_m's coefficient of
    q^(j - j0), at [j - j0, 3 i + m], is c of the row's ``_combine`` term
    c t^m e^{-pi j t}.  Each P_m needs the fewest coefficients whose dropped
    terms sum at t = 1 to at most 2^-60 of its leading one; the table keeps
    the widest P_m's count for all.  ``qseries.top_cut`` is that cut and its
    proof, for every t >= 1 and for the moments that ``magic`` reads off the
    columns j >= 1.
    """
    phi, psi = _moment_terms(FormId.PHI0), _moment_terms(FormId.PSI_S)
    terms = [(i, m, round(offset / PI), c) for i, (fa, fb) in enumerate(rows)
             for m, offset, c in _combine(fa, phi, fb, psi)]
    low = min(j for _, _, j, _ in terms)
    poly = np.zeros((len(rows), 3, max(j for _, _, j, _ in terms) - low + 1))
    for i, m, j, c in terms:
        poly[i, m, j - low] = c
    poly = poly.reshape(3 * len(rows), -1)
    size = np.abs(poly) * np.exp(-PI * np.arange(poly.shape[1]))
    table = poly[:, :max(map(top_cut, size.tolist()))].T[:, :, None]
    table.flags.writeable = False
    return table, low


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


def _below_one(rows, t: np.ndarray) -> np.ndarray:
    """The rows at t from one ``eval_stack`` call of phi0 and psi_s at i/t,
    which needs Im(i/t) >= ETA_MIN; a value with a nonzero imaginary part
    raises NonRealValue."""
    forms = (FormId.PHI0, FormId.PSI_S)
    val = eval_stack([form_qseries(form) for form in forms], 1j / t)
    if np.iscomplexobj(val) and (bad := val.imag != 0).any():
        row = int(np.argmax(bad.any(axis=1)))
        raise NonRealValue(f"{forms[row].value} is not real on the axis: {val[row][bad[row]][0]}")
    kphi, kpsi = (t * t) * val.real
    return np.array([fa * kphi + fb * kpsi for fa, fb in rows])


def _above_one(rows, t: np.ndarray) -> np.ndarray:
    """The rows at t from one stacked Horner loop over ``_upper_table``,
    whose top cut holds for t >= 1."""
    table, low = _upper_table(tuple(rows))
    q = np.exp(-PI * t)
    acc = np.empty((table.shape[1], t.size))
    acc[...] = table[-1]
    for c in table[-2::-1]:
        acc *= q
        acc += c
    by_order = acc.reshape(len(rows), 3, t.size)
    return (by_order[:, 0] + t * by_order[:, 1] + (t * t) * by_order[:, 2]) * q ** low


def kernels(rows: Sequence[tuple[float, float]], t) -> np.ndarray:
    """(len(rows), t.size): row (fa, fb) is fa Kphi + fb Kpsi at each t in
    (0, 1/AXIS_T_MIN] (ValueError otherwise, NaN included), through
    ``_below_one`` where t < 1 and ``_above_one`` where t >= 1."""
    t = _checked_t(t, 0.0)
    out = np.empty((len(rows), t.size))
    upper = t >= 1.0
    for where, branch in ((~upper, _below_one), (upper, _above_one)):
        if where.any():
            out[:, where] = branch(rows, t[where])
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
    for F = PHI0 or PSI_S: 0 whenever it returns, since ``kernels`` refuses
    every series value that is not real.  It reads F(it) = t^2 K(1/t) for
    F's kernel row K.  A grid outside that range, or any other form, is a
    ValueError.  Kept only for the benchmark, its one caller."""
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
