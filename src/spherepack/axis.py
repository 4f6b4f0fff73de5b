"""Imaginary-axis evaluation and the two-sided positivity inequalities.

The six axis kernels are plain functions kernel(t, v, upper[, sign]), and
``axis_table(t).branches(kernel, *sign)`` is the one way to evaluate them
over a flat array of t.  The table evaluates the kernels' seven series in
one stacked call (``qseries.eval_stack``) at every grid point, at i*t
where t >= 1 and at i/t where t < 1, so the series argument always has
Im >= 1.  It is the one realness check: on the axis every nome is real,
so a series value with a nonzero imaginary part raises NonRealValue, and
the kernels do plain float arithmetic.

``eq2_samples``/``verify_inequalities`` probe the pair of combinations
phi0 +- (36/pi^2) psi_s in two conventions:

* ``DIRECT``: the kernels are the literal axis restrictions phi0(it) and
  psi_s(it).  In this reading the plus combination is provably negative
  for small and large t (psi_s's exp(-pi t) leading term beats phi0's
  exp(-2 pi t)), so the convention fails and the report says so.

* ``S_WEIGHTED``: the kernels are the inversion-weighted pair that sits
  inside the collapsed integral representations of the magic function,

      phi0 slot:  (36/pi^2) * psi_i(it)     psi_s slot:  (pi^2/36) * t^2 phi0(i/t)

  The slot assignment follows the kernels' roles, which the inversion
  z -> -1/z swaps: the combinations then read
  (36/pi^2) psi_i(it) +- t^2 phi0(i/t), which are exactly the pointwise
  integrand-sign controls for g <= 0 beyond sqrt(2) (plus sign) and
  g_hat >= 0 (minus sign).  Both are strictly positive on the axis, and
  their positivity is what the certificate's grid checks consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from functools import partial
from typing import Sequence

import numpy as np

from .errors import NonRealValue
from .forms import (
    WEIGHT36,
    FormId,
    _b_minus_psi_i_q4,
    _b_plus_psi_i_q4,
    e4sq_over_delta_qseries,
    phi0_anomaly_qseries,
    phi0_qseries,
    psi_i_qseries,
    psi_s_qseries,
)
from .qseries import eval_stack

PI = math.pi


# ---------------------------------------------------------------------------
# the table and the axis kernels
#
# For t >= 1 the series converge comfortably at tau = i*t.  For t < 1 we
# move to tau = i/t via the inversion laws
#
#   phi0(it)  = phi0(i/t) - (12t/pi) A(i/t) + (36t^2/pi^2) B(i/t)
#   psi_s(it) = -t^2 psi_i(i/t)          psi_i(it) = -t^2 psi_s(i/t)
#
# with A = (E2 E4 - E6) E4/Delta and B = E4^2/Delta.  These follow from
# E2's quasimodular anomaly and the weight-2 theta transformation; the
# direct and transformed branches are cross-checked on the overlap
# t in [0.8, 1.25] by the test suite before anything downstream trusts
# them.
# ---------------------------------------------------------------------------

#: Below this the transformed series argument exp(-2*pi/t) underflows.
AXIS_T_MIN = 0.01


#: the seven series an axis table holds, one row each
_TABLE_SERIES = (phi0_qseries, phi0_anomaly_qseries, e4sq_over_delta_qseries,
                 psi_s_qseries, psi_i_qseries, _b_minus_psi_i_q4, _b_plus_psi_i_q4)
_ROW = {build: i for i, build in enumerate(_TABLE_SERIES)}


class AxisTable:
    """Series values on the two branches of one grid of t: at i*t where
    t >= 1 and at i/t where t < 1.  The one place that splits t by branch.

    The table evaluates its seven series (phi0, A, B, psi_s, psi_i,
    B - psi_i, B + psi_i) once, at every grid point, in one
    ``eval_stack`` call, and is the one realness check: a value with a
    nonzero imaginary part, which no real nome can give, raises
    NonRealValue.  ``values(build, upper)`` looks up build()'s row on one
    branch.  A table lives for one pass over one grid; nothing outlives it.
    """

    def __init__(self, t: np.ndarray):
        self.t = t
        self.upper = t >= 1.0
        # the upper branch's points first, so that each branch is a slice
        split = int(self.upper.sum())
        val = eval_stack([build() for build in _TABLE_SERIES],
                         1j * np.concatenate([t[self.upper], 1.0 / t[~self.upper]]))
        bad = val.imag != 0
        if bad.any():
            row = int(np.argmax(bad.any(axis=1)))
            raise NonRealValue(f"{_TABLE_SERIES[row].__name__} is not real on the "
                               f"axis: {val[row][bad[row]][0]}")
        self._values = {True: val.real[:, :split], False: val.real[:, split:]}

    def values(self, build, upper: bool) -> np.ndarray:
        """The branch's values of build(), one of the table's series, as a
        float array."""
        return self._values[upper][_ROW[build]]

    def branches(self, kernel, *sign) -> np.ndarray:
        """kernel(t, v, upper, *sign) on each branch's part of the grid, as one
        float array; v(build) gives the branch's values of build()."""
        val = np.empty(self.t.shape)
        for upper, where in ((True, self.upper), (False, ~self.upper)):
            val[where] = kernel(self.t[where], partial(self.values, upper=upper), upper, *sign)
        return val


def axis_table(t) -> AxisTable:
    """The table of a flat grid of t in [AXIS_T_MIN, 1/AXIS_T_MIN]
    (ValueError otherwise, NaN included)."""
    t = np.asarray(t, dtype=float)
    inside = (t >= AXIS_T_MIN) & (t <= 1.0 / AXIS_T_MIN)
    if not inside.all():
        bad = t[np.argmin(inside)]
        need = "t > 0" if not bad > 0 else f"t in [{AXIS_T_MIN}, {1 / AXIS_T_MIN}]"
        raise ValueError(f"axis evaluation needs {need}, got {bad}")
    return AxisTable(t)


def eval_phi0_axis(t, v, upper):
    """phi0 on the positive imaginary axis; positive for all t."""
    if upper:
        return v(phi0_qseries)
    return (v(phi0_qseries)
            - (12.0 * t / PI) * v(phi0_anomaly_qseries)
            + (36.0 * t * t / PI ** 2) * v(e4sq_over_delta_qseries))


def eval_psi_s_axis(t, v, upper):
    """psi_s on the positive imaginary axis; negative for all t."""
    return v(psi_s_qseries) if upper else -(t * t) * v(psi_i_qseries)


def eval_psi_i_axis(t, v, upper):
    """psi_i on the positive imaginary axis; positive, grows like exp(2*pi*t)."""
    return v(psi_i_qseries) if upper else -(t * t) * v(psi_s_qseries)


def phi0_weighted_kernel(t, v, upper):
    """t^2 * phi0(i/t): the plus-eigenfunction's axis kernel.

    For t >= 1 the inversion law is substituted so no exp(2*pi*t)-sized
    cancellation occurs; for t < 1 the series at i/t converges directly.
    """
    if not upper:
        return (t * t) * v(phi0_qseries)
    return ((t * t) * v(phi0_qseries)
            - (12.0 * t / PI) * v(phi0_anomaly_qseries)
            + WEIGHT36 * v(e4sq_over_delta_qseries))


def axis_combo_direct(t, v, upper, sign):
    """phi0(it) + sign*(36/pi^2)*psi_s(it), evaluated without cancellation.

    For t < 1 both terms blow up like t^2 exp(2*pi/t); the blowing-up
    parts are B = E4^2/Delta and -psi_i, so the combination is evaluated
    through the exact series B - sign*psi_i whose poles cancel (sign=+1)
    or add benignly (sign=-1).
    """
    if upper:
        return v(phi0_qseries) + sign * WEIGHT36 * v(psi_s_qseries)
    combo = _b_minus_psi_i_q4 if sign > 0 else _b_plus_psi_i_q4
    return (v(phi0_qseries)
            - (12.0 * t / PI) * v(phi0_anomaly_qseries)
            + (36.0 * t * t / PI ** 2) * v(combo))


def axis_combo_weighted(t, v, upper, sign):
    """(36/pi^2)*psi_i(it) + sign*t^2*phi0(i/t), evaluated without cancellation.

    These are the two pointwise integrand-sign controls of the magic
    function beyond sqrt(2): the plus combination controls the sign of g,
    the minus combination the sign of g-hat.  For t >= 1 the exp(2*pi*t)
    parts of the two kernels coincide and are combined through the exact
    series psi_i - B before evaluation.
    """
    if not upper:
        return WEIGHT36 * (-(t * t) * v(psi_s_qseries)) + sign * ((t * t) * v(phi0_qseries))
    # W = 36/pi^2, PHI = t^2 phi0(i/t): W*psi_i + PHI = W*(B + psi_i) + [PHI - W*B] and
    # W*psi_i - PHI = -W*(B - psi_i) - [PHI - W*B], with the cusp-regular bracket
    # PHI - W*B = t^2 phi0(it) - (12t/pi) A(it): the exp(2*pi*t) parts never cancel in floats.
    combo = _b_plus_psi_i_q4 if sign > 0 else _b_minus_psi_i_q4
    return sign * (WEIGHT36 * v(combo) + (t * t) * v(phi0_qseries)
                   - (12.0 * t / PI) * v(phi0_anomaly_qseries))


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
    """max |Im F(it)| / |F(it)| over a positive grid, for F = PHI0 or PSI_S:
    0 whenever it returns, since the grid's ``AxisTable`` refuses every
    series value that is not real.  Any other form is a ValueError.  Kept
    for ``axis check`` and the benchmark, which call it."""
    if not (np.asarray(grid, dtype=float) > 0).all():
        raise ValueError("realness grid must be positive")
    if form not in (FormId.PHI0, FormId.PSI_S):
        raise ValueError(f"realness is checked for Phi0 and PsiS, not {form.value}")
    axis_table(grid)
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


#: per convention: phi0-slot kernel, psi_s-slot kernel, the combination, phi0-slot weight
_CONVENTIONS = {
    Eq2Convention.DIRECT: (eval_phi0_axis, eval_psi_s_axis, axis_combo_direct, 1.0),
    Eq2Convention.S_WEIGHTED: (eval_psi_i_axis, phi0_weighted_kernel, axis_combo_weighted,
                               WEIGHT36),
}


def eq2_samples(grid: Sequence[float], convention: Eq2Convention) -> AxisSamples:
    """Kernel pairs and combinations over the whole grid.

    The combinations are computed through cancellation-free series (the
    exp(2 pi t)-sized parts combined exactly), so the samples remain
    meaningful where naive subtraction would lose all precision.  The four
    arrays read one ``AxisTable``, so the seven series are evaluated in one
    stacked call over the whole grid.  A t <= 0 or NaN raises ValueError.
    """
    t = np.asarray(grid, dtype=float)
    first, second, combo, w = _CONVENTIONS[convention]
    table = axis_table(t)
    return AxisSamples(t=t, phi0=w * table.branches(first),
                       psi_s=(1.0 / w) * table.branches(second),
                       combo_plus=table.branches(combo, 1), combo_minus=table.branches(combo, -1))


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
    extra = extra[(pts[0] <= extra) & (extra <= pts[-1])]
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
