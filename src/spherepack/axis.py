"""Imaginary-axis restrictions and the two-sided positivity inequalities.

Every function takes a grid of t as one array and evaluates each series
once per branch (t >= 1, t < 1), never per point.  ``res_to_imag_axis``
restricts any named form to t -> F(i*t), returning exactly 0 for t <= 0.

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

from .forms import (
    COMBO_DIRECT,
    COMBO_WEIGHTED,
    WEIGHT36,
    AxisTable,
    FormId,
    axis_table,
    eval_phi0_axis,
    eval_psi_i_axis,
    eval_psi_s_axis,
    form_qseries,
    phi0_weighted_kernel,
)

PI = math.pi


class Eq2Convention(Enum):
    DIRECT = "direct"
    S_WEIGHTED = "sweighted"


def log_grid(lo: float = 0.05, hi: float = 20.0, n: int = 400) -> tuple[float, ...]:
    """n logarithmically spaced points on [lo, hi]."""
    if not (0 < lo < hi) or n < 2:
        raise ValueError("need 0 < lo < hi and n >= 2")
    ratio = hi / lo
    return tuple(lo * ratio ** (j / (n - 1)) for j in range(n))


def _inversion(sign: float, weight: float, partner: FormId, anomaly: float = 0.0):
    """F(it) = sign * u^weight * partner(iu) + anomaly * u / pi for t < 1, u = 1/t."""
    build = partial(form_qseries, partner)
    return lambda t, v: sign * (1.0 / t) ** weight * v(build) + anomaly * (1.0 / t) / PI


#: each form's t < 1 branch: its inversion law (E2's anomaly is its quasimodular term);
#: PHI0 and PSI_S, whose laws need more than one series, use their forms evaluators
_SMALL_T = {
    FormId.E2: _inversion(-1.0, 2, FormId.E2, 6.0),
    FormId.E4: _inversion(1.0, 4, FormId.E4),
    FormId.E6: _inversion(-1.0, 6, FormId.E6),
    FormId.DELTA: _inversion(1.0, 12, FormId.DELTA),
    FormId.THETA00: _inversion(1.0, 0.5, FormId.THETA00),
    FormId.THETA01: _inversion(1.0, 0.5, FormId.THETA10),
    FormId.THETA10: _inversion(1.0, 0.5, FormId.THETA01),
    FormId.PHI0: lambda t, v: eval_phi0_axis(t),
    FormId.PSI_S: lambda t, v: eval_psi_s_axis(t),
}


def res_to_imag_axis(form: FormId, t: float | np.ndarray) -> complex | np.ndarray:
    """F(i*t) for t > 0 and exactly 0 otherwise, at a float or an array of t.

    t >= 1 is the form's own series at i*t, with no upper limit.  Smaller t
    is reached through the inversion laws of each form, so the series
    argument always has Im >= 1; for PHI0 and PSI_S that branch is their
    forms evaluator, which refuses 0 < t < AXIS_T_MIN (ValueError).
    """
    ts = np.asarray(t, dtype=float)
    if np.isnan(ts).any():
        raise ValueError("axis restriction needs t that is not NaN")
    out = np.zeros(ts.shape, dtype=complex)
    positive = ts > 0.0
    build = partial(form_qseries, form)
    out[positive] = AxisTable(ts[positive]).branches(lambda t, v: v(build), _SMALL_T[form])
    return complex(out) if ts.ndim == 0 else out


def check_realness(form: FormId, grid: Sequence[float]) -> float:
    """max |Im F(it)| / |F(it)| over the grid (should be rounding-level)."""
    ts = np.asarray(grid, dtype=float)
    if not (ts > 0).all():
        raise ValueError("realness grid must be positive")
    v = res_to_imag_axis(form, ts)
    v = v[v != 0]
    return float(np.max(np.abs(v.imag) / np.abs(v), initial=0.0))


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


#: per convention: phi0-slot kernel, psi_s-slot kernel, the two combinations, phi0-slot weight
_CONVENTIONS = {
    Eq2Convention.DIRECT: (eval_phi0_axis, eval_psi_s_axis, COMBO_DIRECT, 1.0),
    Eq2Convention.S_WEIGHTED: (eval_psi_i_axis, phi0_weighted_kernel, COMBO_WEIGHTED, WEIGHT36),
}


def eq2_samples(grid: Sequence[float], convention: Eq2Convention) -> AxisSamples:
    """Kernel pairs and combinations over the whole grid.

    The combinations are computed through cancellation-free series (the
    exp(2 pi t)-sized parts combined exactly), so the samples remain
    meaningful where naive subtraction would lose all precision.  The four
    arrays read one ``AxisTable``, so each series is evaluated once per
    branch.  A t <= 0 or NaN raises ValueError.
    """
    t = np.asarray(grid, dtype=float)
    first, second, combo, w = _CONVENTIONS[convention]
    table = axis_table(t)
    return AxisSamples(t=t, phi0=w * first.on(table), psi_s=(1.0 / w) * second.on(table),
                       combo_plus=combo[1].on(table), combo_minus=combo[-1].on(table))


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


def verify_inequalities(grid: Sequence[float] | None = None,
                        convention: Eq2Convention = Eq2Convention.S_WEIGHTED) -> InequalityReport:
    """Positivity of both combinations over the grid, with local refinement.

    A refinement pass (4x density) is run around any normalized margin
    below 1e-3 to make sure a thin sign dip is not straddled by the grid.
    pass is true iff both combinations are strictly positive everywhere.
    """
    pts = np.asarray(log_grid() if grid is None else grid, dtype=float)
    if not pts.size:
        raise ValueError("grid must not be empty")
    samples = eq2_samples(pts, convention)
    plus, minus = samples.margins()
    near = samples.t[np.minimum(plus, minus) < 1e-3]
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
