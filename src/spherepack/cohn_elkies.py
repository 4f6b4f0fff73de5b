"""The linear-programming certificate: sign conditions, bound, Poisson harness.

A radial Schwartz function f that is positive at 0, nonpositive for
|x| >= 1 and has nonnegative Fourier transform bounds every packing
density in dimension d by f(0)/f_hat(0) * Vol(B_d(0, 1/2)).  The magic
function g satisfies the conditions at separation sqrt(2); rescaling
f(x) = g(sqrt(2) x) turns its bound into (g(0)/g_hat(0)) * pi^4/384,
which meets the E8 density exactly when g(0) = g_hat(0).

Signs are verified on a finite grid (dense enough to resolve the double
zeros at sqrt(2n)); this is numerical verification, not a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .errors import InsufficientGrid, NonpositiveFhat0
from .lattice import enumerate_shells
from .magic import MagicEvaluator, RadialKind
from .packing import E8_DENSITY, ball_volume

PI = math.pi
SQRT2 = math.sqrt(2.0)

#: the Cohn-Elkies verdict needs the bound within this of pi^4/384
TOL_BOUND = 1e-6
#: poisson_check sums the lattice shells up to this squared norm
POISSON_MAX_NORM2 = 40


def ce_bound(f0: float, fhat0: float, d: int) -> float:
    """f(0)/f_hat(0) * Vol(B_d(0, 1/2)) for a certificate at separation 1."""
    if fhat0 <= 0:
        raise NonpositiveFhat0(f"fhat(0) must be positive, got {fhat0}")
    return (f0 / fhat0) * ball_volume(d, 0.5)


def rescaled_bound(g0: float, ghat0: float) -> float:
    """Bound from a certificate at separation sqrt(2) in dimension 8.

    f(x) = g(sqrt(2) x) has f(0) = g(0) and f_hat(0) = 2^-4 g_hat(0), so
    the bound is ``ce_bound`` of those, (g0/ghat0) * pi^4/384.  The division
    by 16 is exact, where sqrt(2)**8 is 16 plus 2 ulps.
    """
    return ce_bound(g0, ghat0 / 16.0, 8)


def default_ce_grid() -> tuple[float, ...]:
    """The bound's sign grid, sorted: 0 to 6 in steps of 0.05 and, across the
    first sign change, sqrt(2) to 1.6 in steps of 0.005; 159 distinct points."""
    base = np.arange(0.0, 6.0 + 0.05 / 2, 0.05)
    refine = np.arange(SQRT2, 1.6 + 0.005 / 2, 0.005)
    return tuple(float(r) for r in np.sort(np.concatenate([base, refine])))


@dataclass(frozen=True)
class CEReport:
    """Grid verdict on the three sign conditions and the resulting bound."""

    grid: tuple[float, ...]
    g0: float
    ghat0: float
    ce1_pass: bool                 # g(0) > 0 (and the function is not identically 0)
    ce2_max_violation: float       # max g(r) over grid points with r > sqrt(2)
    ce2_argmax: float
    ce3_min_value: float           # min g_hat(r) over the whole grid
    ce3_argmin: float
    bound: float
    target: float
    tol: float
    tol_bound: float
    pass_: bool

    def as_dict(self) -> dict:
        return ({f.name.rstrip("_"): getattr(self, f.name)
                 for f in fields(self) if f.name != "grid"} | {"grid_points": len(self.grid)})


def verify_ce(values: Callable[[np.ndarray], np.ndarray], grid: Sequence[float]) -> CEReport:
    """Check the certificate's sign conditions on a grid and compute the bound.

    ``values`` maps a radius array to two rows, g and g_hat there; it is
    called once, on r = 0 followed by the grid.  The conditions are taken at
    separation sqrt(2): g may be positive only inside the first lattice
    radius, g_hat nowhere negative, each to within tol = 1e-7*|g(0)|; the
    bound must lie within ``TOL_BOUND`` of pi^4/384.
    """
    grid = tuple(float(r) for r in grid)
    rs = np.asarray(grid)
    outside = rs > SQRT2 * (1 + 1e-6)
    if not outside.any():
        raise InsufficientGrid("grid needs points above sqrt(2) to test the sign condition")
    g, ghat = values(np.concatenate([[0.0], rs]))
    g0, ghat0, g_vals, ghat_vals = float(g[0]), float(ghat[0]), g[1:], ghat[1:]
    tol = 1e-7 * abs(g0)
    i2 = int(np.argmax(np.where(outside, g_vals, -np.inf)))
    i3 = int(np.argmin(ghat_vals))
    ce1 = g0 > 0.0
    bound = rescaled_bound(g0, ghat0) if ghat0 > 0 else float("inf")
    ok = (ce1 and g_vals[i2] <= tol and ghat_vals[i3] >= -tol
          and abs(bound - E8_DENSITY) <= TOL_BOUND)
    return CEReport(grid=grid, g0=g0, ghat0=ghat0, ce1_pass=ce1,
                    ce2_max_violation=float(g_vals[i2]), ce2_argmax=float(rs[i2]),
                    ce3_min_value=float(ghat_vals[i3]), ce3_argmin=float(rs[i3]),
                    bound=bound, target=E8_DENSITY, tol=tol, tol_bound=TOL_BOUND,
                    pass_=bool(ok))


def verify_magic_ce(evaluator: MagicEvaluator) -> CEReport:
    """The headline run: the magic function's certificate on ``default_ce_grid``."""
    return verify_ce(lambda rs: evaluator.values((RadialKind.G, RadialKind.GHAT), rs),
                     default_ce_grid())


# ---------------------------------------------------------------------------
# Poisson summation harness
# ---------------------------------------------------------------------------

def poisson_check(sigma: float) -> tuple[float, float]:
    """Gaussian Poisson summation over the lattice (self-dual, covolume 1).

    lhs = sum_v exp(-pi sigma |v|^2), rhs = sigma^-4 sum_v exp(-pi |v|^2 / sigma);
    summed over the shells up to squared norm ``POISSON_MAX_NORM2``, with a
    certified tail bound on the dropped terms.  A sigma that is NaN, inf or
    not positive is a ValueError, and so is one whose tail at either end
    the cutoff cannot certify.
    """
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    shells = enumerate_shells(POISSON_MAX_NORM2)
    lhs = 1.0
    rhs_sum = 1.0
    for shell in shells:
        lhs += shell.count * math.exp(-PI * sigma * shell.norm2)
        rhs_sum += shell.count * math.exp(-PI * shell.norm2 / sigma)
    # counts grow like 240*sigma_3(n) <= 290 n^3; bound the dropped shells
    # by the integral of 290 x^3 exp(-pi s x) beyond the cutoff, in powers
    # of u = 1/(pi s); at an extreme s they overflow to inf, never raise
    for s, total in ((sigma, lhs), (1.0 / sigma, rhs_sum)):
        m = POISSON_MAX_NORM2 + 2
        rate = PI * s
        u = 1.0 / rate
        tail = 290.0 * math.exp(-rate * m) * u * (m ** 3 + u * (3 * m ** 2 + u * (6 * m + 6 * u)))
        if tail > 1e-13 * total:
            raise ValueError(
                f"shell cutoff {POISSON_MAX_NORM2} cannot certify the tail at sigma={s}")
    return lhs, rhs_sum / sigma ** 4
