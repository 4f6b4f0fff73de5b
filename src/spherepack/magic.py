"""The magic function: real Laplace integrals, the contour oracle, eigenbasis check.

The plus eigenfunction a and minus eigenfunction b are purely imaginary
on real radii.  With s = r^2 and L[K](s) = Int_0^inf K(t) e^{-pi s t} dt
they are single real integrals along the imaginary axis (Viazovska,
Annals of Math. 185 (2017), Props. 6 and 8):

    a(r) = 4i sin^2(pi s/2) L[Kphi](s),    Kphi(t) = t^2 phi0(i/t)
    b(r) = 4i sin^2(pi s/2) L[Kpsi](s),    Kpsi(t) = t^2 psi_s(i/t)

The Cohn-Elkies candidate g = Re[(pi i/8640) a - (i/(240 pi)) b] and its
Fourier transform g_hat (a and b are +1 and -1 eigenfunctions, so hatting
g only flips the b term) are

    g(r)     = -(pi/2160) sin^2(pi s/2) L[K+](s),   K+ = Kphi - W Kpsi
    g_hat(r) =  (pi/2160) sin^2(pi s/2) L[K-](s),   K- = -Kphi - W Kpsi

with W = 36/pi^2: K+ and K- are the S-weighted axis kernels, positive
on (0, inf) (``axis.verify_inequalities``), so the sign
conditions g <= 0 beyond sqrt(2) and g_hat >= 0 are sin^2 >= 0 times a
positive integral, and the zeros at the lattice radii sqrt(2n) are those
of sin^2.  The b-term sign is cross-checked by the independent radial
Fourier transform ``hankel8`` in this module, which expands a tabulated
profile in the Laguerre eigenbasis of the 8-dimensional transform (rule
and basis built once per upper limit, coefficients once per table); with
the theta and Eisenstein conventions used here, g(0) = g_hat(0) = 1.

Each profile is thus scale * sin^2 L[fa Kphi + fb Kpsi], one row of ``_PROFILES``;
the rows, their values (``axis.kernels``) and their one expansion on [1, inf)
(``axis._table`` of ``axis._PARTS``, a row per kernel) are ``axis``'s.

Quadrature: Gauss panels on [0, 1], whose node values ``axis.kernels``
reads off the kernels' table in e^{-pi/t}, and on [1, inf) exact moments
of the kernel's q-expansion.  The panels are equal and share their nodes
up to a shift, so a radius costs one exponential per panel and one per
node of a panel, for all kernels of a sweep together, not one per node,
and one reciprocal per distinct moment rate (``_Moments``).
The moments are the table's columns, cut once for its every reader by
``qseries.top_cut``, which bounds the dropped moments at every s >= 0.
Kphi, Kpsi and K+ grow like e^{2 pi t}, K- like t, so the integrals
converge only for s > 2 respectively s > 0.  Below s = 2 +
_SUBTRACT_MARGIN the growing terms (rate offset <= 0) are subtracted on
[0, 1] and their Laplace transforms m!/(pi (s - j))^{m+1} added back in
closed form, each multiplied with sin^2(pi s/2) as one expression that
is finite at s = 0 and s = 2.

The six-leg contour integral (two rectangle sides from -1 and +1 up to
i, the leg from i down to 0, and the vertical ray from i) is a second,
independent representation of a and b.  It serves only as the oracle
``MagicEvaluator.contour_values``: products of exp(pi i r^2 z) at blocks
of radii with the form's node table, built on the first oracle call.  The
five finite legs are rows of data (``_LEGS``), the ray is ``_RAY``, and a
table costs one series evaluation of the form at all six legs' arguments.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .axis import _PARTS, K_MINUS, K_PLUS, KPHI, KPSI, _table, kernels
from .errors import InsufficientTable, TailBoundViolated
from .forms import FormId, form_qseries
from .lattice import Scratch
from .quadrature import QuadratureConfig, panel_nodes

PI = math.pi

#: |a(0)| = 8640/pi; reference scale for a and b
A_SCALE = 8640.0 / PI

#: g = -_G_SCALE sin^2 L[K+], g_hat = _G_SCALE sin^2 L[K-]
_G_SCALE = PI / 2160.0
#: s = r^2 below 2 + this margin takes the subtracted form; above it the
#: plain integral converges and subtracting would only cost accuracy
_SUBTRACT_MARGIN = 1.0
#: radii per block of a Laplace sweep.  A block's work arrays hold at most
#: P + Q + 2P + T + T1 = 8 + 32 + 16 + 23 + 11 = 90 float64 per radius in
#: ``_SCRATCH`` (P, not 2P, on a block wholly on one side of the switch), and
#: its [1; pi s] and e^{-pi s} 3 more, so 1,024 radii take at most 0.75 MiB
#: of a 2 MiB L2; smaller blocks pay numpy's per-call overhead on every few
#: hundred radii
_BLOCK = 1024
#: complex entries of exp(pi i r^2 z) per block of the contour oracle: 1 MiB
#: each, and 42 radii a block on the default 1,536 nodes
_CONTOUR_BLOCK = 1 << 16
#: the largest radius handled, so that pi r^2 stays finite
_R_MAX = 1e150
#: how far a [0, 1] node may lie from its panel's left end plus its first-panel node
_SPLIT_TOL = 2.0 ** -53


#: each thread's exponential and moment arrays for the blocks of a Laplace
#: sweep, about 1 MiB in all, kept between blocks and calls
_SCRATCH = Scratch()


# ---------------------------------------------------------------------------
# the Laplace representation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Moments:
    """Int_1^inf sum_T c_T t^m_T e^{-offset_T t} e^{-pi s t} dt, exact for m <= 2:
    e^{-pi s} sum_T c_T e^{-offset_T} (x + m x^2 + m(m-1) x^3), x = 1/(offset_T + pi s).

    One row per rate offset pi j, a column of ``axis._table``, so one
    reciprocal per rate: the column's c e^{-offset}, m c e^{-offset} and
    m(m-1) c e^{-offset} summed, from m = 2 down, into k, k2 and k3.  The
    rows with a k3 are held first, then those with a k2, so x^2 is formed
    over the T1 rows with either and x^3 over the T2 with a k3.  All
    offset + pi s are one product of ``rate`` = [offset, 1] with [1; pi s],
    whose two products are exact: in any order, FMA or not, it is the
    broadcast add bit for bit, rounded once."""

    offset: np.ndarray     # (T, 1)
    rate: np.ndarray       # (T, 2): [offset, 1]
    k: np.ndarray          # (T,): the coefficients of x
    k2: np.ndarray         # (T1,): of x^2, over the first T1 rows
    k3: np.ndarray         # (T2,): of x^3, over the first T2 rows

    @classmethod
    def of(cls, j, upper) -> _Moments:
        """The moments of sum_m upper[m] t^m e^{-pi j t}, a row per column with a term."""
        held = upper.any(axis=0)
        rates = PI * j[held]
        c0, c1, c2 = upper[:, held] * np.exp(-rates)
        sums = np.array([c2 + c1 + c0, 2.0 * c2 + c1, 2.0 * c2])
        by = np.lexsort(sums[1:] == 0.0)    # the rows with a k3 first, then those with a k2
        rates, (k, k2, k3) = rates[by], sums[:, by]
        return cls(rates[:, None], np.stack([rates, np.ones_like(rates)], axis=1), k,
                   k2[:np.count_nonzero(sums[1:].any(axis=0))], k3[:np.count_nonzero(k3)])

    def __call__(self, pi_s: np.ndarray, decay: np.ndarray) -> np.ndarray:
        """The integral at n values of s, from their (2, n) [1; pi s] and e^{-pi s}."""
        terms, n = self.offset.shape[0], decay.size
        t1, t2 = self.k2.size, self.k3.size
        x, x2 = _SCRATCH.get("x", terms, n), _SCRATCH.get("x2", t1, n)
        np.matmul(self.rate, pi_s, out=x)
        np.reciprocal(x, out=x)
        total = self.k @ x
        np.multiply(x[:t1], x[:t1], out=x2)
        total += self.k2 @ x2
        x3 = x2[:t2]
        x3 *= x[:t2]
        total += self.k3 @ x3
        return decay * total


def _panel_split(nodes: np.ndarray, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """The left ends p/P of P equal panels on [0, 1] and the first panel's
    nodes t_0k, where every node is t_pk = p/P + t_0k to within 2^-53.

    A node table that does not split so is a RuntimeError.
    """
    lo = np.arange(panels) / panels
    base = nodes[:nodes.size // panels]
    gap = np.abs(nodes.reshape(panels, -1) - (lo[:, None] + base)).max()
    if not gap <= _SPLIT_TOL:
        raise RuntimeError(f"the [0, 1] nodes are not panel ends plus the first panel's "
                           f"nodes: off by {gap:.3g}")
    return lo, base


@dataclass(frozen=True)
class _Kernel:
    """One real axis kernel K on the Laplace rule.

    The [0, 1] rule is P equal panels of Q nodes each, t_pk = p/P + t_0k
    (``_panel_split``).  ``weights`` is (2P, Q): row p holds the Gauss
    weights times K at panel p's nodes, row P + p the same for K minus its
    growing terms.  On [1, inf) K is its row of ``axis._PARTS``' table, the
    terms c t^m e^{-pi j t}: ``decaying`` has the columns j >= 1, ``growing``
    the others, both one row per rate.  ``shift``, ``order`` and ``coeff``
    hold the growing terms one by one for their closed forms, each
    e^{pi shift t} with shift = -j, by falling m and then rising j.
    """

    weights: np.ndarray     # (2P, Q)
    decaying: _Moments
    growing: _Moments
    shift: np.ndarray      # (G, 1)
    order: np.ndarray      # (G, 1)
    coeff: np.ndarray      # (G,)

    @classmethod
    def build(cls, nodes, weights, values, upper, low, panels) -> _Kernel:
        """From K's values at the [0, 1] nodes and its (3, width) row of
        ``axis._PARTS``' table, whose column 0 is the rate j = low."""
        j = np.arange(low, low + upper.shape[1], dtype=float)
        up = j <= 0.0
        falling, col = np.nonzero(upper[::-1, up])
        order, shift = 2.0 - falling, -j[col]
        coeff = upper[2 - falling, col]
        # the closed forms need even shifts (sin^2(pi s/2) has period 2 in s),
        # at most 2 (so the plain integral converges above the switch), and m <= 1
        if np.any(shift % 2) or np.any(shift > 2) or np.any(order > 1):
            raise RuntimeError("unexpected growing term in an axis kernel")
        grow = coeff @ (nodes ** order[:, None] * np.exp(-PI * j[col, None] * nodes))
        by_panel = np.concatenate([weights * values, weights * (values - grow)])
        return cls(by_panel.reshape(2 * panels, -1), _Moments.of(j[~up], upper[:, ~up]),
                   _Moments.of(j[up], upper[:, up]), shift[:, None], order[:, None], coeff)

    def sin2_laplace(self, s, sine, low, e1, e2, pi_s, decay) -> np.ndarray:
        """sin^2(pi s/2) L[K](s) at each s = r^2 >= 0 of one block, from its
        sin(pi s/2), its mask of s below the switch, its panel and node
        exponentials e1 (P, n) and e2 (Q, n), its [1; pi s] and its e^{-pi s}:
        one product of e2 with ``weights`` gives each panel's sum of both
        integrands, weighted by e1, or on a block wholly below or above the
        switch only the (P, Q) half it reads, the subtracted or the plain
        rows.  The growing terms' moments run only if some s is above the
        switch, their closed forms only if some is below.
        """
        n, panels = s.size, e1.shape[0]
        below, above = low.all(), not low.any()
        rows = self.weights[panels:] if below else self.weights[:panels] if above else self.weights
        m = _SCRATCH.get("m", rows.shape[0], n)
        np.matmul(rows, e2, out=m)
        parts = m.reshape(-1, panels, n)
        parts *= e1
        sums = parts.sum(axis=1)
        inner = sums[0] if below or above else np.where(low, sums[1], sums[0])
        inner += self.decaying(pi_s, decay)
        if not below:
            up = slice(None) if above else ~low
            inner[up] += self.growing(pi_s[:, up], decay[up])
        out = sine * sine * inner
        if not above:
            # below the switch the growing terms' transforms m!/(pi w)^{m+1}, w = s - j,
            # times sin^2, through q = sin(pi s/2)/(pi w), which is sinc-like for small w
            w = s[low] - self.shift
            near = np.abs(w) < 1.0
            q = np.where(near, 0.5 * np.sinc(w / 2.0), sine[low] / (PI * np.where(near, 1.0, w)))
            out[low] += self.coeff @ np.where(self.order == 0, sine[low] * q, q * q)
        return out


def _checked_radii(radii) -> np.ndarray:
    """The radii as a flat float array; a NaN radius or one beyond _R_MAX is a ValueError."""
    r = np.asarray(radii, dtype=float).ravel()
    inside = np.abs(r) <= _R_MAX
    if not inside.all():
        raise ValueError(f"radii must satisfy |r| <= {_R_MAX:g}, got {r[np.argmin(inside)]}")
    return r


def _laplace_sweep(rule, kernels, radii) -> np.ndarray:
    """(k, n): sin^2(pi r^2/2) L[K](r^2) for each of the k kernels at each
    of the ``_checked_radii``, in near-equal blocks of at most _BLOCK radii.

    ``rule`` holds the rates -pi p/P and -pi t_0k of ``_panel_split``, as
    e^{-pi s t_pk} = e^{-pi s p/P} e^{-pi s t_0k}: a block's P + Q exponentials per
    radius, its e^{-pi s} and its [1; pi s] serve every kernel, and each kernel runs
    its own (2P, Q) product on them, or its (P, Q) half on a block wholly on one side
    of s = 3, so every row is a one-kernel sweep's arithmetic.  But a radius's last
    bits depend on how many radii share the call, as BLAS picks its kernel by width:
    with OpenBLAS 0.3.31, g at 570 of 1,000 random radii differed between a width
    of 1 and 2 to 1,000.
    """
    r = _checked_radii(radii)
    panel_rate, node_rate = rule
    squares = r ** 2
    # np.array_split's blocks: the first r.size % blocks of them one radius longer
    blocks = -(-r.size // _BLOCK)
    size, longer = divmod(r.size, blocks or 1)
    ends = [j * size + min(j, longer) for j in range(blocks + 1)]
    out = np.empty((len(kernels), r.size))
    for lo, hi in zip(ends, ends[1:]):
        s = squares[lo:hi]
        sine = np.sin(PI * (s - 2.0 * np.round(s / 2.0)) / 2.0)   # the reduction is exact
        low = s < 2.0 + _SUBTRACT_MARGIN
        e1 = _SCRATCH.get("e1", panel_rate.size, s.size)
        np.multiply.outer(panel_rate, s, out=e1)
        np.exp(e1, out=e1)
        e2 = _SCRATCH.get("e2", node_rate.size, s.size)
        np.multiply.outer(node_rate, s, out=e2)
        np.exp(e2, out=e2)
        pi_s = np.ones((2, s.size))
        np.multiply(PI, s, out=pi_s[1])
        decay = np.exp(-PI * s)
        for row, kernel in zip(out, kernels):
            row[lo:hi] = kernel.sin2_laplace(s, sine, low, e1, e2, pi_s, decay)
    return out


class RadialKind(Enum):
    A = "A"          # Im a(r): the plus eigenfunction's real radial profile
    B = "B"          # Im b(r)
    G = "G"          # g(r)
    GHAT = "GHat"    # g_hat(r)


#: each radial profile as scale * sin^2(pi s/2) L[K](s), K = fa Kphi + fb Kpsi: (fa, fb, scale)
_PROFILES = {
    RadialKind.A: (*KPHI, 4.0),
    RadialKind.B: (*KPSI, 4.0),
    RadialKind.G: (*K_PLUS, -_G_SCALE),
    RadialKind.GHAT: (*K_MINUS, _G_SCALE),
}


class MagicEvaluator:
    """Laplace tables of the four axis kernels; everything r-dependent is a
    block of exponentials times them.

    The kernel values at the [0, 1] Gauss nodes and the exponential terms
    on [1, inf) are independent of the radius, so they are built once per
    quadrature configuration (``panels_per_segment`` panels of
    ``gauss_order`` nodes), from one ``axis.kernels`` call of the four rows.
    a, b, g and g_hat are real integrals at every r >= 0.  ``values`` is the
    one evaluation path: any profiles at an array of radii, from one sweep.
    ``eval_*`` are its length-1 case, with a and b as complex numbers of
    real part exactly 0; ``g_values`` and ``g_hat_values`` its one-row case.
    ``contour_values`` evaluates the independent contour representation at
    an array of radii, and ``eval_*_propagated`` are its length-1 case.
    Instances are immutable after construction and safe to share.
    """

    def __init__(self, quad: QuadratureConfig):
        self.quad = quad
        panels = self.quad.panels_per_segment
        t, w = panel_nodes(0.0, 1.0, panels, self.quad.gauss_order)
        rows = tuple(profile[:2] for profile in _PROFILES.values())
        table, _, low = _table(_PARTS, rows)
        # a's and b's tables share one array of nodes
        self._nodes_a = self._nodes_b = t
        lo, base = _panel_split(t, panels)
        self._rule = -PI * lo, -PI * base
        self._kernels = {kind: _Kernel.build(t, w, values, upper, low, panels)
                         for kind, values, upper in zip(_PROFILES, kernels(rows, t), table)}

    def values(self, kinds: Sequence[RadialKind], radii) -> np.ndarray:
        """(k, n): each of the k profiles at each of the n radii, from one sweep."""
        scale = np.array([_PROFILES[kind][2] for kind in kinds])[:, None]
        return scale * _laplace_sweep(self._rule, [self._kernels[kind] for kind in kinds], radii)

    def g_values(self, radii) -> np.ndarray:
        return self.values((RadialKind.G,), radii)[0]

    def g_hat_values(self, radii) -> np.ndarray:
        return self.values((RadialKind.GHAT,), radii)[0]

    def eval_a(self, r: float) -> complex:
        return complex(0.0, self.values((RadialKind.A,), [r])[0, 0])

    def eval_b(self, r: float) -> complex:
        return complex(0.0, self.values((RadialKind.B,), [r])[0, 0])

    def eval_g(self, r: float) -> float:
        return float(self.g_values([r])[0])

    def eval_g_hat(self, r: float) -> float:
        return float(self.g_hat_values([r])[0])

    # -- the contour oracle --------------------------------------------------

    def contour_values(self, form: FormId, radii) -> np.ndarray:
        """a (``FormId.PHI0``) or b (``FormId.PSI_S``) at each radius through
        the six-leg contour, independent of the Laplace tables: a complex array
        (ValueError for any other form)."""
        if form not in _RAY:
            raise ValueError(f"the contour oracle evaluates Phi0 and PsiS, not {form.value}")
        r = _checked_radii(radii)
        return _contour_sum(*_contour_table(form, self.quad), r * r)

    def eval_a_propagated(self, r: float) -> complex:
        return complex(self.contour_values(FormId.PHI0, [r])[0])

    def eval_b_propagated(self, r: float) -> complex:
        return complex(self.contour_values(FormId.PSI_S, [r])[0])


@lru_cache(maxsize=4)
def default_evaluator(quad: QuadratureConfig) -> MagicEvaluator:
    """Shared evaluator per quadrature configuration.

    Building the Laplace tables costs one stacked series evaluation of both
    forms on the [0, 1] nodes, the check that those nodes split into panel ends
    plus the first panel's nodes, and the four rows' one table on [1, inf):
    a few milliseconds once the exact series are cached.
    """
    return MagicEvaluator(quad)


# ---------------------------------------------------------------------------
# the six-leg contour: the oracle
# ---------------------------------------------------------------------------

#: the five finite legs in the drawn orientation, as (start, end, shift,
#: coefficient): the integrand is the form at -1/(z + shift) times (z + shift)^2,
#: and the coefficient +2 on i -> 0 is -2 times the 0 -> i integral
_LEGS = ((-1.0 + 0j, -1.0 + 1j, 1, 1.0), (-1.0 + 1j, 1j, 1, 1.0),
         (1.0 + 0j, 1.0 + 1j, -1, 1.0), (1.0 + 1j, 1j, -1, 1.0),
         (1j, 0j, 0, 2.0))

#: each form's ray i -> i*inf, where the integrand is the form itself: its
#: coefficient (+2 for a, -2 for b), and its integrand's decay rate and
#: leading-coefficient envelope for the certified tail bound (factor 2 of safety)
_RAY = {FormId.PHI0: (2.0, 2.0 * PI, 2.0 * 518400.0), FormId.PSI_S: (-2.0, PI, 2.0 * 10240.0)}

#: the contour's vertical ray is cut at Im(z) = _RAY_END, where the certified
#: bound on the dropped tail (``_contour_table``) must be within _RAY_TAIL_TOL
_RAY_END = 12.0
_RAY_TAIL_TOL = 1e-12


def _contour_sum(nodes: np.ndarray, weights: np.ndarray, r2) -> np.ndarray:
    """sum_k weights_k exp(pi i r2_j nodes_k) at each r2_j: an (m, N) product
    per block of m radii, with m N at most _CONTOUR_BLOCK (m at least 1)."""
    r2 = np.asarray(r2, dtype=float)
    width = max(1, _CONTOUR_BLOCK // max(nodes.size, 1))
    out = np.empty(r2.size, dtype=complex)
    for lo in range(0, r2.size, width):
        out[lo:lo + width] = np.exp(1j * PI * np.multiply.outer(r2[lo:lo + width], nodes)) @ weights
    return out


@lru_cache(maxsize=4)
def _contour_table(form: FormId, quad: QuadratureConfig) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights (Gauss weight times coefficient times integrand) of
    the five ``_LEGS`` and the ray, concatenated, from one series evaluation
    at every leg's -1/(z + shift) and the ray's i t.

    The certified bound on the ray beyond _RAY_END is checked first, at
    r = 0, where it is largest: the factor exp(pi i r^2 z) only speeds the
    decay.  The integrands vanish to all orders as the legs approach the
    real axis vertically, and Gauss nodes never sit on an endpoint.
    """
    coefficient, decay, envelope = _RAY[form]
    tail = envelope * math.exp(-decay * _RAY_END) / decay
    if tail > _RAY_TAIL_TOL:
        raise TailBoundViolated(f"ray tail {tail:.3g} above tol {_RAY_TAIL_TOL} at T={_RAY_END}")
    rule = quad.panels_per_segment, quad.gauss_order
    starts, ends, shifts, coeffs = zip(*_LEGS)
    z, gauss = np.array([panel_nodes(a, b, *rule) for a, b in zip(starts, ends)]).swapaxes(0, 1)
    w = z + np.array(shifts)[:, None]
    t, dt = panel_nodes(1.0, _RAY_END, *rule)
    values = form_qseries(form).eval(np.concatenate([(-1.0 / w).ravel(), 1j * t]))
    weights = np.array(coeffs)[:, None] * gauss * (values[:z.size].reshape(z.shape) * w ** 2)
    return (np.concatenate([z.ravel(), 1j * t]),
            np.concatenate([weights.ravel(), coefficient * (1j * dt) * values[z.size:]]))


# ---------------------------------------------------------------------------
# radial tables and the eigenbasis Fourier cross-check
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RadialTable:
    """A radial profile's finite values at strictly increasing finite radii:
    read-only float64 copies of the arguments, of one length, validated as
    arrays (a failure is a ValueError)."""

    radii: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        radii, values = (np.array(a, dtype=np.float64) for a in (self.radii, self.values))
        if radii.ndim != 1 or radii.shape != values.shape:
            raise ValueError("radii and values must be 1-d and of equal length")
        if not np.isfinite(radii).all():
            raise ValueError("table radii must be finite")
        if (np.diff(radii) <= 0.0).any():
            raise ValueError("radii must be strictly increasing")
        if not np.isfinite(values).all():
            raise ValueError("table values must be finite")
        for name, array in (("radii", radii), ("values", values)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @cached_property
    def _signed_coefficients(self) -> np.ndarray:
        """hankel8's coefficients, built once: the table is immutable."""
        return _hankel_coefficients(self.radii, self.values)


def tabulate_radial(which: RadialKind, radii: Sequence[float],
                    evaluator: MagicEvaluator) -> RadialTable:
    """One radial profile on a grid: a single array sweep of ``evaluator``."""
    rs = np.asarray(radii, dtype=float)
    return RadialTable(rs, evaluator.values((which,), rs)[0])


# -- the radial Fourier transform in dimension 8 ------------------------------

def _cubic_interp(radii: np.ndarray, values: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Local 4-point Lagrange cubic on a strictly increasing grid.

    Each of the four neighbours' radii x_m is gathered once and each
    s - x_m formed once; weight k is the product over m != k of
    (s - x_m) / (x_k - x_m), taken in increasing m.
    """
    idx = np.searchsorted(radii, s, side="right") - 1
    idx = np.clip(idx, 0, len(radii) - 2)
    i0 = np.clip(idx - 1, 0, len(radii) - 4)
    near = [i0 + k for k in range(4)]
    x = [radii[i] for i in near]
    d = [s - xm for xm in x]
    out = np.zeros_like(s)
    for k in range(4):
        lk = np.ones_like(s)
        for m in range(4):
            if m != k:
                lk *= d[m] / (x[k] - x[m])
        out += values[near[k]] * lk
    return out


#: hankel8 projects onto phi_k for k below this
_EIGEN_TERMS = 32
#: beyond this radius |phi_k| < 4e-19 for every k < _EIGEN_TERMS
_EIGEN_END = 6.5


def _eigenbasis(s: np.ndarray | float) -> np.ndarray:
    """phi_k(s) = L_k^(3)(2 pi s^2) e^{-pi s^2} for k < _EIGEN_TERMS, in rows.

    One three-term recurrence on the weighted functions, x = 2 pi s^2:
    phi_0 = e^{-x/2}, phi_1 = (4 - x) phi_0 and
    (k+1) phi_{k+1} = (2k + 4 - x) phi_k - (k + 3) phi_{k-1}.
    On an array of s it runs on rows, on a float s on float64 scalars.
    """
    x = 2.0 * PI * s * s
    phi = [np.exp(-x / 2.0)]
    phi.append((4.0 - x) * phi[0])
    for k in range(1, _EIGEN_TERMS - 1):
        phi.append(((2 * k + 4 - x) * phi[k] - (k + 3) * phi[k - 1]) / (k + 1))
    return np.array(phi)


@lru_cache(maxsize=8)
def _eigen_rule(end: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """hankel8's rule on [0, end], read-only: its 16 Gauss panels' 16 nodes
    s each, their weights, the eigenbasis at s and s^7."""
    s, w = panel_nodes(0.0, end, 16, 16)
    rule = s, w, _eigenbasis(s), s ** 7
    for array in rule:
        array.flags.writeable = False
    return rule


def _hankel_coefficients(radii: np.ndarray, values: np.ndarray) -> np.ndarray:
    """A table's (-1)^k c_k for k < _EIGEN_TERMS (see ``hankel8``), read-only.

    A table hankel8 cannot transform is an InsufficientTable.
    """
    if len(radii) < 16:
        raise InsufficientTable("need at least 16 table points")
    if radii[0] != 0.0:
        raise InsufficientTable(f"table must start at radius 0, not {radii[0]:.3g}")
    if radii[-1] < 4.0:
        raise InsufficientTable("table must extend to s >= 4")
    gaps = np.diff(radii)
    if gaps.max() > 0.2:
        raise InsufficientTable(f"table spacing {gaps.max():.3g} too coarse")
    s, w, basis, s7 = _eigen_rule(min(float(radii[-1]), _EIGEN_END))
    k = np.arange(_EIGEN_TERMS)
    moments = basis @ (w * _cubic_interp(radii, values, s) * s7)
    coeffs = (PI ** 4 / 3.0) * moments * 96.0 / ((k + 1) * (k + 2) * (k + 3))
    signed = (-1.0) ** k * coeffs
    signed.flags.writeable = False
    return signed


def hankel8(table: RadialTable, r: float) -> float:
    """8-dimensional radial Fourier transform of the tabulated profile at radius r.

    The radial eigenfunctions phi_k(s) = L_k^(3)(2 pi s^2) e^{-pi s^2} of
    the Fourier transform in R^8 have eigenvalue (-1)^k and squared norm
    (k+1)(k+2)(k+3)/96 in L^2(R^8).  The profile's coefficients

        c_k = (pi^4/3) Int_0^S f(s) phi_k(s) s^7 ds / ((k+1)(k+2)(k+3)/96)

    for k < _EIGEN_TERMS, by 16 Gauss panels of 16 nodes on the table's
    cubic interpolant with S = min(last radius, _EIGEN_END), give
    f_hat(r) = sum_k (-1)^k c_k phi_k(r).  The rule and the basis at its
    nodes are built once per S, the coefficients once per table.  The result
    is accurate only for a profile that is small beyond the table's end and
    well described by the first _EIGEN_TERMS eigenfunctions.  The domain
    is r > 0 with a normal r^3, and the table must start at radius 0.
    """
    try:
        cube = float(r) ** 3
    except OverflowError:
        cube = math.inf
    if not (r > 0 and sys.float_info.min <= cube < math.inf):
        raise ValueError(f"hankel8 needs a finite r > 0 with a normal r^3, got {r}")
    return float(table._signed_coefficients @ _eigenbasis(float(r)))
