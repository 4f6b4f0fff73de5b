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

with W = 36/pi^2: K+ and K- are the S-weighted axis kernels
(``axis.axis_combo_weighted``), positive on (0, inf), so the sign
conditions g <= 0 beyond sqrt(2) and g_hat >= 0 are sin^2 >= 0 times a
positive integral, and the zeros at the lattice radii sqrt(2n) are those
of sin^2.  The b-term sign is cross-checked by the independent radial
Fourier transform ``hankel8`` in this module, which expands a tabulated
profile in the Laguerre eigenbasis of the 8-dimensional transform; with
the theta and Eisenstein conventions used here, g(0) = g_hat(0) = 1.

Quadrature: Gauss panels on [0, 1], where the node values at i/t need the
series at Im >= 1 only, and on [1, inf) exact exponential moments of the
kernel's q-expansion (``_moment_terms``).  The panels are equal and share
their nodes up to a shift, so a radius costs one exponential per panel
and one per node of a panel, not one per node.  Of the decaying moment
terms only those a double can hold are summed: the dropped tail is at
most 2^-60 of the largest kept term at every s (``_cut_tail``).  Kphi,
Kpsi and K+ grow like e^{2 pi t}, K- like t, so the integrals converge
only for s > 2 respectively s > 0.  Below s = 2 + _SUBTRACT_MARGIN the
growing terms (rate offset <= 0) are subtracted on [0, 1] and their
Laplace transforms m!/(pi (s - j))^{m+1} added back in closed form, each
multiplied with sin^2(pi s/2) as one expression that is finite at s = 0
and s = 2.

The six-leg contour integral (two rectangle sides from -1 and +1 up to
i, the leg from i down to 0, and the vertical ray from i) is a second,
independent representation of a and b.  It serves only as the oracle of
``eval_a_propagated``/``eval_b_propagated``; its node table is built on
the first oracle call.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import InsufficientTable, TailBoundViolated
from .forms import (
    WEIGHT36,
    FormId,
    e4sq_over_delta_qseries,
    form_qseries,
    phi0_anomaly_qseries,
    phi0_qseries,
    psi_i_qseries,
)
from .lattice import Scratch
from .qseries import eval_stack
from .quadrature import QuadratureConfig, panel_nodes

PI = math.pi

#: |a(0)| = 8640/pi; reference scale for a and b
A_SCALE = 8640.0 / PI

#: g = -_G_SCALE sin^2 L[K+], g_hat = _G_SCALE sin^2 L[K-]
_G_SCALE = PI / 2160.0
#: s = r^2 below 2 + this margin takes the subtracted form; above it the
#: plain integral converges and subtracting would only cost accuracy
_SUBTRACT_MARGIN = 1.0
#: radii per block of a Laplace sweep.  A block's work arrays hold
#: P + Q + 2P + T + T1 = 8 + 32 + 16 + 46 + 23 = 125 float64 per radius, so
#: 1,024 radii take about 1 MiB, half of a 2 MiB L2; smaller blocks pay
#: numpy's per-call overhead on every few hundred radii
_BLOCK = 1024
#: the largest radius handled, so that pi r^2 stays finite
_R_MAX = 1e150
#: the moment terms left out add up to at most this fraction of the largest kept one
_MOMENT_CUT = 2.0 ** -60
#: how far a [0, 1] node may lie from its panel's left end plus its first-panel node
_SPLIT_TOL = 2.0 ** -53


#: each thread's exponential and moment arrays for the blocks of a Laplace
#: sweep, about 1 MiB in all, kept between blocks and calls
_SCRATCH = Scratch()


# ---------------------------------------------------------------------------
# the Laplace representation
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


@dataclass(frozen=True)
class _Moments:
    """Int_1^inf sum_T c_T t^m_T e^{-offset_T t} e^{-pi s t} dt, exact for m <= 2:
    e^{-pi s} sum_T c_T e^{-offset_T} (x + m x^2 + m(m-1) x^3), x = 1/(offset_T + pi s).

    The terms are held with m = 2 first, then m = 1, then m = 0, so x^2 is
    formed over the m >= 1 rows only and x^3 over the m = 2 rows."""

    offset: np.ndarray     # (T, 1)
    k: np.ndarray          # (T,): the coefficients of x
    k2: np.ndarray         # (T1,): of x^2, over the T1 rows with m >= 1
    k3: np.ndarray         # (T2,): of x^3, over the T2 rows with m = 2

    @classmethod
    def of(cls, order, offset, coeff) -> _Moments:
        by = np.argsort(-order, kind="stable")
        order, offset = order[by], offset[by]
        scaled = coeff[by] * np.exp(-offset)
        return cls(offset[:, None], scaled, (order * scaled)[order >= 1.0],
                   (order * (order - 1.0) * scaled)[order == 2.0])

    def __call__(self, s: np.ndarray) -> np.ndarray:
        terms, n = self.offset.shape[0], s.size
        t1, t2 = self.k2.size, self.k3.size
        x, x2 = _SCRATCH.get("x", terms, n), _SCRATCH.get("x2", t1, n)
        np.add(self.offset, PI * s, out=x)
        np.reciprocal(x, out=x)
        total = self.k @ x
        np.multiply(x[:t1], x[:t1], out=x2)
        total += self.k2 @ x2
        x3 = x2[:t2]
        x3 *= x[:t2]
        total += self.k3 @ x3
        return np.exp(-PI * s) * total


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


def _cut_tail(order, offset, coeff):
    """The decaying terms sorted by offset, less their longest high-offset
    tail whose summed bound |c| e^{-o} (1 + m + m(m-1)) is at most _MOMENT_CUT
    times the largest kept |c| e^{-o}.

    The cut holds at every s >= 0.  A term's moment is
    c e^{-o} e^{-pi s} (x + m x^2 + m(m-1) x^3) with x = 1/(o + pi s), and
    every decaying offset is at least pi, so x <= 1/pi < 1 and the moment is
    at most |c| e^{-o} (1 + m + m(m-1)) e^{-pi s} x in size.  x falls as o
    grows, so every omitted term's x is at most that of the largest kept
    term, whose moment is at least |c| e^{-o} e^{-pi s} x in size (its three
    parts share a sign).  The omitted sum is thus at most _MOMENT_CUT of
    the largest kept moment, below the rounding of the kept sum.
    """
    if offset.min() < PI:
        raise RuntimeError("a decaying moment term with offset below pi")
    by = np.argsort(offset, kind="stable")
    order, offset, coeff = order[by], offset[by], coeff[by]
    size = np.abs(coeff) * np.exp(-offset)
    tail = np.cumsum((size * (1.0 + order + order * (order - 1.0)))[::-1])[::-1]
    # keeping the first n terms omits tail[n] against max(size[:n])
    fits = np.append(tail[1:], 0.0) <= _MOMENT_CUT * np.maximum.accumulate(size)
    n = int(np.argmax(fits)) + 1
    return order[:n], offset[:n], coeff[:n]


@dataclass(frozen=True)
class _Kernel:
    """One real axis kernel K on the Laplace rule.

    The [0, 1] rule is P equal panels of Q nodes each, t_pk = p/P + t_0k
    (``_panel_split``), so e^{-pi s t_pk} = e^{-pi s p/P} e^{-pi s t_0k}.
    ``panel_rate`` and ``node_rate`` are -pi p/P and -pi t_0k.  ``weights``
    is (2P, Q): row p holds the Gauss weights times K at panel p's nodes,
    row P + p the same for K minus its growing terms.  On [1, inf) K is a
    sum of terms c t^m e^{-offset t}: ``decaying`` has those with
    offset > 0, less the tail that ``_cut_tail`` proves negligible,
    ``growing`` the others, each e^{pi j t} with j = ``shift``.
    """

    panel_rate: np.ndarray  # (P,)
    node_rate: np.ndarray   # (Q,)
    weights: np.ndarray     # (2P, Q)
    decaying: _Moments
    growing: _Moments
    shift: np.ndarray      # (G, 1)
    order: np.ndarray      # (G, 1)
    coeff: np.ndarray      # (G,)

    @classmethod
    def build(cls, nodes, weights, values, terms, panels) -> _Kernel:
        lo, base = _panel_split(nodes, panels)
        order, offset, coeff = (np.array(col, dtype=float) for col in zip(*terms))
        up = offset <= 0.0
        shift = np.round(-offset[up] / PI)
        # the closed forms need even shifts (sin^2(pi s/2) has period 2 in s),
        # at most 2 (so the plain integral converges above the switch), and m <= 1
        if order.max() > 2 or np.any(shift % 2) or np.any(shift > 2) or np.any(order[up] > 1):
            raise RuntimeError("unexpected growing term in an axis kernel")
        grow = coeff[up] @ (nodes ** order[up, None] * np.exp(-offset[up, None] * nodes))
        by_panel = np.concatenate([weights * values, weights * (values - grow)])
        return cls(-PI * lo, -PI * base, by_panel.reshape(2 * panels, -1),
                   _Moments.of(*_cut_tail(order[~up], offset[~up], coeff[~up])),
                   _Moments.of(order[up], offset[up], coeff[up]),
                   shift[:, None], order[up, None], coeff[up])

    def sin2_laplace(self, s: np.ndarray) -> np.ndarray:
        """sin^2(pi s/2) L[K](s) at each s = r^2 >= 0 of one block.

        The [0, 1] part takes P + Q exponentials per radius: one product
        of the node exponentials with ``weights`` gives each panel's sum of
        both integrands, and the panel exponentials weight those sums.
        """
        sine = np.sin(PI * (s - 2.0 * np.round(s / 2.0)) / 2.0)   # the reduction is exact
        low = s < 2.0 + _SUBTRACT_MARGIN
        n, panels = s.size, self.panel_rate.size
        e1 = _SCRATCH.get("e1", panels, n)
        np.multiply.outer(self.panel_rate, s, out=e1)
        np.exp(e1, out=e1)
        e2 = _SCRATCH.get("e2", self.node_rate.size, n)
        np.multiply.outer(self.node_rate, s, out=e2)
        np.exp(e2, out=e2)
        m = _SCRATCH.get("m", 2 * panels, n)
        np.matmul(self.weights, e2, out=m)
        both = m.reshape(2, panels, n)
        both *= e1
        sums = both.sum(axis=1)
        inner = np.where(low, sums[1], sums[0]) + self.decaying(s)
        inner[~low] += self.growing(s[~low])
        out = sine * sine * inner
        # below the switch the growing terms' transforms m!/(pi w)^{m+1}, w = s - j,
        # times sin^2, through q = sin(pi s/2)/(pi w), which is sinc-like for small w
        w = s[low] - self.shift
        near = np.abs(w) < 1.0
        q = np.where(near, 0.5 * np.sinc(w / 2.0), sine[low] / (PI * np.where(near, 1.0, w)))
        out[low] += self.coeff @ np.where(self.order == 0, sine[low] * q, q * q)
        return out


def _laplace_sweep(kernel: _Kernel, radii) -> np.ndarray:
    """sin^2(pi r^2/2) L[K](r^2) at each radius, in near-equal blocks of at
    most _BLOCK radii.  A NaN radius or one beyond _R_MAX is a ValueError."""
    r = np.asarray(radii, dtype=float).ravel()
    inside = np.abs(r) <= _R_MAX
    if not inside.all():
        raise ValueError(f"radii must satisfy |r| <= {_R_MAX:g}, got {r[np.argmin(inside)]}")
    s = r ** 2
    blocks = np.array_split(s, max(1, -(-s.size // _BLOCK)))
    return np.concatenate([kernel.sin2_laplace(b) for b in blocks])


def _imaginary(values: np.ndarray) -> np.ndarray:
    out = np.zeros(values.shape, dtype=complex)
    out.imag = values
    return out


class MagicEvaluator:
    """Laplace tables of the four axis kernels; everything r-dependent is a
    block of exponentials times them.

    The kernel values at the [0, 1] Gauss nodes and the exponential terms
    on [1, inf) are independent of the radius, so they are built once per
    quadrature configuration (``panels_per_segment`` panels of
    ``gauss_order`` nodes), from one stacked series evaluation of both forms.
    a, b, g and g_hat are real integrals at every r >= 0; a and b come
    back as complex arrays with real part exactly 0.  The ``*_values``
    methods take radius arrays and are the only evaluation path; ``eval_*``
    are their length-1 case.  ``eval_*_propagated`` evaluate the
    independent contour representation.  Instances are immutable after
    construction and safe to share.
    """

    def __init__(self, quad: QuadratureConfig):
        self.quad = quad
        t, w = panel_nodes(0.0, 1.0, self.quad.panels_per_segment, self.quad.gauss_order)
        kphi, kpsi = (t * t) * eval_stack(
            (form_qseries(FormId.PHI0), form_qseries(FormId.PSI_S)), 1j / t).real
        phi, psi = _moment_terms(FormId.PHI0), _moment_terms(FormId.PSI_S)
        # a's and b's tables share one array of nodes
        self._nodes_a = self._nodes_b = t
        panels = self.quad.panels_per_segment
        self._phi = _Kernel.build(t, w, kphi, phi, panels)
        self._psi = _Kernel.build(t, w, kpsi, psi, panels)
        self._plus = _Kernel.build(t, w, kphi - WEIGHT36 * kpsi,
                                   _combine(1.0, phi, -WEIGHT36, psi), panels)
        self._minus = _Kernel.build(t, w, -kphi - WEIGHT36 * kpsi,
                                    _combine(-1.0, phi, -WEIGHT36, psi), panels)

    def a_values(self, radii) -> np.ndarray:
        """Plus eigenfunction over a radius grid (complex array, real part 0)."""
        return _imaginary(4.0 * _laplace_sweep(self._phi, radii))

    def b_values(self, radii) -> np.ndarray:
        """Minus eigenfunction over a radius grid (complex array, real part 0)."""
        return _imaginary(4.0 * _laplace_sweep(self._psi, radii))

    def g_values(self, radii) -> np.ndarray:
        return -_G_SCALE * _laplace_sweep(self._plus, radii)

    def g_hat_values(self, radii) -> np.ndarray:
        return _G_SCALE * _laplace_sweep(self._minus, radii)

    def eval_a(self, r: float) -> complex:
        return complex(self.a_values([r])[0])

    def eval_b(self, r: float) -> complex:
        return complex(self.b_values([r])[0])

    def eval_g(self, r: float) -> float:
        return float(self.g_values([r])[0])

    def eval_g_hat(self, r: float) -> float:
        return float(self.g_hat_values([r])[0])

    # -- the contour oracle --------------------------------------------------

    def eval_a_propagated(self, r: float) -> complex:
        """a(r) through the six-leg contour, independent of the Laplace tables."""
        return _contour_value(FormId.PHI0, r, self.quad)

    def eval_b_propagated(self, r: float) -> complex:
        """b(r) through the six-leg contour, independent of the Laplace tables."""
        return _contour_value(FormId.PSI_S, r, self.quad)


@lru_cache(maxsize=4)
def default_evaluator(quad: QuadratureConfig) -> MagicEvaluator:
    """Shared evaluator per quadrature configuration.

    Building the Laplace tables costs one stacked series evaluation of both
    forms on the [0, 1] nodes, the check that those nodes split into panel ends
    plus the first panel's nodes, and the four kernels' moment terms, cut
    to their proven-negligible tail: a few milliseconds once the exact
    series are cached.
    """
    return MagicEvaluator(quad)


# ---------------------------------------------------------------------------
# the six-leg contour: the oracle
# ---------------------------------------------------------------------------

#: decay rate and leading-coefficient envelope of each ray integrand, used
#: in certified tail bounds (factor 2 of safety)
_RAY_TAIL = {FormId.PHI0: (2.0 * PI, 2.0 * 518400.0), FormId.PSI_S: (PI, 2.0 * 10240.0)}

#: the contour's vertical ray is cut at Im(z) = _RAY_END, where the certified
#: bound on the dropped tail (``_check_ray_tail``) must be within _RAY_TAIL_TOL
_RAY_END = 12.0
_RAY_TAIL_TOL = 1e-12


@dataclass(frozen=True)
class ContourSegment:
    """One straight leg (or the vertical ray) of a contour integral.

    The integrand, without the exponential factor exp(pi*i*r^2*z), is the
    form (``FormId.PHI0`` or ``FormId.PSI_S``) pulled back by the leg map
    z -> -1/(z+shift) with weight (z+shift)^2, or the form itself at z when
    ``shift`` is None (the direct ray).
    """

    start: complex
    end: complex
    form: FormId
    shift: int | None
    coefficient: complex
    is_ray: bool = False

    def __post_init__(self):
        if self.is_ray:
            if self.start.imag <= 0:
                raise ValueError("ray must start in the upper half-plane")
        else:
            mid = (self.start + self.end) / 2.0
            if self.start != self.end and mid.imag <= 0:
                raise ValueError("segment interior must stay in the upper half-plane")

    def kernel(self, z: np.ndarray) -> np.ndarray:
        """Integrand without the exponential factor at the nodes z: one series eval."""
        series = form_qseries(self.form)
        if self.shift is None:
            return series.eval(z)
        w = z + self.shift
        return series.eval(-1.0 / w) * w ** 2


def contour_segments(form: FormId) -> list[ContourSegment]:
    """The six legs whose integral sum defines a(r) (phi0) or b(r) (psi_s).

    Legs follow the drawn orientation: -1 -> -1+i -> i, 1 -> 1+i -> i,
    i -> 0 with coefficient +2 (same as -2 times the 0 -> i integral),
    and the ray i -> i*inf with coefficient +2 for a and -2 for b.
    """
    ray = {FormId.PHI0: 2.0, FormId.PSI_S: -2.0}[form]
    return [
        ContourSegment(-1.0 + 0j, -1.0 + 1j, form, 1, 1.0),
        ContourSegment(-1.0 + 1j, 1j, form, 1, 1.0),
        ContourSegment(1.0 + 0j, 1.0 + 1j, form, -1, 1.0),
        ContourSegment(1.0 + 1j, 1j, form, -1, 1.0),
        ContourSegment(1j, 0j, form, 0, 2.0),
        ContourSegment(1j, 1j, form, None, ray, is_ray=True),
    ]


def _check_ray_tail(form: FormId, r2: float) -> None:
    decay, coeff = _RAY_TAIL[form]
    rate = decay + PI * r2
    tail = coeff * math.exp(-rate * _RAY_END) / rate
    if tail > _RAY_TAIL_TOL:
        raise TailBoundViolated(f"ray tail {tail:.3g} above tol {_RAY_TAIL_TOL} at T={_RAY_END}")


def _segment_nodes(seg: ContourSegment, quad: QuadratureConfig) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes and complex weights (including kernel values and coefficient)."""
    if seg.is_ray:
        nodes_t, weights_t = panel_nodes(seg.start.imag, _RAY_END,
                                         quad.panels_per_segment, quad.gauss_order)
        nodes, weights = 1j * nodes_t, 1j * weights_t
    elif seg.start == seg.end:
        return np.zeros(0, dtype=complex), np.zeros(0, dtype=complex)
    else:
        nodes, weights = panel_nodes(seg.start, seg.end,
                                     quad.panels_per_segment, quad.gauss_order)
    return nodes, seg.coefficient * weights * seg.kernel(nodes)


def segment_integral(seg: ContourSegment, r2: float, quad: QuadratureConfig) -> complex:
    """Integral of the segment's integrand times exp(pi*i*r2*z), with coefficient.

    Endpoints on the real axis are regular: the integrands vanish to all
    orders as the axis is approached vertically, and Gauss nodes never sit
    on an endpoint anyway.
    """
    if seg.is_ray:
        _check_ray_tail(seg.form, r2)
    nodes, weights = _segment_nodes(seg, quad)
    return complex((weights * np.exp(1j * PI * r2 * nodes)).sum())


@lru_cache(maxsize=4)
def _contour_table(form: FormId, quad: QuadratureConfig) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of all six legs of one function, concatenated."""
    _check_ray_tail(form, 0.0)
    parts = [_segment_nodes(seg, quad) for seg in contour_segments(form)]
    return np.concatenate([n for n, _ in parts]), np.concatenate([w for _, w in parts])


def _contour_value(form: FormId, r: float, quad: QuadratureConfig) -> complex:
    """The six legs' sum at one radius: a (phi0) or b (psi_s)."""
    nodes, weights = _contour_table(form, quad)
    return complex(np.exp(1j * PI * (r * r * nodes)) @ weights)


# ---------------------------------------------------------------------------
# radial tables and the eigenbasis Fourier cross-check
# ---------------------------------------------------------------------------

class RadialKind(Enum):
    A = "A"          # Im a(r): the plus eigenfunction's real radial profile
    B = "B"          # Im b(r)
    G = "G"          # g(r)
    GHAT = "GHat"    # g_hat(r)


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


#: each radial profile's values at an array of radii
_PROFILES = {
    RadialKind.A: lambda ev, rs: ev.a_values(rs).imag,
    RadialKind.B: lambda ev, rs: ev.b_values(rs).imag,
    RadialKind.G: lambda ev, rs: ev.g_values(rs),
    RadialKind.GHAT: lambda ev, rs: ev.g_hat_values(rs),
}


def tabulate_radial(which: RadialKind, radii: Sequence[float],
                    evaluator: MagicEvaluator) -> RadialTable:
    """One radial profile on a grid: a single array sweep of ``evaluator``."""
    rs = np.asarray(radii, dtype=float)
    return RadialTable(rs, _PROFILES[which](evaluator, rs))


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


def _eigenbasis(s: np.ndarray) -> np.ndarray:
    """phi_k(s) = L_k^(3)(2 pi s^2) e^{-pi s^2} for k < _EIGEN_TERMS, in rows.

    One three-term recurrence on the weighted functions, x = 2 pi s^2:
    phi_0 = e^{-x/2}, phi_1 = (4 - x) phi_0 and
    (k+1) phi_{k+1} = (2k + 4 - x) phi_k - (k + 3) phi_{k-1}.
    """
    x = 2.0 * PI * s * s
    phi = np.empty((_EIGEN_TERMS,) + s.shape)
    phi[0] = np.exp(-x / 2.0)
    phi[1] = (4.0 - x) * phi[0]
    for k in range(1, _EIGEN_TERMS - 1):
        phi[k + 1] = ((2 * k + 4 - x) * phi[k] - (k + 3) * phi[k - 1]) / (k + 1)
    return phi


def hankel8(table: RadialTable, r: float) -> float:
    """8-dimensional radial Fourier transform of the tabulated profile at radius r.

    The radial eigenfunctions phi_k(s) = L_k^(3)(2 pi s^2) e^{-pi s^2} of
    the Fourier transform in R^8 have eigenvalue (-1)^k and squared norm
    (k+1)(k+2)(k+3)/96 in L^2(R^8).  The profile's coefficients

        c_k = (pi^4/3) Int_0^S f(s) phi_k(s) s^7 ds / ((k+1)(k+2)(k+3)/96)

    for k < _EIGEN_TERMS, by 16 Gauss panels of 16 nodes on the table's
    cubic interpolant with S = min(last radius, _EIGEN_END), give
    f_hat(r) = sum_k (-1)^k c_k phi_k(r).  The result is accurate only for
    a profile that is small beyond the table's end and well described by
    the first _EIGEN_TERMS eigenfunctions.  The domain is r > 0 with a
    normal r^3.
    """
    try:
        cube = float(r) ** 3
    except OverflowError:
        cube = math.inf
    if not (r > 0 and sys.float_info.min <= cube < math.inf):
        raise ValueError(f"hankel8 needs a finite r > 0 with a normal r^3, got {r}")
    radii, values = table.radii, table.values
    if len(radii) < 16:
        raise InsufficientTable("need at least 16 table points")
    if radii[-1] < 4.0:
        raise InsufficientTable("table must extend to s >= 4")
    gaps = np.diff(radii)
    if gaps.max() > 0.2:
        raise InsufficientTable(f"table spacing {gaps.max():.3g} too coarse")
    s, w = panel_nodes(0.0, min(float(radii[-1]), _EIGEN_END), 16, 16)
    k = np.arange(_EIGEN_TERMS)
    moments = _eigenbasis(s) @ (w * _cubic_interp(radii, values, s) * s ** 7)
    coeffs = (PI ** 4 / 3.0) * moments * 96.0 / ((k + 1) * (k + 2) * (k + 3))
    return float((-1.0) ** k * coeffs @ _eigenbasis(np.array(float(r))))
