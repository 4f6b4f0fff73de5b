"""The magic function: contour integrals, eigenfunction combination, Hankel check.

The plus eigenfunction a and minus eigenfunction b are built from six
straight contour legs each (two rectangle sides from -1 and +1 up to i,
the leg from i down to 0, and the vertical ray from i), with integrands
assembled from phi0 respectively psi_s at inversion-transformed
arguments.  Every leg keeps its integrand argument at Im >= 1/2, where
the exact q-expansions converge fast, so the legs are plain
Gauss-Legendre panels; the ray is truncated with a certified exponential
tail bound.

Both functions are purely imaginary on real radii: each vertical leg
contributes i times a real integral and the two horizontal legs are
complex conjugates with a sign.  The real combination

    g(r)     = Re[ (pi*i/8640) a(r) - (i/(240*pi)) b(r) ]
    g_hat(r) = Re[ (pi*i/8640) a(r) + (i/(240*pi)) b(r) ]

is the Cohn-Elkies candidate and its Fourier transform (a and b are +1
and -1 eigenfunctions, so hatting g only flips the b term).  The b-term
sign is fixed by the sign conditions the certificate must satisfy
(g <= 0 beyond sqrt(2), g_hat >= 0 everywhere) and is cross-checked by
the independent Hankel-transform pipeline in this module; with the theta
and Eisenstein conventions used here, g(0) = g_hat(0) = 1 exactly.

For r >= sqrt(2) both functions collapse to single exponential-kernel
integrals along the imaginary axis (the rectangle legs cancel against
the rays by periodicity), picking up the factor -4 sin^2(pi r^2/2) that
pins the zeros at radii sqrt(2n) -- double zeros from sqrt(4) on, a
simple crossing at sqrt(2) where the kernel's cusp pole eats one order:

    a(r) = -4 sin^2(pi r^2/2) Int_0^{i inf} phi0(-1/z) z^2 e^{pi i r^2 z} dz
    b(r) = -4 sin^2(pi r^2/2) Int_0^{i inf} psi_i(z)        e^{pi i r^2 z} dz

with psi_i(z) = z^2 psi_s(-1/z).  These are evaluated independently of
the contour sums (Gauss on [0,1], exact exponential moments termwise on
[1, inf)) and serve as the representation-consistency oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import (
    InsufficientTable,
    NonRealValue,
    PropagatedDomainError,
    TailBoundViolated,
)
from .forms import (
    FormId,
    e4sq_over_delta_qseries,
    form_qseries,
    phi0_anomaly_qseries,
    phi0_qseries,
    psi_i_qseries,
)
from .quadrature import QuadratureConfig, gauss_nodes, panel_nodes

PI = math.pi

#: coefficient of the plus eigenfunction inside g
COEFF_A = 1j * PI / 8640.0
#: coefficient of the minus eigenfunction inside g; the sign makes the
#: combination satisfy the certificate's sign conditions (see module doc)
COEFF_B = -1j / (240.0 * PI)

#: |a(0)| = 8640/pi; reference scale for realness assertions
A_SCALE = 8640.0 / PI

#: decay rate and leading-coefficient envelope of each ray integrand, used
#: in certified tail bounds (factor 2 of safety)
_RAY_TAIL = {FormId.PHI0: (2.0 * PI, 2.0 * 518400.0), FormId.PSI_S: (PI, 2.0 * 10240.0)}


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


def _check_ray_tail(form: FormId, r2: float, quad: QuadratureConfig) -> None:
    decay, coeff = _RAY_TAIL[form]
    rate = decay + PI * r2
    tail = coeff * math.exp(-rate * quad.ray_truncation) / rate
    if tail > quad.tail_tol:
        raise TailBoundViolated(
            f"ray tail {tail:.3g} above tol {quad.tail_tol} at T={quad.ray_truncation}")


def _segment_nodes(seg: ContourSegment, quad: QuadratureConfig) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes and complex weights (including kernel values and coefficient)."""
    if seg.is_ray:
        nodes_t, weights_t = panel_nodes(seg.start.imag, quad.ray_truncation,
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
        _check_ray_tail(seg.form, r2, quad)
    nodes, weights = _segment_nodes(seg, quad)
    return complex((weights * np.exp(1j * PI * r2 * nodes)).sum())


def _assemble(form: FormId, quad: QuadratureConfig) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of all six legs of one function, concatenated."""
    _check_ray_tail(form, 0.0, quad)
    parts = [_segment_nodes(seg, quad) for seg in contour_segments(form)]
    return np.concatenate([n for n, _ in parts]), np.concatenate([w for _, w in parts])


_SWEEP_CHUNK = 256


def _sweep(nodes: np.ndarray, weights: np.ndarray, radii) -> np.ndarray:
    """sum_k weights_k exp(pi*i*r^2*nodes_k) at each radius (complex array),
    in near-equal blocks of at most _SWEEP_CHUNK radii, none of length 1."""
    r2 = np.asarray(radii, dtype=float).ravel() ** 2
    chunks = np.array_split(r2, max(1, -(-r2.size // _SWEEP_CHUNK)))
    return np.concatenate([np.exp(1j * PI * np.outer(c, nodes)) @ weights for c in chunks])


def _imaginary_or_raise(values: np.ndarray, label: str) -> np.ndarray:
    bad = np.abs(values.real) > 1e-8 * (np.abs(values) + A_SCALE)
    if bad.any():
        i = int(np.argmax(bad))
        raise NonRealValue(f"{label}: real part {values.real[i]} too large (value {values[i]})")
    return values


def _real_or_raise(values: np.ndarray, label: str) -> np.ndarray:
    bad = np.abs(values.imag) > 1e-7 * (np.abs(values) + 1.0)
    if bad.any():
        raise NonRealValue(f"{label}: imaginary part {values.imag[np.argmax(bad)]} too large")
    return values.real


class MagicEvaluator:
    """Precomputed contour data; everything r-dependent is one vector product.

    The kernel values on all twelve legs are independent of the radius, so
    they are computed once per quadrature configuration, one array series
    evaluation per leg; evaluating a, b, g at radii then costs one exp over
    radii x nodes.  The ``*_values`` methods take radius arrays and are the
    only evaluation path; ``eval_*`` are their length-1 case.  Instances are
    immutable after construction and safe to share.
    """

    def __init__(self, quad: QuadratureConfig | None = None):
        self.quad = quad if quad is not None else QuadratureConfig()
        self._nodes_a, self._weights_a = _assemble(FormId.PHI0, self.quad)
        self._nodes_b, self._weights_b = _assemble(FormId.PSI_S, self.quad)

    # -- contour evaluations: purely imaginary up to quadrature noise -----------

    def a_values(self, radii) -> np.ndarray:
        """Plus eigenfunction over a radius grid (complex array)."""
        return _imaginary_or_raise(_sweep(self._nodes_a, self._weights_a, radii), "a")

    def b_values(self, radii) -> np.ndarray:
        """Minus eigenfunction over a radius grid (complex array)."""
        return _imaginary_or_raise(_sweep(self._nodes_b, self._weights_b, radii), "b")

    def eval_a(self, r: float) -> complex:
        return complex(self.a_values([r])[0])

    def eval_b(self, r: float) -> complex:
        return complex(self.b_values([r])[0])

    # -- the certificate combination: real up to quadrature noise ---------------

    def g_values(self, radii) -> np.ndarray:
        combo = COEFF_A * self.a_values(radii) + COEFF_B * self.b_values(radii)
        return _real_or_raise(combo, "g")

    def g_hat_values(self, radii) -> np.ndarray:
        combo = COEFF_A * self.a_values(radii) - COEFF_B * self.b_values(radii)
        return _real_or_raise(combo, "g_hat")

    def eval_g(self, r: float) -> float:
        return float(self.g_values([r])[0])

    def eval_g_hat(self, r: float) -> float:
        return float(self.g_hat_values([r])[0])

    # -- single-integral representations (r >= sqrt(2)) -------------------------

    def eval_a_propagated(self, r: float) -> complex:
        """a(r) through the collapsed axis integral; valid for r >= sqrt(2)."""
        return _collapsed(FormId.PHI0, r, self.quad)

    def eval_b_propagated(self, r: float) -> complex:
        return _collapsed(FormId.PSI_S, r, self.quad)


def _collapsed(form: FormId, r: float, quad: QuadratureConfig) -> complex:
    """4i sin^2(pi r^2/2) Int_0^inf t^2 F(i/t) e^{-pi r^2 t} dt: a (F = phi0) or b (F = psi_s).

    At r = sqrt(2) exactly, the axis integral diverges but its
    sin^2(pi r^2/2) prefactor vanishes; the function value is 0.
    """
    r2 = r * r
    if r2 < 2.0 * (1.0 - 1e-12):
        raise PropagatedDomainError(
            f"single-integral form diverges below sqrt(2); got r = {r}")
    if abs(r2 - 2.0) < 1e-11:
        return 0j
    return 4j * math.sin(PI * r2 / 2.0) ** 2 * _laplace(form, r2, quad)


#: int_1^inf t^m e^{-c t} dt for m = 0, 1, 2
_EXP_MOMENTS = (
    lambda c: math.exp(-c) / c,
    lambda c: math.exp(-c) * (c + 1.0) / (c * c),
    lambda c: math.exp(-c) * (c * c + 2.0 * c + 2.0) / (c * c * c),
)


def _float_pairs(series):
    return [(k, float(series.coefficient(k)))
            for k in range(series.lowest, series.order + 1) if series.coefficient(k) != 0]


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


def _laplace(form: FormId, r2: float, quad: QuadratureConfig) -> float:
    """Int_0^inf t^2 F(i/t) e^{-pi r2 t} dt for r2 > 2, F = phi0 or psi_s.

    [0,1]: one array of Gauss panels on the inversion-transformed series
    (argument i/t has Im >= 1).  [1,inf): exact exponential moments of the
    integrand's q-expansion there (see ``_moment_terms``).
    """
    t, w = panel_nodes(0.0, 1.0, 4, 2 * quad.gauss_order)
    kernel = (t * t) * form_qseries(form).eval(1j / t).real
    low = float(w @ (kernel * np.exp(-PI * r2 * t)))
    high = 0.0
    for m, offset, c in _moment_terms(form):
        high += c * _EXP_MOMENTS[m](offset + PI * r2)
    return low + high


@lru_cache(maxsize=4)
def default_evaluator(quad: QuadratureConfig | None = None) -> MagicEvaluator:
    """Shared evaluator per quadrature configuration.

    Building the node tables costs one array series evaluation per leg,
    about ten milliseconds once the exact series are cached.
    """
    return MagicEvaluator(quad)


# ---------------------------------------------------------------------------
# radial tables and the Hankel-transform cross-check
# ---------------------------------------------------------------------------

class RadialKind(Enum):
    A = "A"          # Im a(r): the plus eigenfunction's real radial profile
    B = "B"          # Im b(r)
    G = "G"          # g(r)
    GHAT = "GHat"    # g_hat(r)


@dataclass(frozen=True)
class RadialTable:
    radii: tuple[float, ...]
    values: tuple[float, ...]
    which: RadialKind

    def __post_init__(self):
        if len(self.radii) != len(self.values):
            raise ValueError("radii and values must have equal length")
        if any(b <= a for a, b in zip(self.radii, self.radii[1:])):
            raise ValueError("radii must be strictly increasing")
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError("table values must be finite")


def tabulate_radial(which: RadialKind, radii: Sequence[float],
                    evaluator: MagicEvaluator | None = None) -> RadialTable:
    """Evaluate one radial profile on a grid (vectorized, deterministic)."""
    ev = evaluator if evaluator is not None else default_evaluator()
    rs = np.asarray(list(radii), dtype=float)
    if which is RadialKind.A:
        vals = ev.a_values(rs).imag
    elif which is RadialKind.B:
        vals = ev.b_values(rs).imag
    elif which is RadialKind.G:
        vals = ev.g_values(rs)
    elif which is RadialKind.GHAT:
        vals = ev.g_hat_values(rs)
    else:
        raise ValueError(f"unknown radial kind {which}")
    return RadialTable(tuple(float(r) for r in rs), tuple(float(v) for v in vals), which)


# -- Bessel J0..J3 ------------------------------------------------------------

_SERIES_CUTOFF = 12.0


def _bessel_series(n: int, x):
    """Power series of J_n, summed until every element's next term is negligible."""
    half = x / 2.0
    term = half ** n / math.factorial(n)
    total = term
    for m in range(1, 80):
        # not in place: total starts as the same object as term
        term = term * (-(half * half) / (m * (m + n)))
        total = total + term
        if np.all(np.abs(term) < 1e-18 * np.maximum(np.abs(total), 1e-300)):
            break
    return total


def _bessel_asymptotic(n: int, x):
    """Hankel asymptotic expansion of J_n, ten terms."""
    mu = 4.0 * n * n
    chi = x - (2 * n + 1) * PI / 4.0
    p, q = 1.0, 0.0
    term = 1.0
    for m in range(1, 11):
        term *= (mu - (2 * m - 1) ** 2) / (m * 8.0 * x)
        if m % 2:
            q += term if (m // 2) % 2 == 0 else -term
        else:
            p += term if (m // 2) % 2 == 0 else -term
    return np.sqrt(2.0 / (PI * x)) * (p * np.cos(chi) - q * np.sin(chi))


def bessel_j(n: int, x):
    """J_n(x) for n in 0..3 and x >= 0, a scalar or an ndarray.

    Power series below 12, asymptotics plus upward recurrence above (stable
    there since n <= 3 << x).  A scalar x returns a float.
    """
    if n < 0 or n > 3:
        raise ValueError("bessel_j supports orders 0..3")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("bessel_j expects x >= 0")
    low = x < _SERIES_CUTOFF
    out = np.empty_like(x)
    out[low] = _bessel_series(n, x[low])
    far = x[~low]
    jm, jc = _bessel_asymptotic(0, far), _bessel_asymptotic(1, far)
    for k in range(1, n):
        jm, jc = jc, (2.0 * k / far) * jc - jm
    out[~low] = jm if n == 0 else jc
    return float(out) if out.ndim == 0 else out


# -- the radial Fourier transform in dimension 8 ------------------------------

def _cubic_interp(radii: np.ndarray, values: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Local 4-point Lagrange cubic on a strictly increasing grid."""
    idx = np.searchsorted(radii, s, side="right") - 1
    idx = np.clip(idx, 0, len(radii) - 2)
    i0 = np.clip(idx - 1, 0, len(radii) - 4)
    out = np.zeros_like(s)
    for k in range(4):
        xk = radii[i0 + k]
        lk = np.ones_like(s)
        for m in range(4):
            if m == k:
                continue
            xm = radii[i0 + m]
            lk *= (s - xm) / (xk - xm)
        out += values[i0 + k] * lk
    return out


def _taper(u: np.ndarray) -> np.ndarray:
    """C^2 window: 1 at u<=0 falling to 0 at u>=1 (smootherstep complement)."""
    v = np.clip(u, 0.0, 1.0)
    return 1.0 - v ** 3 * (10.0 - 15.0 * v + 6.0 * v * v)


def hankel8(table: RadialTable, r: float, taper_start: float = 0.7) -> float:
    """8-dimensional radial Fourier transform of the tabulated profile at radius r.

    f_hat(r) = 2 pi r^{-3} Int_0^inf f(s) J_3(2 pi r s) s^4 ds, via panelwise
    Gauss resolving both the Bessel oscillation (period 1/r) and the
    profile's own oscillation, with a smooth taper over the last
    (1 - taper_start) of the table regularizing the slowly decaying
    eigenfunction tails.
    """
    if r <= 0:
        raise ValueError("hankel8 needs r > 0")
    radii = np.asarray(table.radii)
    values = np.asarray(table.values)
    if len(radii) < 16:
        raise InsufficientTable("need at least 16 table points")
    s_max = radii[-1]
    if s_max < 4.0:
        raise InsufficientTable("table must extend to s >= 4")
    gaps = np.diff(radii)
    if gaps.max() > 0.2:
        raise InsufficientTable(f"table spacing {gaps.max():.3g} too coarse")
    s0 = taper_start * s_max
    x, w = gauss_nodes(16)
    edges = [0.0]
    while edges[-1] < s_max:
        s = edges[-1]
        h = min(0.5 / r, 1.0 / max(1.0, s), s_max - s)
        edges.append(s + max(h, 1e-3))
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
        s = mid + half * x
        f = _cubic_interp(radii, values, s)
        window = _taper((s - s0) / (s_max - s0))
        total += float((w * f * window * bessel_j(3, 2.0 * PI * r * s) * s ** 4).sum() * half)
    return 2.0 * PI * total / r ** 3
