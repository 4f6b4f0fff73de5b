"""Truncated q-expansions with exact rational coefficients.

Every (quasi)modular form in this package is stored as a ``QSeries``: a
finite window of exact rational coefficients, held as integer numerators
over one common denominator, in one of two nomes,

* ``Nome.Q2``: q2 = exp(2*pi*i*tau)
* ``Nome.Q4``: q4 = exp(pi*i*tau/4)

Q4 is the common nome for the Jacobi theta constants, so that the series
with half-integer exponents in exp(pi*i*tau) become honest power series.
Quotients of forms may acquire a pole at the cusp (e.g. E4^2/Delta), so a
series carries a ``lowest`` exponent that can be negative; ``num[j]/den``
is the coefficient of nome**(lowest + j).

Exactness is the point: identity checks (Ramanujan, Jacobi, the
discriminant/eta-product match) are decided by integer arithmetic, and
floating point enters only in evaluation, at Im(tau) >= ``ETA_MIN``:
:meth:`QSeries.eval`, one complex Horner loop for a number and an array
alike, that stops at a proven top cut (``top_cut``) taken once per call,
beside the ``tail_estimate`` estimate of the terms above ``order``.
Every ring operation runs on Python ints;
``Fraction`` appears only where coefficients enter (the constructor,
:meth:`QSeries.scale`) and leave (:meth:`QSeries.coefficient`, ``repr``).
The module runs on the standard library: numpy is imported only when an
ndarray is evaluated.

Instances are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import cmath
import math
import numbers
from fractions import Fraction
from enum import Enum
from typing import Iterable, Sequence

from .errors import (
    DomainTooLow,
    NomeMismatch,
    TruncationInsufficient,
    ZeroDivisionSeries,
)

#: Floor on Im(tau) for direct series evaluation.  Below this the nome is
#: too large for comfortable truncation and callers must go through the
#: axis-transform operations instead.
ETA_MIN = 0.5

#: ``QSeries.eval`` refuses a value whose truncation tail may exceed this.
EVAL_TOL = 1e-12

#: Default truncation order (highest retained exponent) in the Q2 nome.
DEFAULT_ORDER_Q2 = 50

#: Default truncation order in the Q4 nome.  Chosen so that evaluation at
#: Im(tau) = 0.5 (|q4| ~ 0.675) still certifies ~1e-12 tails despite the
#: sub-exponential coefficient growth of the theta quotients.
DEFAULT_ORDER_Q4 = 256

#: ``top_cut``'s bound on the dropped terms, as a fraction of the leading one
_TERM_CUT = 2.0 ** -60


class Nome(Enum):
    """Exponential variable a series is expanded in."""

    Q2 = "q2"
    Q4 = "q4"

    def value_at(self, tau):
        """The nome at tau: cmath for a number (numpy scalars included), numpy
        elementwise for an ndarray.  tau first drops k = Re(tau) - fmod(Re(tau), P),
        the exact multiple of the nome's period P (1 for Q2, 8 for Q4); k is 0,
        and tau keeps its bits, where |Re(tau)| < P."""
        period = 1.0 if self is Nome.Q2 else 8.0
        if isinstance(tau, numbers.Number):
            exp = cmath.exp
            k = tau.real - math.fmod(tau.real, period)
            if k:
                tau = tau - k
        else:
            import numpy as np
            exp = np.exp
            tau = tau - (tau.real - np.fmod(tau.real, period))
        if self is Nome.Q2:
            return exp(2j * cmath.pi * tau)
        return exp(1j * cmath.pi * tau / 4)


class QSeries:
    """Truncated Laurent series sum_{k=lowest}^{order} (num[k-lowest]/den) * nome^k.

    Exponents above ``order`` are unknown (truncated), exponents below
    ``lowest`` are exactly zero.  ``num`` is a tuple of ints and ``den`` a
    positive int with gcd(den, *num) = 1; ``num[0]`` is nonzero unless the
    window is zero.  The constructor takes ints or ``Fraction``s.
    """

    __slots__ = ("nome", "lowest", "num", "den", "_float_cache")

    def __init__(self, nome: Nome, coeffs: Sequence, lowest: int = 0):
        parsed = [c if isinstance(c, int) else Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in parsed))
        self._set(nome, [c.numerator * (den // c.denominator) for c in parsed], den, lowest)

    @classmethod
    def _make(cls, nome: Nome, num: Sequence[int], den: int, lowest: int) -> "QSeries":
        """Series from integer numerators over a positive denominator."""
        series = cls.__new__(cls)
        series._set(nome, num, den, lowest)
        return series

    def _set(self, nome: Nome, num: Sequence[int], den: int, lowest: int) -> None:
        if not num:
            raise ValueError("QSeries needs at least one coefficient slot")
        # trim exact leading zeros so `lowest` reflects the true leading exponent
        first = next((j for j, n in enumerate(num) if n), len(num) - 1)
        g = math.gcd(den, *num)
        self.nome = nome
        self.lowest = int(lowest) + first
        self.num = tuple(n // g for n in num[first:]) if g > 1 else tuple(num[first:])
        self.den = den // g
        self._float_cache = None

    # -- basic introspection -------------------------------------------------

    @property
    def order(self) -> int:
        """Highest retained exponent."""
        return self.lowest + len(self.num) - 1

    def _num_at(self, k: int) -> int:
        """Numerator of nome**k over ``den``, 0 below the window."""
        return self.num[k - self.lowest] if k >= self.lowest else 0

    def coefficient(self, k: int) -> Fraction:
        """Exact coefficient of nome**k (0 outside the stored window).

        Raises for exponents above the truncation order, where the
        coefficient is unknown rather than zero.
        """
        if k > self.order:
            raise IndexError(f"coefficient of exponent {k} beyond order {self.order}")
        return Fraction(self._num_at(k), self.den)

    def is_zero(self) -> bool:
        return not self.num[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        if self.nome is not other.nome:
            return False
        lo = min(self.lowest, other.lowest)
        hi = min(self.order, other.order)
        return all(self._num_at(k) * other.den == other._num_at(k) * self.den
                   for k in range(lo, hi + 1))

    def __repr__(self) -> str:
        terms = [f"{Fraction(n, self.den)}*{self.nome.value}^{self.lowest + j}"
                 for j, n in enumerate(self.num) if n][:4]
        body = " + ".join(terms) if terms else "0"
        return f"QSeries({body} + O({self.nome.value}^{self.order + 1}))"

    # -- ring operations -----------------------------------------------------

    def _check_nome(self, other: "QSeries") -> None:
        if self.nome is not other.nome:
            raise NomeMismatch(f"cannot mix {self.nome.value} and {other.nome.value} series")

    def __add__(self, other: "QSeries") -> "QSeries":
        self._check_nome(other)
        lowest = min(self.lowest, other.lowest)
        order = min(self.order, other.order)
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        num = [a * self._num_at(k) + b * other._num_at(k) for k in range(lowest, order + 1)]
        return QSeries._make(self.nome, num, den, lowest)

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + (-other)

    def __neg__(self) -> "QSeries":
        return QSeries._make(self.nome, [-n for n in self.num], self.den, self.lowest)

    def scale(self, c) -> "QSeries":
        c = Fraction(c)
        return QSeries._make(self.nome, [c.numerator * n for n in self.num],
                             c.denominator * self.den, self.lowest)

    def __mul__(self, other: "QSeries") -> "QSeries":
        self._check_nome(other)
        # The product is known up to whichever factor truncates first,
        # shifted by the other factor's lowest exponent: min(len) slots.
        n = min(len(self.num), len(other.num))
        acc = [0] * n
        right = [(j, b) for j, b in enumerate(other.num[:n]) if b]
        for i, a in enumerate(self.num[:n]):
            if not a:
                continue
            for j, b in right:
                k = i + j
                if k >= n:
                    break
                acc[k] += a * b
        return QSeries._make(self.nome, acc, self.den * other.den, self.lowest + other.lowest)

    def __pow__(self, n: int) -> "QSeries":
        if n < 0:
            raise ValueError("use inverse() for negative powers")
        result = QSeries._make(self.nome, [1] + [0] * (len(self.num) - 1), 1, 0)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def inverse(self) -> "QSeries":
        """Multiplicative inverse; lowest exponent negates, precision shrinks by 2*lowest."""
        if self.is_zero():
            raise ZeroDivisionSeries("cannot invert the zero series")
        # self = (content/den) * nome^lowest * U with U = sum u_j nome^j, u_j
        # coprime integers.  W_k = u0^(k+1) * [nome^k] U^-1 is an integer:
        # W_0 = 1, W_k = -sum_{j=1..k} u_j u0^(j-1) W_{k-j}.
        content = math.gcd(*self.num)
        u = [x // content for x in self.num]
        u0, n = u[0], len(u)
        steps = [(j, uj * u0 ** (j - 1)) for j, uj in enumerate(u) if j and uj]
        w = [1] + [0] * (n - 1)
        for k in range(1, n):
            s = 0
            for j, e in steps:
                if j > k:
                    break
                s += e * w[k - j]
            w[k] = -s
        # [nome^k] U^-1 = W_k u0^(n-1-k) / u0^n; fold in den/content.
        num = [self.den * wk * u0 ** (n - 1 - k) for k, wk in enumerate(w)]
        den = content * u0 ** n
        if den < 0:
            num, den = [-x for x in num], -den
        return QSeries._make(self.nome, num, den, -self.lowest)

    def __truediv__(self, other: "QSeries") -> "QSeries":
        self._check_nome(other)
        return self * other.inverse()

    def truncate(self, order: int) -> "QSeries":
        """Drop coefficients above ``order``."""
        if order < self.lowest:
            raise ValueError("truncation below the lowest exponent")
        keep = order - self.lowest + 1
        return QSeries._make(self.nome, self.num[:keep], self.den, self.lowest)

    # -- calculus and nome conversion ----------------------------------------

    def derivative(self) -> "QSeries":
        """Normalized derivative (1/(2*pi*i)) d/dtau.

        Acts on nome exponents as k -> k (Q2) and k -> k/8 (Q4), because
        q4^8 = q2.  Coefficients stay exact rationals.
        """
        den = self.den if self.nome is Nome.Q2 else 8 * self.den
        num = [(self.lowest + j) * n for j, n in enumerate(self.num)]
        return QSeries._make(self.nome, num, den, self.lowest)

    def to_q4(self) -> "QSeries":
        """Re-express a Q2 series in the Q4 nome (exponents multiply by 8)."""
        if self.nome is Nome.Q4:
            return self
        num = [0] * (8 * (len(self.num) - 1) + 1)
        num[::8] = self.num
        return QSeries._make(Nome.Q4, num, self.den, 8 * self.lowest)

    # -- numerics --------------------------------------------------------------

    def _numeric(self) -> tuple[tuple[float, ...], float, int]:
        """Float coefficients (int / int is correctly rounded), the tail
        constant C and the stride, computed once.  C is the largest magnitude
        among the last few retained coefficients, a pragmatic stand-in for
        the (sub-exponentially growing) true tail.  The stride is the gcd of
        the indices j with ``num[j]`` nonzero, or 1 when there is none but 0:
        the window is nome**lowest times a polynomial in nome**stride.
        """
        if self._float_cache is None:
            floats = tuple(n / self.den for n in self.num)
            nz = [abs(c) for c in floats[-12:] if c != 0.0]
            step = math.gcd(*(j for j, n in enumerate(self.num) if n)) or 1
            self._float_cache = (floats, max(nz) if nz else max(map(abs, floats)), step)
        return self._float_cache

    def _top(self, abs_max) -> int:
        """Stride-th coefficients kept at largest |nome| abs_max: ``top_cut``
        of their sizes |c_j| r**(stride j) at the rung r = 2**(k/4) >= abs_max,
        so the cut holds at every point."""
        floats, _, step = self._numeric()
        strided = floats[::step]
        if not abs_max < 1.0:  # NaN
            return len(strided)
        k = math.ceil(4 * math.log2(max(abs_max, 1e-300)))
        return top_cut([abs(c) * 2.0 ** (k * step * j / 4) for j, c in enumerate(strided)])

    def tail_estimate(self, abs_nome: float) -> float:
        """Geometric tail bound C * |q|^order / (1 - |q|), C as in ``_numeric``."""
        if abs_nome >= 1.0:
            return float("inf")
        return self._numeric()[1] * abs_nome ** max(self.order, 1) / (1.0 - abs_nome)

    def _check(self, im_min: float, abs_min: float, abs_max: float) -> None:
        """The refusals of an evaluation whose smallest Im(tau) and whose
        smallest and largest |nome| are given: DomainTooLow on nome
        underflow with a pole at the cusp, TruncationInsufficient when the
        tail at the largest |nome| exceeds ``EVAL_TOL``."""
        if self.lowest < 0 and abs_min < 1e-300:
            raise DomainTooLow(
                f"nome underflow at Im(tau) = {im_min} with a pole at the cusp")
        if self.tail_estimate(float(abs_max)) > EVAL_TOL:
            raise TruncationInsufficient(
                f"tail estimate exceeds tol={EVAL_TOL} at |q|={abs_max:.4g}, order {self.order}")

    def eval(self, tau):
        """Evaluate at a point, or an ndarray of points, of the upper half-plane.

        One complex Horner loop: on a Python ``complex`` for a number (numpy
        scalars included), which it returns, and elementwise for an ndarray,
        which alone imports numpy, into a complex array of tau's shape.
        Refuses points with Im(tau) < ``ETA_MIN`` or NaN, or with a NaN or
        infinite Re(tau) (DomainTooLow), and values whose certified truncation
        tail, taken at the largest |nome|, exceeds ``EVAL_TOL``
        (TruncationInsufficient).

        The loop runs over the stride-th float coefficients (``_numeric``) up
        to the top cut at the largest |nome| (``_top``), in y = nome**stride
        (``stride_power``; psi_s, psi_i and the Q4 theta series step by 8 or
        4), skips the add of each zero coefficient, then multiplies by the
        complex power nome**lowest.  Where the nome is real (on the imaginary
        axis) every imaginary part stays exactly zero.
        """
        number = isinstance(tau, numbers.Number)
        if not (number or tau.size):
            return tau.astype(complex)
        im_min = _check_domain(tau)
        w = self.nome.value_at(tau if number else tau.ravel())
        size = abs(w)
        largest = size if number else size.max()
        self._check(im_min, size if number else size.min(), largest)
        floats, _, step = self._numeric()
        y = stride_power(w, step)
        *rest, top = floats[::step][:self._top(largest)]
        acc = complex(top)
        if not number:
            import numpy as np
            acc = np.full(w.size, acc)
        for c in reversed(rest):
            acc *= y
            if c:
                acc += c
        if self.lowest:
            acc *= w ** self.lowest
        return acc if number else acc.reshape(tau.shape)


def _check_domain(tau) -> float:
    """The smallest Im(tau) of tau, a number or an ndarray.  DomainTooLow
    unless it is at least ``ETA_MIN`` (NaN is not) and every Re(tau) is
    finite: a NaN or infinite one has no period to reduce by."""
    if isinstance(tau, numbers.Number):
        im_min, point = tau.imag, tau
    else:
        import numpy as np
        # the first point with a non-finite real part, or the first point
        im_min, point = tau.imag.min(), tau.flat[np.argmin(np.isfinite(tau.real))]
    if not math.isfinite(point.real):
        raise DomainTooLow(f"Re(tau) is not finite at tau = {point}")
    if not im_min >= ETA_MIN:
        raise DomainTooLow(
            f"Im(tau) = {im_min} below ETA_MIN = {ETA_MIN}; "
            "use the axis-transform evaluators for low points")
    return im_min


def top_cut(size: Sequence[float]) -> int:
    """The fewest leading terms n whose dropped sizes size[n:] sum to at most
    ``_TERM_CUT`` of the leading size, the first nonzero one.

    One proof serves the four readers.  Each passes size_j = |c_j| r**j of
    a polynomial sum_j c_j y**j read at 0 <= y <= r, whose leading term is
    c_l y**l.  The dropped terms over it, sum_{j>=n} |c_j / c_l| y**(j - l),
    only shrink as y falls, so the cut holds at every such y, below 2**-7
    of one rounding of the leading term.

    * ``QSeries._top``, once per ``QSeries.eval`` call: y = |nome|**stride,
      up to the rung r above the call's largest |nome|.
    * ``axis._table`` of ``axis._PARTS``: each P_m(y) of a row
      y**low sum_m t**m P_m(y), at y = e^{-pi t} up to r = e^{-pi}: every
      t >= 1.
    * ``axis._table`` of ``axis._LOWER``: the same at y = e^{-pi/t}: every
      t <= 1.
    * The moments on [1, inf) that ``magic`` reads off the first table,
      at every s >= 0.  A dropped term c t**m e^{-pi j t} integrates
      against e^{-pi s t} to c e^{-pi j} e^{-pi s} (x + m x**2
      + m(m-1) x**3) with x = 1/(pi (j + s)) <= 1/pi, which falls as j
      grows.  So the dropped
      moments of P_m are at most (1 + m + m(m-1)) ``_TERM_CUT`` of the
      leading term's size at t = 1, |c| e^{-pi j}, times e^{-pi s} x at the
      first dropped j: of its own moment where it decays (j >= 1).
    """
    lead = next((x for x in size if x), 0.0)
    keep, dropped = len(size), 0.0
    while keep > 1 and dropped + size[keep - 1] <= _TERM_CUT * lead:
        keep -= 1
        dropped += size[keep]
    return keep


def stride_power(w, k: int):
    """w**k for k >= 1 by repeated squaring, a fixed chain of products.

    A float w and the complex w + 0j take the same chain, so the real part
    of the complex result is the float result bit for bit.  k = 1 returns w.
    """
    power = None
    while True:
        if k & 1:
            power = w if power is None else power * w
        k >>= 1
        if not k:
            return power
        w = w * w


def one_series(nome: Nome, order: int) -> QSeries:
    return QSeries(nome, [1] + [0] * order, 0)


def from_coefficients(nome: Nome, pairs: Iterable[tuple[int, object]], order: int) -> QSeries:
    """Series with the given (exponent, coefficient) pairs, 0 elsewhere."""
    pairs = list(pairs)
    lowest = min((k for k, _ in pairs), default=0)
    lowest = min(lowest, 0)
    coeffs = [0] * (order - lowest + 1)
    for k, c in pairs:
        if k > order:
            raise ValueError(f"exponent {k} above truncation order {order}")
        coeffs[k - lowest] += c
    return QSeries(nome, coeffs, lowest)
