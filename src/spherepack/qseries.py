"""Truncated q-expansions with exact rational coefficients.

Every (quasi)modular form in this package is stored as a ``QSeries``: a
finite window of exact ``Fraction`` coefficients in one of two nomes,

* ``Nome.Q2``: q2 = exp(2*pi*i*tau)
* ``Nome.Q4``: q4 = exp(pi*i*tau/4)

Q4 is the common nome for the Jacobi theta constants, so that the series
with half-integer exponents in exp(pi*i*tau) become honest power series.
Quotients of forms may acquire a pole at the cusp (e.g. E4^2/Delta), so a
series carries a ``lowest`` exponent that can be negative; ``coeffs[j]``
is the coefficient of nome**(lowest + j).

Exactness is the point: identity checks (Ramanujan, Jacobi, the
discriminant/eta-product match) are decided by integer arithmetic, and
floating point enters only in :func:`QSeries.eval`.

Instances are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DomainTooLow,
    NomeMismatch,
    TruncationInsufficient,
    ZeroDivisionSeries,
)

#: Default floor on Im(tau) for direct series evaluation.  Below this the
#: nome is too large for comfortable truncation and callers must go through
#: the axis-transform operations instead.
ETA_MIN_DEFAULT = 0.5

#: Default truncation order (highest retained exponent) in the Q2 nome.
DEFAULT_ORDER_Q2 = 50

#: Default truncation order in the Q4 nome.  Chosen so that evaluation at
#: Im(tau) = 0.5 (|q4| ~ 0.675) still certifies ~1e-12 tails despite the
#: sub-exponential coefficient growth of the theta quotients.
DEFAULT_ORDER_Q4 = 256


class Nome(Enum):
    """Exponential variable a series is expanded in."""

    Q2 = "q2"
    Q4 = "q4"

    def value_at(self, tau):
        """The nome at tau: cmath for a scalar, numpy elementwise for an ndarray."""
        exp = np.exp if isinstance(tau, np.ndarray) else cmath.exp
        if self is Nome.Q2:
            return exp(2j * cmath.pi * tau)
        return exp(1j * cmath.pi * tau / 4)


class QSeries:
    """Truncated Laurent series sum_{k=lowest}^{order} c_k * nome^k.

    Exponents above ``order`` are unknown (truncated), exponents below
    ``lowest`` are exactly zero.  All coefficients are ``Fraction``.
    """

    __slots__ = ("nome", "lowest", "coeffs", "_float_cache")

    def __init__(self, nome: Nome, coeffs: Sequence, lowest: int = 0):
        if not coeffs:
            raise ValueError("QSeries needs at least one coefficient slot")
        self.nome = nome
        parsed = [Fraction(c) for c in coeffs]
        lowest = int(lowest)
        # trim exact leading zeros so `lowest` reflects the true leading exponent
        while len(parsed) > 1 and parsed[0] == 0:
            parsed.pop(0)
            lowest += 1
        self.lowest = lowest
        self.coeffs = tuple(parsed)
        self._float_cache = None

    # -- basic introspection -------------------------------------------------

    @property
    def order(self) -> int:
        """Highest retained exponent."""
        return self.lowest + len(self.coeffs) - 1

    def coefficient(self, k: int) -> Fraction:
        """Exact coefficient of nome**k (0 outside the stored window).

        Raises for exponents above the truncation order, where the
        coefficient is unknown rather than zero.
        """
        if k > self.order:
            raise IndexError(f"coefficient of exponent {k} beyond order {self.order}")
        if k < self.lowest:
            return Fraction(0)
        return self.coeffs[k - self.lowest]

    def leading_exponent(self) -> int | None:
        """Exponent of the first nonzero coefficient, or None for the zero window."""
        for j, c in enumerate(self.coeffs):
            if c != 0:
                return self.lowest + j
        return None

    def support(self) -> list[int]:
        """Exponents with nonzero coefficients."""
        return [self.lowest + j for j, c in enumerate(self.coeffs) if c != 0]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        if self.nome is not other.nome:
            return False
        lo = min(self.lowest, other.lowest)
        hi = min(self.order, other.order)
        return all(self.coefficient(k) == other.coefficient(k) for k in range(lo, hi + 1))

    def __repr__(self) -> str:
        terms = [f"{c}*{self.nome.value}^{self.lowest + j}"
                 for j, c in enumerate(self.coeffs) if c != 0][:4]
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
        coeffs = [self.coefficient(k) + other.coefficient(k) for k in range(lowest, order + 1)]
        return QSeries(self.nome, coeffs, lowest)

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + (-other)

    def __neg__(self) -> "QSeries":
        return QSeries(self.nome, [-c for c in self.coeffs], self.lowest)

    def scale(self, c) -> "QSeries":
        c = Fraction(c)
        return QSeries(self.nome, [c * a for a in self.coeffs], self.lowest)

    def __mul__(self, other: "QSeries") -> "QSeries":
        self._check_nome(other)
        # First unknown exponent of the product: whichever factor truncates
        # first, shifted by the other factor's lowest exponent.
        prec = min(self.order + 1 + other.lowest, other.order + 1 + self.lowest)
        lowest = self.lowest + other.lowest
        n = prec - lowest
        if n <= 0:
            raise ValueError("product has no retained coefficients at this truncation")
        acc = [Fraction(0)] * n
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            ka = self.lowest + i
            for j, b in enumerate(other.coeffs):
                if b == 0:
                    continue
                k = ka + other.lowest + j - lowest
                if 0 <= k < n:
                    acc[k] += a * b
        return QSeries(self.nome, acc, lowest)

    def __pow__(self, n: int) -> "QSeries":
        if n < 0:
            raise ValueError("use inverse() for negative powers")
        result = QSeries(self.nome, [Fraction(1)] + [Fraction(0)] * (len(self.coeffs) - 1), 0)
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
        lead = self.leading_exponent()
        if lead is None:
            raise ZeroDivisionSeries("cannot invert the zero series")
        # u = series / nome^lead is a unit; invert it by recursion.
        u = [self.coefficient(lead + j) for j in range(self.order - lead + 1)]
        n = len(u)
        inv = [Fraction(0)] * n
        inv[0] = 1 / u[0]
        for k in range(1, n):
            s = Fraction(0)
            for j in range(1, k + 1):
                if u[j] != 0:
                    s += u[j] * inv[k - j]
            inv[k] = -s / u[0]
        return QSeries(self.nome, inv, -lead)

    def __truediv__(self, other: "QSeries") -> "QSeries":
        self._check_nome(other)
        return self * other.inverse()

    def truncate(self, order: int) -> "QSeries":
        """Drop coefficients above ``order``."""
        if order < self.lowest:
            raise ValueError("truncation below the lowest exponent")
        keep = order - self.lowest + 1
        return QSeries(self.nome, self.coeffs[:keep], self.lowest)

    # -- calculus and nome conversion ----------------------------------------

    def derivative(self) -> "QSeries":
        """Normalized derivative (1/(2*pi*i)) d/dtau.

        Acts on nome exponents as k -> k (Q2) and k -> k/8 (Q4), because
        q4^8 = q2.  Coefficients stay exact rationals.
        """
        scale = Fraction(1) if self.nome is Nome.Q2 else Fraction(1, 8)
        coeffs = [scale * (self.lowest + j) * c for j, c in enumerate(self.coeffs)]
        return QSeries(self.nome, coeffs, self.lowest)

    def to_q4(self) -> "QSeries":
        """Re-express a Q2 series in the Q4 nome (exponents multiply by 8)."""
        if self.nome is Nome.Q4:
            return self
        n = 8 * (len(self.coeffs) - 1) + 1
        coeffs = [Fraction(0)] * n
        for j, c in enumerate(self.coeffs):
            coeffs[8 * j] = c
        return QSeries(Nome.Q4, coeffs, 8 * self.lowest)

    # -- numerics --------------------------------------------------------------

    def _floats(self):
        if self._float_cache is None:
            self._float_cache = tuple(float(c) for c in self.coeffs)
        return self._float_cache

    def tail_estimate(self, abs_nome: float) -> float:
        """Geometric tail bound C * |q|^order / (1 - |q|).

        C is the largest magnitude among the last few retained coefficients,
        a pragmatic stand-in for the (sub-exponentially growing) true tail.
        """
        if abs_nome >= 1.0:
            return float("inf")
        floats = self._floats()
        nz = [abs(c) for c in floats[-12:] if c != 0.0]
        c_top = max(nz) if nz else max((abs(c) for c in floats), default=0.0)
        return c_top * abs_nome ** max(self.order, 1) / (1.0 - abs_nome)

    def eval(self, tau, tol: float = 1e-12, eta_min: float = ETA_MIN_DEFAULT):
        """Evaluate at a point, or an ndarray of points, of the upper half-plane.

        One Horner loop serves both: a scalar tau runs it on a Python complex
        nome and returns a ``complex``, an ndarray runs it elementwise and
        returns a complex array of the same shape.  Refuses points with
        Im(tau) < eta_min or NaN (DomainTooLow) and refuses to return
        values whose certified truncation tail, taken at the largest
        |nome|, exceeds ``tol`` (TruncationInsufficient).
        """
        array = isinstance(tau, np.ndarray)
        im_min = tau.imag.min() if array else tau.imag
        if not im_min >= eta_min:
            raise DomainTooLow(
                f"Im(tau) = {im_min} below eta_min = {eta_min}; "
                "use the axis-transform evaluators for low points")
        w = self.nome.value_at(tau)
        abs_w = np.abs(w) if array else abs(w)
        abs_min, abs_max = (abs_w.min(), abs_w.max()) if array else (abs_w, abs_w)
        if self.lowest < 0 and abs_min < 1e-300:
            raise DomainTooLow(
                f"nome underflow at Im(tau) = {im_min} with a pole at the cusp")
        if self.tail_estimate(float(abs_max)) > tol:
            raise TruncationInsufficient(
                f"tail estimate exceeds tol={tol} at |q|={abs_max:.4g}, order {self.order}")
        acc = 0.0 + 0.0j
        for c in reversed(self._floats()):
            acc = acc * w + c
        if self.lowest:
            acc *= w ** self.lowest
        return acc


def zero_series(nome: Nome, order: int) -> QSeries:
    return QSeries(nome, [Fraction(0)] * (order + 1), 0)


def one_series(nome: Nome, order: int) -> QSeries:
    return QSeries(nome, [Fraction(1)] + [Fraction(0)] * order, 0)


def monomial(nome: Nome, k: int, order: int, c=1) -> QSeries:
    """c * nome^k truncated at ``order``."""
    if k > order:
        raise ValueError("monomial exponent above truncation order")
    coeffs = [Fraction(0)] * (order + 1)
    coeffs[k] = Fraction(c)
    return QSeries(nome, coeffs, 0)


def from_coefficients(nome: Nome, pairs: Iterable[tuple[int, object]], order: int) -> QSeries:
    """Series with the given (exponent, coefficient) pairs, 0 elsewhere."""
    pairs = list(pairs)
    lowest = min((k for k, _ in pairs), default=0)
    lowest = min(lowest, 0)
    coeffs = [Fraction(0)] * (order - lowest + 1)
    for k, c in pairs:
        if k > order:
            raise ValueError(f"exponent {k} above truncation order {order}")
        coeffs[k - lowest] += Fraction(c)
    return QSeries(nome, coeffs, lowest)
