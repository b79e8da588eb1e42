"""Arithmetic for truncated time-power series over tanh polynomials.

A TanhPoly is a polynomial in w = tanh(x).  The family is closed under
d/dx because dw/dx = 1 - w**2, so differentiating a degree-d polynomial
gives degree d+1.  A TimeSeries is a truncated power series in t whose
coefficients are TanhPoly values; products are Cauchy products cut at an
explicit truncation order, never silently extended.

All coefficient storage is float.  Multiplication goes through the kernel
backend so the compiled and pure implementations stay interchangeable.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction

from . import _backend
from .errors import TruncationError
from .waves import partial_sum

_NUMBER = (int, float, Fraction)

# dp/dw gets multiplied by (1 - w**2) when differentiating in x.
_CHAIN = [1.0, 0.0, -1.0]


def _normalize(coeffs: list[float]) -> tuple[float, ...]:
    n = len(coeffs)
    while n > 1 and coeffs[n - 1] == 0.0:
        n -= 1
    return tuple(coeffs[:n])


class TanhPoly:
    """Polynomial in w = tanh(x), stored dense from degree 0 up.

    Trailing zero coefficients are stripped on construction; the zero
    polynomial is stored as a single 0.0, so equal values always have
    equal representations.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int | float | Fraction]):
        values = [float(c) for c in coeffs]
        if not values:
            values = [0.0]
        self._coeffs = _normalize(values)

    @classmethod
    def zero(cls) -> TanhPoly:
        return cls([0.0])

    @property
    def coeffs(self) -> tuple[float, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    def is_zero(self) -> bool:
        return self._coeffs == (0.0,)

    def max_abs(self) -> float:
        return max(abs(c) for c in self._coeffs)

    def __add__(self, other: TanhPoly | int | float | Fraction) -> TanhPoly:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return TanhPoly(out)

    __radd__ = __add__

    def __neg__(self) -> TanhPoly:
        return TanhPoly([-c for c in self._coeffs])

    def __sub__(self, other: TanhPoly | int | float | Fraction) -> TanhPoly:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: int | float | Fraction) -> TanhPoly:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: TanhPoly | int | float | Fraction) -> TanhPoly:
        if isinstance(other, _NUMBER):
            s = float(other)
            return TanhPoly([c * s for c in self._coeffs])
        if isinstance(other, TanhPoly):
            return TanhPoly(_backend.conv(self._coeffs, other._coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other: int | float | Fraction) -> TanhPoly:
        if not isinstance(other, _NUMBER):
            return NotImplemented
        s = float(other)
        return TanhPoly([c / s for c in self._coeffs])

    def dx(self) -> TanhPoly:
        """Derivative in x: (1 - w**2) * dp/dw."""
        dp = [i * c for i, c in enumerate(self._coeffs)][1:]
        if not dp:
            return TanhPoly.zero()
        return TanhPoly(_backend.conv(dp, _CHAIN))

    def __call__(self, x: float) -> float:
        """Evaluate at w = tanh(x) by Horner's rule."""
        return partial_sum(self._coeffs, math.tanh(x))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TanhPoly):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"TanhPoly({list(self._coeffs)!r})"


def _as_poly(value: object) -> TanhPoly:
    if isinstance(value, TanhPoly):
        return value
    if isinstance(value, _NUMBER):
        return TanhPoly([value])
    return NotImplemented


class TimeSeries:
    """Power series in t with TanhPoly coefficients, truncated at a fixed
    order.

    The order is len(coeffs) - 1 and is part of the value: operations
    never extend it, and mul() demands an explicit target order no larger
    than either factor supports.  Addition aligns factors by truncating to
    the smaller order.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[TanhPoly | int | float | Fraction | Iterable]):
        polys = []
        for c in coeffs:
            if isinstance(c, TanhPoly):
                polys.append(c)
            elif isinstance(c, _NUMBER):
                polys.append(TanhPoly([c]))
            else:
                polys.append(TanhPoly(c))
        if not polys:
            raise ValueError("a series needs at least the order-0 coefficient")
        self._coeffs = tuple(polys)

    @classmethod
    def constant(cls, value: int | float | Fraction | TanhPoly, order: int) -> TimeSeries:
        head = value if isinstance(value, TanhPoly) else TanhPoly([value])
        return cls([head] + [TanhPoly.zero()] * order)

    @classmethod
    def zero(cls, order: int) -> TimeSeries:
        return cls.constant(0.0, order)

    @classmethod
    def from_scalars(cls, values: Sequence[int | float | Fraction]) -> TimeSeries:
        return cls([TanhPoly([v]) for v in values])

    @property
    def coeffs(self) -> tuple[TanhPoly, ...]:
        return self._coeffs

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    def truncate(self, order: int) -> TimeSeries:
        if order < 0:
            raise ValueError("order must be nonnegative")
        if order > self.order:
            raise TruncationError(
                f"cannot truncate an order-{self.order} series at order {order}"
            )
        if order == self.order:
            return self
        return TimeSeries(self._coeffs[: order + 1])

    def mul(self, other: TimeSeries, order: int) -> TimeSeries:
        """Cauchy product truncated at the given order.

        Raises TruncationError when either factor carries fewer than
        order+1 coefficients: those products would be silently wrong.
        """
        if order < 0:
            raise ValueError("order must be nonnegative")
        short = min(self.order, other.order)
        if order > short:
            raise TruncationError(
                f"product truncated at order {order} needs both factors to "
                f"carry {order + 1} coefficients; have orders "
                f"{self.order} and {other.order}"
            )
        rows_a = [p.coeffs for p in self._coeffs]
        rows_b = [p.coeffs for p in other._coeffs]
        rows = _backend.series_product(rows_a, rows_b, order)
        return TimeSeries([TanhPoly(row) for row in rows])

    def __mul__(self, other: TimeSeries) -> TimeSeries:
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return self.mul(other, min(self.order, other.order))

    def __add__(self, other: TimeSeries) -> TimeSeries:
        if not isinstance(other, TimeSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return TimeSeries(
            [a + b for a, b in zip(self._coeffs[: n + 1], other._coeffs[: n + 1])]
        )

    def __sub__(self, other: TimeSeries) -> TimeSeries:
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> TimeSeries:
        return TimeSeries([-p for p in self._coeffs])

    def scale(self, factor: int | float | Fraction) -> TimeSeries:
        return TimeSeries([p * factor for p in self._coeffs])

    def integrate(self) -> TimeSeries:
        """Antiderivative in t with zero constant term; order grows by 1."""
        out = [TanhPoly.zero()]
        for j, p in enumerate(self._coeffs):
            out.append(p / (j + 1))
        return TimeSeries(out)

    def dx(self, k: int = 1) -> TimeSeries:
        if k < 1:
            raise ValueError("derivative order must be at least 1")
        polys = list(self._coeffs)
        for _ in range(k):
            polys = [p.dx() for p in polys]
        return TimeSeries(polys)

    def eval(self, x: float, t: float) -> float:
        """Evaluate the truncated series at (x, t) by Horner's rule in t.

        tanh(x) is computed once and shared by every row; each row sum is
        the same float sequence TanhPoly.__call__ runs.
        """
        w = math.tanh(x)
        return partial_sum([partial_sum(p._coeffs, w) for p in self._coeffs], t)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TimeSeries):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        rows = [list(p.coeffs) for p in self._coeffs]
        return f"TimeSeries({rows!r})"
