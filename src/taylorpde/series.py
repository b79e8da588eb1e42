"""Storage for truncated time-power series over tanh polynomials.

A TanhPoly is a polynomial in w = tanh(x).  The family is closed under
d/dx because dw/dx = 1 - w**2, so differentiating a degree-d polynomial
gives degree d+1.  A TimeSeries is a power series in t, truncated at a
fixed order, whose coefficients are TanhPoly values; the solver stores
its result as one TimeSeries per field and evaluates it at (x, t).

All coefficient storage is float.  Products go through the kernels in
_backend, which skip zero coefficients and so need finite inputs to give
the dense loops' bits.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction

from . import _backend
from .errors import ConfigError
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

    def max_abs(self) -> float:
        return max(abs(c) for c in self._coeffs)

    def __add__(self, other: TanhPoly) -> TanhPoly:
        if not isinstance(other, TanhPoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return TanhPoly(out)

    def __neg__(self) -> TanhPoly:
        return TanhPoly([-c for c in self._coeffs])

    def __sub__(self, other: TanhPoly) -> TanhPoly:
        if not isinstance(other, TanhPoly):
            return NotImplemented
        return self + (-other)

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


class TimeSeries:
    """Power series in t with TanhPoly coefficients, truncated at a fixed
    order.

    The order is len(coeffs) - 1 and is part of the value: nothing here
    extends it, and mul() demands an explicit target order no larger
    than either factor supports.
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

    @property
    def coeffs(self) -> tuple[TanhPoly, ...]:
        return self._coeffs

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    def mul(self, other: TimeSeries, order: int) -> TimeSeries:
        """Cauchy product truncated at the given order.

        Kept for the tests' bitwise reference and the benchmark's series.mul
        span, which wraps it by name.  Raises ConfigError when either factor
        carries fewer than order+1 coefficients: those products would be
        silently wrong.
        """
        if order < 0:
            raise ValueError("order must be nonnegative")
        short = min(self.order, other.order)
        if order > short:
            raise ConfigError(
                f"product truncated at order {order} needs both factors to "
                f"carry {order + 1} coefficients; have orders "
                f"{self.order} and {other.order}"
            )
        rows_a = [p.coeffs for p in self._coeffs]
        rows_b = [p.coeffs for p in other._coeffs]
        rows = _backend.series_product(rows_a, rows_b, order)
        return TimeSeries([TanhPoly(row) for row in rows])

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
