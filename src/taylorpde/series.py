"""Tanh polynomials, truncated time-power series, and the row arithmetic.

A TanhPoly is a polynomial in w = tanh(x).  The family is closed under
d/dx because dw/dx = 1 - w**2, so differentiating a degree-d polynomial
gives degree d+1.  A TimeSeries is a power series in t, truncated at a
fixed order, whose coefficients are TanhPoly values; the solver stores
its result as one TimeSeries per field and evaluates it at (x, t).

TanhPoly and TimeSeries are the package's boundary, storage and
evaluation: what solve and eval_rhs return and what callers pass in.
The arithmetic is on rows.  A row, one coefficient of a series in t, is
a 1-D float64 array in TanhPoly's normal form (trim).  add_rows,
sub_rows, dx_row and dx_rows here, numpy's negation, scaling and
division, and the product kernel _backend.series_product are the
package's only polynomial arithmetic; TimeSeries.mul and dx go through
them too.  dx_row is two slice ops with the bits of the dense loop that
multiplies by 1 - w**2, and dx_rows the same two ops on a grid of
given rows, with the same bits row by row.  check_finite is the one
test for inf and nan coefficients and holds the one rule for which of
them an error names, and grid is the one zero-padding of rows into a
2-D array.
The tests replay these operations on plain Python lists and compare the
bits.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from typing import SupportsFloat

import numpy as np

from . import _backend
from .errors import ConfigError, TaylorPdeError
from .waves import partial_sum

def trim(coeffs):
    """coeffs (a list or a row) without trailing zeros, at least one entry
    long: the normal form that a TanhPoly stores."""
    n = len(coeffs)
    while n > 1 and coeffs[n - 1] == 0.0:
        n -= 1
    # Most rows end in a nonzero: returning them as they are skips a view.
    return coeffs if n == len(coeffs) else coeffs[:n]


def add_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a + b: the longer row, with the shorter added into its head."""
    if len(a) < len(b):
        a, b = b, a
    out = a.copy()
    out[: len(b)] += b
    return trim(out)


def sub_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a - b: the differences, then the longer row's tail, negated if it
    is b's."""
    n = min(len(a), len(b))
    out = a.copy() if len(a) >= len(b) else np.negative(b)
    np.subtract(a[:n], b[:n], out=out[:n])
    return trim(out)


def dx_row(row: np.ndarray) -> np.ndarray:
    """Derivative in x of a row: (1 - w**2) * dp/dw, in two slice ops.

    Column c is (0.0 - dp[c-2]) + dp[c], each term present where its
    index is: the dense loop's sum for the factor [1, 0, -1] without its
    zero middle term, which leaves the sum unchanged.  Overflow gives inf
    or nan with numpy's warning; the evaluator and TimeSeries.dx call it
    quietly.
    """
    return trim(_dx(row))


def dx_rows(rows: Sequence[np.ndarray]) -> list[np.ndarray]:
    """[dx_row(row) for row in rows], bit for bit, from the two slice ops
    on their grid.

    A row shorter than the grid gets +0.0 where dx_row has no term:
    dp[c] = c * 0.0 beyond its last power, and 0.0 - x is never -0.0,
    so adding that +0.0 changes no column.  Each result is a trimmed
    view of its row of one array."""
    return [trim(d[: len(row) + 1]) for d, row in zip(_dx(grid(rows)), rows)]


def _dx(rows: np.ndarray) -> np.ndarray:
    """The x-derivative of one row or of each row of a 2-D array, one
    column longer, untrimmed."""
    n = rows.shape[-1]
    dp = np.arange(1.0, n) * rows[..., 1:]
    out = np.zeros((*rows.shape[:-1], n + 1))
    np.subtract(0.0, dp, out=out[..., 2:])
    out[..., : n - 1] += dp
    return out


def grid(rows: Sequence) -> np.ndarray:
    """rows (arrays or coefficient tuples) as the rows of one float64
    array, each padded with +0.0 to the longest; no rows give a 0 x 0
    array."""
    if not rows:
        return np.zeros((0, 0))
    lengths = np.array([len(r) for r in rows])
    out = np.zeros((len(rows), lengths.max()))
    out[np.arange(out.shape[1]) < lengths[:, None]] = np.concatenate(rows)  # row by row
    return out


def check_finite(subjects: Sequence[str], orders: Iterable[Sequence], first: int = 0) -> None:
    """Raise on the first inf or nan coefficient of orders, numbered from
    first, each one row (array or coefficient tuple) per subject, a
    phrase such as "field u" that the message names.

    First means the lowest order, then the first subject, then the
    lowest power.  One np.isfinite pass reads every row; only on failure
    are they scanned order by order.
    """
    orders = list(orders)
    rows = [row for order in orders for row in order]
    if not rows or np.isfinite(np.concatenate(rows)).all():
        return
    for j, order in enumerate(orders, first):
        for subject, row in zip(subjects, order):
            finite = np.isfinite(row)
            if not finite.all():
                p = int(finite.argmin())
                raise TaylorPdeError(
                    f"order {j} of {subject} is not finite: "
                    f"coefficient of w^{p} is {float(row[p])!r}"
                )


class TanhPoly:
    """Polynomial in w = tanh(x), stored dense from degree 0 up.

    Trailing zero coefficients are stripped on construction; the zero
    polynomial is stored as a single 0.0, so equal values always have
    equal representations.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[SupportsFloat] | np.ndarray):
        if isinstance(coeffs, np.ndarray):
            values = coeffs.astype(float, copy=False).tolist()
        else:
            values = [float(c) for c in coeffs]
        if not values:
            values = [0.0]
        self._coeffs = tuple(trim(values))

    @property
    def coeffs(self) -> tuple[float, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    def max_abs(self) -> float:
        return max(abs(c) for c in self._coeffs)

    def row(self) -> np.ndarray:
        """The coefficients as a new float64 array: the evaluator's row."""
        return np.fromiter(self._coeffs, float, len(self._coeffs))

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

    def __init__(self, coeffs: Iterable[TanhPoly | SupportsFloat | Iterable]):
        polys = []
        for c in coeffs:
            if isinstance(c, TanhPoly):
                polys.append(c)
            elif isinstance(c, Iterable):
                polys.append(TanhPoly(c))
            else:
                polys.append(TanhPoly([c]))
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

        Kept for the benchmark's series.mul span, which wraps it by name;
        the solver multiplies rows through _backend.series_product.
        Raises ConfigError when either factor carries fewer than order+1
        coefficients: those products would be silently wrong.  The kernel
        matches the dense product only on finite rows, so a TaylorPdeError
        names the first inf or nan coefficient in rows 0..order of either
        factor, order by order, and then of the product, which can
        overflow.
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
        rows_a = [p.coeffs for p in self._coeffs[: order + 1]]
        rows_b = [p.coeffs for p in other._coeffs[: order + 1]]
        check_finite(("the left factor", "the right factor"), zip(rows_a, rows_b))
        rows = _backend.series_product(rows_a, rows_b, order)
        check_finite(("the product",), zip(rows))
        return TimeSeries([TanhPoly(row) for row in rows])

    @_backend.quiet
    def dx(self, k: int = 1) -> TimeSeries:
        """The k-th derivative in x, every row at once through dx_rows.

        Kept for the benchmark's series.dx span, which wraps it by name.
        A TaylorPdeError names the first inf or nan coefficient, order by
        order, of the series and then of the derivative, which can
        overflow.
        """
        if k < 1:
            raise ValueError("derivative order must be at least 1")
        rows = [p.row() for p in self._coeffs]
        check_finite(("the series",), zip(rows))
        for _ in range(k):
            rows = dx_rows(rows)
        check_finite(("the derivative",), zip(rows))
        return TimeSeries(map(TanhPoly, rows))

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
