"""Coefficient recurrence for first-order-in-time evolution systems.

Writing each field as a power series in t with tanh-polynomial
coefficients turns u_t = F(u) into the recurrence

    u[j+1] = (order-j coefficient of F evaluated on the truncated state) / (j+1),

which is the term-by-term antiderivative of F.  The order-j coefficient
of F only reads state coefficients 0..j, so solve() feeds the state to a
dsl.RowEvaluator one row per order, and each order computes only its own
row of every product and derivative (Taylor mode: a solve to order N
multiplies O(N^2) pairs of rows, not O(N^3)).  Earlier coefficients
never change: extending a solve to a higher order reproduces the
lower-order coefficients bitwise.

Inside solve() and the evaluator every row is a 1-D float64 array in
TanhPoly's normal form (series.trim): sums, differences, scales, the
division by j+1 and the kernels take and return arrays.  The row
functions in series are the only polynomial arithmetic; TanhPoly is
storage and evaluation, built only for the series that solve() returns,
and residual() compares the series it is given row by row as arrays.
The tests replay the same IEEE operations in the same order in plain
Python lists and compare the bits.

The product kernel (numpy, in _backend) adds the dense loops' terms in
their order, keeps the bits with a final += 0.0 and gathers at least two
columns, since numpy sums a single column pairwise.  It skips the zero
coefficients of its left factor and adds signed zeros for those of its
right factor, which gives the dense loops' bits only while every
coefficient is finite (a skipped 0*inf would have been nan).

A product with a constant factor c makes no kernel call: its row k is
the other factor's row k scaled, v * c + 0.0 per coefficient.  These are
the dense loops' bits too.  Past row 0 the constant's rows are zero, so
each column of row k is a sum from +0.0 of the one term v * c and
signed zeros; that sum is v * c, except that a -0.0 product sums to
+0.0, which is what the + 0.0 gives.  This also holds only while every
coefficient is finite.  A zero constant on the left keeps the kernel's
skip: the product is the zero constant, whatever the other factor holds.

RowEvaluator.advance() therefore checks every row it is given, solve()
and residual() check the last row as well, and all raise on the first
inf or nan instead of returning it as a number.  An overflow inside a
right-hand side reaches the new row unless it is the right factor of a
product whose left row is exactly zero, a zero constant included; there
the skip gives the exact product, zero, where the dense loops gave nan.
A nonzero constant literal that no float holds (a 400-digit integer, or
one over it, which would round to 0.0) raises a TaylorPdeError naming it
before any row is made.  Sums, differences and negations of constants
are constants too, so a product with (1/2 + 1/3) is a scale as well.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import _backend
from .dsl import PdeSystem, RowEvaluator, eval_rhs
from .errors import ConfigError
from .series import TanhPoly, TimeSeries, check_finite, sub_rows, trim


@dataclass(frozen=True)
class SeriesSolution:
    """Result of a solve: one TimeSeries per field, all the same order.

    The order and the initial profiles are read from the series, so they
    cannot disagree with them; a ConfigError refuses a series count other
    than the field count, or series of different orders.
    """

    system: PdeSystem
    series: tuple[TimeSeries, ...]

    def __post_init__(self):
        fields = self.system.fields
        if len(self.series) != len(fields):
            raise ConfigError(
                f"system has {len(fields)} fields but the solution has {len(self.series)} series"
            )
        if len({s.order for s in self.series}) > 1:
            found = ", ".join(f"{f} {s.order}" for f, s in zip(fields, self.series))
            raise ConfigError(f"every series must have the same order, got {found}")

    @property
    def order(self) -> int:
        return self.series[0].order

    @property
    def initial(self) -> tuple[TanhPoly, ...]:
        """The profiles the solve started from: each series' order-0 coefficient."""
        return tuple(s.coeffs[0] for s in self.series)

    @property
    def fields(self) -> tuple[str, ...]:
        return self.system.fields

    def eval(self, x: float, t: float) -> tuple[float, ...]:
        return tuple(s.eval(x, t) for s in self.series)


def _as_initial(initial: Sequence, nfields: int) -> list[TanhPoly]:
    polys = [p if isinstance(p, TanhPoly) else TanhPoly(p) for p in initial]
    if len(polys) != nfields:
        raise ConfigError(
            f"system has {nfields} fields but {len(polys)} initial profiles were given"
        )
    return polys


def solve(system: PdeSystem, initial: Sequence, order: int) -> SeriesSolution:
    """Run the recurrence up to the requested truncation order.

    `initial` holds one tanh-polynomial profile per field (TanhPoly or a
    coefficient iterable).  Raising the order only appends coefficients;
    the shared prefix is bitwise identical between runs.  A TaylorPdeError
    names the order and field of the first inf or nan coefficient, in the
    profiles or in any row the recurrence makes (float KdV from 2 - 2w^2
    overflows at order 78).
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    profiles = _as_initial(initial, len(system.fields))
    columns = [[p.row()] for p in profiles]
    rhs = RowEvaluator(system)
    for j in range(order):
        rows = rhs.advance([col[j] for col in columns])
        for col, r in zip(columns, rows):
            col.append(trim(r / (j + 1)))
    subjects = [f"field {f}" for f in system.fields]
    check_finite(subjects, order, [col[order] for col in columns])
    series = (TimeSeries([p, *map(TanhPoly, col[1:])]) for p, col in zip(profiles, columns))
    return SeriesSolution(system, tuple(series))


@_backend.quiet
def residual(system: PdeSystem, solution: SeriesSolution) -> float:
    """Largest recurrence imbalance of a solution against a system.

    Re-evaluates the system's right-hand sides on the stored series and
    compares each stored coefficient with the one the update rule
    regenerates; the returned value is the maximum tanh-coefficient
    magnitude of the differences.  A solution produced by solve() for the
    same system gives exactly 0.0, since the same floating-point
    operations are replayed.  Passing a different system measures how far
    the series is from satisfying it, which is how the fixtures'
    exact-solution claims are verified.  A TaylorPdeError names the order
    and field of the first inf or nan coefficient, as in solve().
    """
    n = solution.order
    rhs = eval_rhs(system, solution.series, n - 1)
    subjects = [f"field {f}" for f in system.fields]
    check_finite(subjects, n, [s.coeffs[n].coeffs for s in solution.series])
    worst = 0.0
    for s, r in zip(solution.series, rhs):
        for j in range(n):
            regenerated = trim(r.coeffs[j].row() / (j + 1))
            gap = max(np.abs(sub_rows(s.coeffs[j + 1].row(), regenerated)).tolist())
            if gap > worst:
                worst = gap
    return worst
