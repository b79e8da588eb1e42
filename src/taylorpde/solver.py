"""Coefficient recurrence for first-order-in-time evolution systems.

Writing each field as a power series in t with tanh-polynomial
coefficients turns u_t = F(u) into the recurrence

    u[j+1] = (order-j coefficient of F evaluated on the truncated state) / (j+1),

which is the term-by-term antiderivative of F.  The order-j coefficient
of F only reads state coefficients 0..j, so solve() goes order by order:
it feeds the state to a dsl.RowEvaluator one row per order (advance),
and each order computes only its own row of every product and derivative
(Taylor mode: a solve to order N multiplies O(N^2) pairs of rows, not
O(N^3)).  Earlier coefficients never change: extending a solve to a
higher order reproduces the lower-order coefficients bitwise.

residual() is given every row up front, so it goes node by node: it
hands all the stored orders to the RowEvaluator at once (extend), each
node makes its rows of every order in one step, operands first, and
each product makes all of its rows in one kernel call.  dsl.eval_rhs(),
whose series are given too, takes the same schedule, so solve() is the
only caller of advance(), the one place where row j + 1 depends on row
j.  The rows are the ones the order-by-order replay makes, bit for bit.
residual() compares every order of a field with the rows it
regenerates: how far the series is from satisfying the system, exactly
0.0 on solve()'s own output for that system.

Rows, TanhPoly's role as the boundary and the bitwise replay tests: see
series.  The product kernel's term order and zero skipping: see
_backend.  Constant folding: see dsl.RowEvaluator.

RowEvaluator.advance() and extend() check every row they are given,
solve() and residual() check the last row as well, and residual() and
eval_rhs() check every row they make, after every row they were given:
one error rule for every given series, TimeSeries.mul and dx included.
Each check is one series.check_finite call over rows order by order,
which raises a TaylorPdeError on the first inf or nan, lowest order and
then first field, instead of returning it as a number.  An overflow inside
a right-hand side reaches the new row unless a product skips it: a zero
constant on the left always does, and the kernel does where the factor
that supplies the terms, left or right, holds an exact zero; there the
skip gives the exact product, zero, where the dense loops gave nan.  A
constant that no float holds is refused before any row is made (see
dsl.RowEvaluator).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import _backend
from .dsl import PdeSystem, RowEvaluator
from .errors import ConfigError
from .series import TanhPoly, TimeSeries, check_finite, grid, trim


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
    check_finite(subjects, [[col[order] for col in columns]], order)
    series = (TimeSeries([p, *map(TanhPoly, col[1:])]) for p, col in zip(profiles, columns))
    return SeriesSolution(system, tuple(series))


@_backend.quiet
def residual(system: PdeSystem, solution: SeriesSolution) -> float:
    """Largest recurrence imbalance of a solution against a system.

    Re-evaluates the system's right-hand sides on the stored series and
    compares each stored coefficient with the one the update rule
    regenerates; the returned value is the maximum tanh-coefficient
    magnitude of the differences.  The stored rows are all given, so the
    evaluator runs node by node over every order at once
    (RowEvaluator.extend), not order by order as solve() must.  A
    solution produced by solve() for the same system gives exactly 0.0,
    since the same floating-point operations are replayed.  Passing a
    different system measures how far the series is from satisfying it,
    which is how the fixtures' exact-solution claims are verified.  A
    TaylorPdeError names the first inf or nan coefficient as in solve():
    the stored rows are checked first, lowest order and then field first,
    then the regenerated ones.  A ValueError refuses a solution of order
    0, and the evaluator's ConfigError a system whose field count is not
    the solution's.
    """
    n = solution.order
    if n < 1:
        raise ValueError("order must be at least 1")
    columns = [[p.row() for p in s.coeffs] for s in solution.series]
    made = RowEvaluator(system).extend([col[:n] for col in columns])
    subjects = [f"field {f}" for f in system.fields]
    check_finite(subjects, [[col[n] for col in columns]], n)
    # Row j of a right-hand side makes row j + 1 of its field, and
    # dividing by j + 1 keeps a coefficient finite or not.
    check_finite(subjects, zip(*made), 1)
    # Orders 1..n of each field, stored and regenerated, as two halves of
    # one grid: the zero padding gives |x - 0| = |x|, as sub_rows' tail.
    gaps = []
    for col, rows in zip(columns, made):
        both = grid([*col[1:], *rows])
        gaps.append(float(np.abs(both[:n] - both[n:] / np.arange(1.0, n + 1)[:, None]).max()))
    return max(gaps)
