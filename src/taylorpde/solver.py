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
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .dsl import PdeSystem, RowEvaluator, eval_rhs
from .errors import ConfigError
from .series import TanhPoly, TimeSeries


@dataclass(frozen=True)
class SeriesSolution:
    """Result of a solve: one TimeSeries per field, all the same order.

    `initial` keeps the profiles the solve started from; the order-0
    coefficient of each series equals the matching entry exactly.
    """

    system: PdeSystem
    order: int
    series: tuple[TimeSeries, ...]
    initial: tuple[TanhPoly, ...]

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
    the shared prefix is bitwise identical between runs.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    profiles = _as_initial(initial, len(system.fields))
    columns = [[p] for p in profiles]
    rhs = RowEvaluator(system)
    for j in range(order):
        for col, r in zip(columns, rhs.advance([col[j] for col in columns])):
            col.append(r / (j + 1))
    return SeriesSolution(
        system, order, tuple(TimeSeries(col) for col in columns), tuple(profiles)
    )


def residual(system: PdeSystem, solution: SeriesSolution) -> float:
    """Largest recurrence imbalance of a solution against a system.

    Re-evaluates the system's right-hand sides on the stored series and
    compares each stored coefficient with the one the update rule
    regenerates; the returned value is the maximum tanh-coefficient
    magnitude of the differences.  A solution produced by solve() for the
    same system gives exactly 0.0, since the same floating-point
    operations are replayed.  Passing a different system measures how far
    the series is from satisfying it, which is how the fixtures'
    exact-solution claims are verified.
    """
    n = solution.order
    rhs = eval_rhs(system, solution.series, n - 1)
    worst = 0.0
    for s, r in zip(solution.series, rhs):
        for j in range(n):
            regenerated = r.coeffs[j] / (j + 1)
            gap = (s.coeffs[j + 1] - regenerated).max_abs()
            if gap > worst:
                worst = gap
    return worst
