import math
import struct

import pytest

from taylorpde import (
    ConfigError,
    FIXTURES,
    SeriesSolution,
    TanhPoly,
    TaylorPdeError,
    TimeSeries,
    parse_system,
    residual,
    solve,
)
from taylorpde import _backend
from taylorpde.dsl import Add, Const, Deriv, Field, Mul, Neg, Pow, Sub, eval_rhs


class TestRecurrence:
    def test_riccati_low_order_coefficients(self, riccati):
        # Hand-derivable: u1 = -5.5*(1 - w^2), u2 = u1 * 5.5 * w * 2 / 2.
        sol = solve(riccati.system, riccati.initial, 2)
        assert sol.series[0].coeffs[1] == TanhPoly([-5.5, 0.0, 5.5])
        assert sol.series[0].coeffs[2] == TanhPoly([0.0, -30.25, 0.0, 30.25])

    def test_advection_first_coefficient(self, transport):
        sol = solve(transport.system, transport.initial, 1)
        assert sol.series[0].coeffs[1] == TanhPoly([-2.75, 0.0, 2.75])

    def test_static_system_has_zero_updates(self):
        sys = parse_system("u' = 0")
        sol = solve(sys, [TanhPoly([0.3, 0.7])], 4)
        assert sol.series[0].coeffs[0] == TanhPoly([0.3, 0.7])
        assert all(p == TanhPoly.zero() for p in sol.series[0].coeffs[1:])

    def test_linear_growth_matches_exponential(self):
        # u' = c*u from constant a has coefficients a*c^j/j!.
        sys = parse_system("u' = 3/2 * u")
        sol = solve(sys, [TanhPoly([2.0])], 12)
        for j, p in enumerate(sol.series[0].coeffs):
            expected = 2.0 * 1.5**j / math.factorial(j)
            assert p.coeffs[0] == pytest.approx(expected, rel=1e-12)
            assert p.degree == 0

    def test_prefix_stability_is_exact(self, riccati):
        lo = solve(riccati.system, riccati.initial, 6)
        hi = solve(riccati.system, riccati.initial, 11)
        assert hi.series[0].coeffs[:7] == lo.series[0].coeffs

    def test_initial_profile_kept_exactly(self, coupled):
        sol = solve(coupled.system, coupled.initial, 3)
        assert sol.initial == coupled.initial
        for series, init in zip(sol.series, coupled.initial):
            assert series.coeffs[0] == init

    def test_order_validation(self, riccati):
        with pytest.raises(ValueError):
            solve(riccati.system, riccati.initial, 0)

    def test_initial_length_validation(self, coupled):
        with pytest.raises(
            ConfigError, match="^system has 3 fields but 2 initial profiles were given$"
        ):
            solve(coupled.system, coupled.initial[:2], 3)

    def test_first_non_finite_row_raises(self):
        # Float KdV from 2 sech^2 overflows at order 78; order 77 is finite.
        kdv = parse_system("u' = -6*u*u_x - u_xxx\n")
        initial = [TanhPoly([2.0, 0.0, -2.0])]
        sol = solve(kdv, initial, 77)
        assert all(math.isfinite(c) for p in sol.series[0].coeffs for c in p.coeffs)
        with pytest.raises(TaylorPdeError, match="order 78 of field u") as err:
            solve(kdv, initial, 80)
        assert type(err.value) is TaylorPdeError

    def test_non_finite_profile_raises(self, coupled):
        initial = list(coupled.initial)
        initial[1] = TanhPoly([1.0, math.inf])
        with pytest.raises(TaylorPdeError, match="order 0 of field v .* w\\^1 is inf"):
            solve(coupled.system, initial, 3)

    def test_initial_accepts_plain_lists(self, riccati):
        sol = solve(riccati.system, [[0.0, 1.0]], 2)
        assert sol.series[0].coeffs[1] == TanhPoly([-5.5, 0.0, 5.5])


class TestResidual:
    def test_fresh_solves_balance_exactly(self, riccati, coupled, transport):
        for fx in (riccati, coupled, transport):
            for order in (5, 10, 20):
                sol = solve(fx.system, fx.initial, order)
                assert residual(fx.system, sol) <= 1e-12

    def test_wrong_system_reports_mismatch_size(self, riccati):
        sol = solve(riccati.system, riccati.initial, 1)
        static = parse_system("u' = 0")
        assert residual(static, sol) == 5.5

    def test_exact_waves_balance_the_transport_system(self, coupled, transport):
        # The coupled fixture's solution series are traveling kinks, so the
        # pure-advection system is satisfied too.  At low orders every
        # quantity involved is an exactly representable dyadic, so the two
        # independently computed routes agree to the last bit.
        sol = solve(coupled.system, coupled.initial, 5)
        assert residual(transport.system, sol) <= 1e-12

    def test_coupled_and_transport_coefficients_agree(self, coupled, transport):
        # Same exact solution generated through a nonlinear and a linear
        # recurrence; float drift grows with coefficient magnitude, so the
        # comparison is relative to each coefficient's scale.
        a = solve(coupled.system, coupled.initial, 10)
        b = solve(transport.system, transport.initial, 10)
        for sa, sb in zip(a.series, b.series):
            for pa, pb in zip(sa.coeffs, sb.coeffs):
                scale = max(pa.max_abs(), pb.max_abs(), 1.0)
                assert (pa - pb).max_abs() / scale < 1e-13


class TestAgainstExactWaves:
    def test_riccati_eval_inside_radius(self, riccati, riccati15):
        wave = riccati.waves[0]
        for x, t in ((0.0, 0.1), (1.0, 0.15), (-2.0, 0.2), (5.0, 0.4)):
            assert riccati15.series[0].eval(x, t) == pytest.approx(wave(x, t), abs=1e-5)

    def test_coupled_eval_all_fields(self, coupled, coupled20):
        for series, wave in zip(coupled20.series, coupled.waves):
            assert series.eval(1.0, 0.1) == pytest.approx(wave(1.0, 0.1), abs=1e-10)

    def test_solution_eval_returns_tuple(self, coupled20):
        values = coupled20.eval(0.0, 0.05)
        assert len(values) == 3


def test_series_solution_immutable(riccati15):
    with pytest.raises(Exception):
        riccati15.order = 3


def test_third_order_derivative_system_runs():
    # Dispersive right-hand side: exercises repeated d/dx bookkeeping.
    sys = parse_system("u' = d_x^3(u) + u^2 * u_x")
    sol = solve(sys, [TanhPoly([0.0, 1.0])], 4)
    assert sol.order == 4
    assert sol.series[0].coeffs[1].degree == 4


@pytest.mark.parametrize(
    ("row", "bad", "message"),
    [
        # Row 2 reaches the zero-skipping kernels through eval_rhs.
        (2, [0.0, math.inf], "^order 2 of field v is not finite: coefficient of w\\^1 is inf$"),
        # Row 3, the last, is only compared; a nan there can vanish in max().
        (3, [math.nan, 1.0], "^order 3 of field v is not finite: coefficient of w\\^0 is nan$"),
    ],
    ids=["kernel-row", "last-row"],
)
def test_residual_raises_on_non_finite_stored_row(coupled, row, bad, message):
    sol = solve(coupled.system, coupled.initial, 3)
    series = list(sol.series)
    rows = list(series[1].coeffs)
    rows[row] = TanhPoly(bad)
    series[1] = TimeSeries(rows)
    tampered = SeriesSolution(coupled.system, 3, tuple(series), sol.initial)
    with pytest.raises(TaylorPdeError, match=message) as err:
        residual(coupled.system, tampered)
    assert type(err.value) is TaylorPdeError


def test_handmade_solution_residual_measures_imbalance():
    sys = parse_system("u' = u")
    good = solve(sys, [TanhPoly([1.0])], 3)
    series = good.series
    tampered = SeriesSolution(sys, 3, series, good.initial)
    wrong_sys = parse_system("u' = 2 * u")
    assert residual(wrong_sys, tampered) > 0.4


# The whole-series evaluation that solve() ran before it advanced one row
# per order: at every order j each node recomputes its rows 0..j, as a list
# of TanhPoly rows with products through TimeSeries.mul, and only row j is
# kept.  It is the reference the row evaluator must match bit for bit.
def _reference_eval_rhs(system, state, order):
    trunc = [list(s.coeffs[: order + 1]) for s in state]
    assert all(len(rows) == order + 1 for rows in trunc)
    deriv_cache = {}

    def product(a, b):
        return list(TimeSeries(a).mul(TimeSeries(b), order).coeffs)

    def ev(node):
        if isinstance(node, Const):
            return [TanhPoly([float(node.value)])] + [TanhPoly.zero()] * order
        if isinstance(node, Field):
            return trunc[node.index]
        if isinstance(node, Deriv):
            key = (node.index, node.order)
            if key not in deriv_cache:
                rows = trunc[node.index]
                for _ in range(node.order):
                    rows = [p.dx() for p in rows]
                deriv_cache[key] = rows
            return deriv_cache[key]
        if isinstance(node, Add):
            return [a + b for a, b in zip(ev(node.left), ev(node.right))]
        if isinstance(node, Sub):
            return [a - b for a, b in zip(ev(node.left), ev(node.right))]
        if isinstance(node, Mul):
            return product(ev(node.left), ev(node.right))
        if isinstance(node, Neg):
            return [-a for a in ev(node.operand)]
        if isinstance(node, Pow):
            base = ev(node.base)
            out = base
            for _ in range(node.exponent - 1):
                out = product(out, base)
            return out
        raise TypeError(f"not an expression node: {node!r}")

    return tuple(TimeSeries(ev(eq)) for eq in system.equations)


def _reference_solve(system, initial, order):
    columns = [[p] for p in initial]
    for j in range(order):
        state = [TimeSeries(col) for col in columns]
        rhs = _reference_eval_rhs(system, state, j)
        for col, r in zip(columns, rhs):
            col.append(r.coeffs[j] / (j + 1))
    return tuple(TimeSeries(col) for col in columns)


def _bits(series):
    """Every coefficient as its IEEE bytes, so the sign of zero counts."""
    return [[[struct.pack("<d", c) for c in p.coeffs] for p in s.coeffs] for s in series]


_SYSTEMS = {name: (fx.system, fx.initial, 20) for name, fx in FIXTURES.items()}
_SYSTEMS["kdv"] = (parse_system("u' = -6*u*u_x - u_xxx"), [TanhPoly([2, 0, -2])], 15)
_SYSTEMS["mixed"] = (
    parse_system(
        "u' = -(u - v)^3 * 1/4 + v * u_xx - 1/50 * d_x^4(u)\n"
        "v' = 3/2 * u * v_x - v^2 - u\n"
    ),
    [TanhPoly([0, 0.5]), TanhPoly([1, -0.25])],
    12,
)
# series_product calls per order: one per Mul, exponent - 1 per Pow.
_PRODUCTS_PER_ORDER = {"riccati": 2, "coupled": 8, "transport": 3, "kdv": 2, "mixed": 8}


@pytest.mark.parametrize("name", list(_SYSTEMS))
def test_row_evaluator_matches_whole_series_evaluation_bitwise(name):
    system, initial, order = _SYSTEMS[name]
    expected = _reference_solve(system, initial, order)
    sol = solve(system, initial, order)
    assert _bits(sol.series) == _bits(expected)
    assert _bits(eval_rhs(system, expected, order)) == _bits(
        _reference_eval_rhs(system, expected, order)
    )


@pytest.mark.parametrize("name", list(_SYSTEMS))
def test_each_order_computes_one_product_row(name, monkeypatch):
    # Taylor mode: order j multiplies only row j of every product, so a
    # solve to order N makes N row-only kernel calls per product and the
    # work stays quadratic in N.
    system, initial, order = _SYSTEMS[name]
    kernel = _backend.series_product
    calls = []

    def recording(*args, **kwargs):
        rows = kernel(*args, **kwargs)
        calls.append(len(rows))
        return rows

    monkeypatch.setattr(_backend, "series_product", recording)
    sol = solve(system, initial, order)
    assert calls == [1] * order * _PRODUCTS_PER_ORDER[name]
    calls.clear()
    residual(system, sol)
    assert calls == [1] * order * _PRODUCTS_PER_ORDER[name]
