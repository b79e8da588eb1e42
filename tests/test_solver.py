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
from taylorpde import _backend, cli, dsl
from taylorpde.dsl import Add, Const, Deriv, Field, Mul, Neg, PdeSystem, Pow, Sub, eval_rhs
from taylorpde.series import sub_rows
from test_kernels import _Dense


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
        assert all(p == TanhPoly([0.0]) for p in sol.series[0].coeffs[1:])

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
                assert TanhPoly(sub_rows(pa.row(), pb.row())).max_abs() / scale < 1e-13


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
        # Row 2 reaches the zero-skipping kernels through the RowEvaluator.
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
    tampered = SeriesSolution(coupled.system, tuple(series))
    with pytest.raises(TaylorPdeError, match=message) as err:
        residual(coupled.system, tampered)
    assert type(err.value) is TaylorPdeError


@pytest.mark.parametrize(
    ("rows", "message"),
    [
        ([[1.0, 0.5]], "^system has 2 fields but the solution has 1 series$"),
        ([[1.0, 0.5], [1.0, 0.5, 0.1]], "^every series must have the same order, got u 1, v 2$"),
    ],
    ids=["count", "orders"],
)
def test_solution_refuses_series_that_disagree(rows, message):
    system = parse_system("u' = v\nv' = u\n")
    with pytest.raises(ConfigError, match=message):
        SeriesSolution(system, tuple(TimeSeries(r) for r in rows))


def test_constant_past_float_range_raises():
    # Exact as a Fraction, but no float holds it.
    system = parse_system("u' = " + "1" + "0" * 400 + " * u")
    with pytest.raises(TaylorPdeError, match="^constant 1000+ is outside the float range$") as err:
        solve(system, [TanhPoly([0, 1])], 3)
    assert type(err.value) is TaylorPdeError


def test_constant_below_float_range_raises():
    # Nonzero as a Fraction, but its float is 0.0; as 0.0 the term would
    # drop out and the solve would be that of u' = 2/3 * u.
    system = parse_system("u' = 1/1" + "0" * 400 + " * u + 2/3 * u")
    with pytest.raises(TaylorPdeError, match="^constant 1/10+ is outside the float range$") as err:
        solve(system, [TanhPoly([0, 1])], 3)
    assert type(err.value) is TaylorPdeError


def test_zero_left_factor_is_zero_past_an_overflow():
    # u * 1e200 * 1e200 overflows; the dense loops would give 0 * inf = nan,
    # but a zero on the left is skipped, so 0 * (...) is the exact zero.
    big = "1" + "0" * 200
    system = parse_system(f"u' = 0 * (u * {big} * {big}) + u")
    sol = solve(system, [TanhPoly([0.5, 1])], 3)
    assert sol.series[0].coeffs[3] == TanhPoly([0.5 / 6, 1 / 6])
    with pytest.raises(TaylorPdeError, match="^order 1 of field u is not finite"):
        solve(parse_system(f"u' = (u * {big} * {big}) * 0 + u"), [TanhPoly([0.5, 1])], 3)


_HUGE = "1" + "0" * 200


@pytest.mark.parametrize(
    ("source", "value"),
    [
        # u * B * B overflows to inf, and inf - inf is nan: every gap is
        # nan, which a running "gap > worst" maximum would drop as 0.0.
        (f"u' = u * {_HUGE} * {_HUGE} - u * {_HUGE} * {_HUGE} + u", "nan"),
        (f"u' = u * {_HUGE} * {_HUGE}", "inf"),
    ],
    ids=["nan", "inf"],
)
def test_residual_raises_on_non_finite_regenerated_row(source, value):
    sol = solve(parse_system("u' = u"), [TanhPoly([1.0, 0.5])], 4)
    message = f"^order 1 of field u is not finite: coefficient of w\\^0 is {value}$"
    with pytest.raises(TaylorPdeError, match=message) as err:
        residual(parse_system(source), sol)
    assert type(err.value) is TaylorPdeError


@pytest.mark.parametrize(
    ("u0", "message"),
    [
        # u's rows are 0, 1, 0, ...: its product overflows from row 1, v's
        # from row 0, so v's order 1 comes first although u is listed first.
        (0.0, "^order 1 of field v is not finite: coefficient of w\\^0 is inf$"),
        # Both overflow from row 0: the first field.
        (1.0, "^order 1 of field u is not finite: coefficient of w\\^0 is inf$"),
    ],
    ids=["order", "field"],
)
def test_residual_names_the_first_order_then_field_that_is_not_finite(u0, message):
    sol = solve(parse_system("u' = 1\nv' = v"), [TanhPoly([u0]), TanhPoly([1.0])], 3)
    wrong = parse_system(f"u' = u * {_HUGE} * {_HUGE}\nv' = v * {_HUGE} * {_HUGE}")
    with pytest.raises(TaylorPdeError, match=message):
        residual(wrong, sol)


def test_residual_is_the_largest_gap_of_any_order_and_coefficient():
    # Rows of unequal lengths, stored longer or regenerated longer: each
    # gap is |stored - regenerated| where both have a coefficient and the
    # longer row's coefficient where only it has one.
    system = parse_system("u' = u_x\nv' = 2 * v")
    sol = solve(parse_system("u' = u\nv' = v"), [TanhPoly([0, 1, 0, -3]), TanhPoly([0.5, -7])], 5)
    rhs = eval_rhs(system, sol.series, 4)
    expected = 0.0
    for s, r in zip(sol.series, rhs):
        for j in range(5):
            stored = list(s.coeffs[j + 1].coeffs)
            made = [c / (j + 1) for c in r.coeffs[j].coeffs]
            n = max(len(stored), len(made))
            stored += [0.0] * (n - len(stored))
            made += [0.0] * (n - len(made))
            expected = max([expected] + [abs(x - y) for x, y in zip(stored, made)])
    assert residual(system, sol) == expected > 0


def test_handmade_solution_residual_measures_imbalance():
    sys = parse_system("u' = u")
    good = solve(sys, [TanhPoly([1.0])], 3)
    series = good.series
    tampered = SeriesSolution(sys, series)
    wrong_sys = parse_system("u' = 2 * u")
    assert residual(wrong_sys, tampered) > 0.4


@pytest.mark.parametrize(
    ("solved", "checked", "message"),
    [
        ("u' = u", "u' = v\nv' = u\n", "^system has 2 fields but state has 1 entries$"),
        ("u' = v\nv' = u\n", "u' = u", "^system has 1 fields but state has 2 entries$"),
    ],
    ids=["fewer-series", "more-series"],
)
def test_residual_refuses_a_system_with_another_field_count(solved, checked, message):
    system = parse_system(solved)
    sol = solve(system, [TanhPoly([1.0, 0.5])] * len(system.fields), 3)
    with pytest.raises(ConfigError, match=message):
        residual(parse_system(checked), sol)


def test_residual_refuses_a_solution_of_order_0():
    system = parse_system("u' = u")
    sol = SeriesSolution(system, (TimeSeries([TanhPoly([1.0, 0.5])]),))
    with pytest.raises(ValueError, match="^order must be at least 1$"):
        residual(system, sol)


def test_residual_builds_no_tanhpoly(coupled, monkeypatch):
    # The stored rows go to the evaluator, and the rows it regenerates to
    # the compare, as arrays.
    sol = solve(coupled.system, coupled.initial, 6)
    built = []
    init = TanhPoly.__init__

    def counting_init(self, coeffs):
        built.append(coeffs)
        init(self, coeffs)

    monkeypatch.setattr(TanhPoly, "__init__", counting_init)
    assert residual(coupled.system, sol) == 0.0
    assert built == []


# The bitwise reference: the whole-series evaluation that solve() ran
# before it advanced one row per order, on plain lists of Python floats.
# At every order j each node recomputes its rows 0..j, with products
# through the dense loops of test_kernels, not the package's kernel, and
# only row j is kept.  It uses none of the package's arithmetic, so the
# row evaluator must match code that is independent of it, bit for bit.
def _trim(row):
    n = len(row)
    while n > 1 and row[n - 1] == 0.0:
        n -= 1
    return row[:n]


def _add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _neg(a):
    return [-c for c in a]


def _dx(a):
    dp = [i * c for i, c in enumerate(a)][1:]
    return _trim(_Dense.conv(dp, [1.0, 0.0, -1.0])) if dp else [0.0]


def _reference_eval_rhs(system, state, order):
    """Every right-hand side's rows 0..order, as lists, from the state's
    rows (one list of rows per field)."""
    trunc = [rows[: order + 1] for rows in state]
    assert all(len(rows) == order + 1 for rows in trunc)
    deriv_cache = {}

    def product(a, b):
        return [_trim(row) for row in _Dense.series_product(a, b, order)]

    def ev(node):
        if isinstance(node, Const):
            return [[float(node.value)]] + [[0.0]] * order
        if isinstance(node, Field):
            return trunc[node.index]
        if isinstance(node, Deriv):
            key = (node.index, node.order)
            if key not in deriv_cache:
                rows = trunc[node.index]
                for _ in range(node.order):
                    rows = [_dx(row) for row in rows]
                deriv_cache[key] = rows
            return deriv_cache[key]
        if isinstance(node, Add):
            return [_add(a, b) for a, b in zip(ev(node.left), ev(node.right))]
        if isinstance(node, Sub):
            # Through negation, a second formula for sub_rows' one pass.
            return [_add(a, _neg(b)) for a, b in zip(ev(node.left), ev(node.right))]
        if isinstance(node, Mul):
            return product(ev(node.left), ev(node.right))
        if isinstance(node, Neg):
            return [_neg(a) for a in ev(node.operand)]
        if isinstance(node, Pow):
            base = ev(node.base)
            out = base
            for _ in range(node.exponent - 1):
                out = product(out, base)
            return out
        raise TypeError(f"not an expression node: {node!r}")

    return [ev(eq) for eq in system.equations]


def _reference_solve(system, initial, order):
    columns = [[list(p.coeffs)] for p in initial]
    for j in range(order):
        rhs = _reference_eval_rhs(system, columns, j)
        for col, r in zip(columns, rhs):
            col.append(_trim([c / (j + 1) for c in r[j]]))
    return columns


def _rows(series):
    return [[p.coeffs for p in s.coeffs] for s in series]


def _bits(columns):
    """Every coefficient of rows per field as its IEEE bytes, so the sign
    of zero counts."""
    return [[[struct.pack("<d", c) for c in row] for row in rows] for rows in columns]


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
# Shared subexpressions: u^3 and u*u*u, (u - 1)^2 in both equations, u_x twice.
_SYSTEMS["shared"] = (
    parse_system(
        "u' = u^3 - u*u*u + u_x*u_xxx - 1/4*(u - 1)^2*u_x\n"
        "v' = (u - 1)^2 - v*u_xx\n"
    ),
    [TanhPoly([0, 1]), TanhPoly([1, -0.25])],
    12,
)
# Constant profiles: every row has one coefficient, so every product row
# is a one-column sum of up to 61 terms.
_SYSTEMS["square"] = (parse_system("u' = u*u"), [TanhPoly([0.1])], 60)
_SYSTEMS["cubic"] = (parse_system("u' = u*u - 1/3*u^3 + 7/10"), [TanhPoly([0.3])], 60)
# Constant factors, which scale rows instead of calling the kernel: on the
# left and on the right, a constant times a constant (2 * 3), a zero on the
# left, and -1 times rows with zero coefficients, whose -0.0 products the
# dense loops sum to +0.0.
_SYSTEMS["constants"] = (
    parse_system("u' = -1 * u_x * 1/3 + 2 * 3 * u * u - 0 * u"),
    [TanhPoly([0, 1, 0, -0.25])],
    15,
)
# Sums, differences and negations of constants, which fold into constants
# and so scale rows too.  -(1/4 - 1/4) is -0.0, a zero on the left, and
# -(1 - 1) keeps the -0.0 rows of a negation: added to -v, whose even
# coefficients are -0.0 in every other row, it leaves them -0.0 where
# +0.0 would not.
_SYSTEMS["constant-sums"] = (
    parse_system(
        "u' = (1/2 + 1/3) * u + (1 - 1/3) * u_x + -(1/4 - 1/4) * u\n"
        "v' = -v + -(1 - 1) - (2 - 2) * v\n"
    ),
    [TanhPoly([0, 1, 0, -0.25]), TanhPoly([0, 1, 0, -0.25])],
    15,
)
# A constant times a constant that folds to -0.0: 3 * -0.0 is -0.0, and
# the scale's + 0.0 makes it the +0.0 of the dense loops' sum, which
# added to -v keeps none of its -0.0 coefficients.
_SYSTEMS["constant-product"] = (
    parse_system("v' = -v + 3 * -(1 - 1)"),
    [TanhPoly([0, 1, 0, -0.25])],
    15,
)
# Rows whose top coefficient becomes zero: 5e-324 / 2 underflows in the
# division of row 2 of u, 5e-324 * 1e-300 in a scale, and u + -u and
# u - u cancel.  Each such row must lose its trailing zero, as a TanhPoly
# does: added to z, whose w^1 coefficient is -0.0, a kept +0.0 would turn
# that coefficient into +0.0.
_SYSTEMS["trailing-zeros"] = (
    parse_system(
        "u' = u\nz' = z\nv' = u + z\n"
        "y' = 1/1" + "0" * 300 + " * u + z\n"
        "s' = u + -u + z\nd' = u - u + z\n"
    ),
    [TanhPoly([1, 5e-324]), TanhPoly([0, -0.0, 1])] + [TanhPoly([0])] * 4,
    4,
)
# series_product calls per order: one per distinct product of two series,
# where u^k is the product of u^(k-1) and u; a product with a constant
# factor is a row scale, no kernel call.
_PRODUCTS_PER_ORDER = {
    "riccati": 1,
    "coupled": 3,
    "transport": 0,
    "kdv": 1,
    "mixed": 5,
    "shared": 6,
    "square": 1,
    "cubic": 2,
    "constants": 1,
    "constant-sums": 0,
    "constant-product": 0,
    "trailing-zeros": 0,
}


@pytest.mark.parametrize("name", list(_SYSTEMS))
def test_row_evaluator_matches_whole_series_evaluation_bitwise(name):
    system, initial, order = _SYSTEMS[name]
    expected = _reference_solve(system, initial, order)
    sol = solve(system, initial, order)
    assert _bits(_rows(sol.series)) == _bits(expected)
    state = [TimeSeries(rows) for rows in expected]
    assert _bits(_rows(eval_rhs(system, state, order))) == _bits(
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


# Products per order whose two factors are one node, u^2 or (u - 1)^2:
# the kernel keeps one copy of its rows for both factors.
_SQUARES_PER_ORDER = {"riccati": 1, "coupled": 3, "mixed": 2, "shared": 2, "square": 1, "cubic": 1}


@pytest.mark.parametrize("name", list(_SYSTEMS))
def test_each_factor_row_is_scanned_once(name, monkeypatch):
    # Every product keeps the nonzero terms and a copy of the rows of each
    # distinct factor across orders, so a solve to order N scans each
    # factor row once: N rows per square and 2N per product of two
    # different series (kdv at N=15: u * u_x, 30), not rows 0..j at every
    # order j.
    system, initial, order = _SYSTEMS[name]
    squares = _SQUARES_PER_ORDER.get(name, 0)
    scans = order * (squares + 2 * (_PRODUCTS_PER_ORDER[name] - squares))
    scan = _backend._nonzero
    calls = []

    def recording(row):
        calls.append(row)
        return scan(row)

    monkeypatch.setattr(_backend, "_nonzero", recording)
    sol = solve(system, initial, order)
    assert len(calls) == scans
    calls.clear()
    residual(system, sol)
    assert len(calls) == scans


# Derivative rows per order, each one dx_row call: one per distinct
# (field, derivative order), each derivative taken from the one below it
# (u_xxx from u_xx from u_x).
_DX_PER_ORDER = {"kdv": 3, "mixed": 5, "shared": 3}


@pytest.mark.parametrize("name", list(_DX_PER_ORDER))
def test_each_derivative_row_is_one_dx(name, monkeypatch):
    system, initial, order = _SYSTEMS[name]
    dx_row = dsl.dx_row
    calls = []

    def recording(row):
        calls.append(row)
        return dx_row(row)

    # The evaluator's derivative steps look dx_row up in dsl at each call.
    monkeypatch.setattr(dsl, "dx_row", recording)
    sol = solve(system, initial, order)
    assert len(calls) == _DX_PER_ORDER[name] * order
    calls.clear()
    residual(system, sol)
    assert len(calls) == _DX_PER_ORDER[name] * order


def test_long_left_deep_sum_solves(tmp_path, capsys):
    # 4,999 nested Adds, deeper than Python's recursion limit: compiling
    # and pretty() walk the tree with their own stack, and nodes are not
    # looked up by hashing the tree, which recurses.
    source = "u' = " + " + ".join(["u"] * 5000)
    system = parse_system(source)
    sol = solve(system, [TanhPoly([0, 1])], 2)
    assert sol.series[0].coeffs[1] == TanhPoly([0, 5000])
    assert sol.series[0].coeffs[2] == TanhPoly([0, 12_500_000])
    # Compared as text: == on the dataclass trees recurses.
    assert system.pretty() == source
    assert parse_system(system.pretty()).pretty() == source
    path = tmp_path / "deep.pde"
    path.write_text(source + "\n")
    assert cli.main(["solve", "--system", str(path), "--init", "0,1", "--order", "3"]) == 0
    assert capsys.readouterr().out == "fields: u\norder: 3\nresidual: 0\n"


def test_high_power_solves():
    # u^1500 is a chain of 1499 products, built without recursing per factor.
    system = parse_system("u' = u^1500")
    sol = solve(system, [TanhPoly([0, 1])], 1)
    assert sol.series[0].coeffs[1] == TanhPoly([0] * 1500 + [1])


@pytest.mark.parametrize(
    "node", [Pow(Field(0), 1), Deriv(0, 0)], ids=["pow-1", "deriv-0"]
)
def test_trivial_power_and_derivative_are_the_field(node):
    # Not made by the parser, which folds u^1 to u and needs an order >= 1.
    system = PdeSystem(("u",), (node,))
    state = (TimeSeries([TanhPoly([0, 1]), TanhPoly([2, 0, -1])]),)
    assert eval_rhs(system, state, 1) == state
