"""Oracle tests: float values against an exact computation that shares
none of the float path's operations.

At a fixed x, riccati's solution tanh(x - 11t/2) solves the ODE
g' = -11/2 * (1 - g^2) in t.  Its Taylor coefficients in t follow from
that ODE in exact rational arithmetic, seeded with the float tanh(x)
that TimeSeries.eval sums its rows at, so the exact N-term truncation at
a float t is the value the float solve would give without roundoff.
Where roundoff swamps it today, the case is a strict xfail whose reason
is the measured relative error.

KdV, u' = -6*u*u_x - u_xxx, is checked against perfbench/oracle.py,
loaded by path and only read: its rows come from an integer recurrence
written from the equation, and its soliton is the closed form.

The coupled mKdV system u' = -6*u*v*u_x - u_xxx, v' = -6*u*v*v_x - v_xxx,
the class of the source paper, is solved from u = w, v = -w by
u = tanh(x + 2t) = -v.  That claim checks exactly through eval_rhs, and
the float rows are checked against the wave's own scalar recurrence in
t, which shares no step with them.

The coupled fixture's field z = 2 - tanh(x - 11t/2) shares riccati's g,
so its exact truncation is 2 minus riccati's: error_table's reported
error is checked against it.
"""

import importlib.util
import math
from fractions import Fraction
from pathlib import Path

import pytest

from taylorpde import FIXTURES, TanhPoly, TimeSeries, TravelingWave, error_table, residual, solve
from taylorpde.dsl import eval_rhs, parse_system

RICCATI = FIXTURES["riccati"]

_ORACLE = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"


def _load_oracle():
    spec = importlib.util.spec_from_file_location("perfbench_oracle", _ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _load_oracle()


def _exact_truncation(x: float, t: float, order: int) -> Fraction:
    """sum over j <= order of g_j * t**j, in exact arithmetic, where
    g_0 = tanh(x) and (j + 1) g_{j+1} = -11/2 * ([j == 0] - sum over i
    of g_i g_{j-i})."""
    g = [Fraction(math.tanh(x))]
    for j in range(order):
        square = sum(g[i] * g[j - i] for i in range(j + 1))
        g.append(Fraction(-11, 2) * ((j == 0) - square) / (j + 1))
    t = Fraction(t)
    return sum(c * t**j for j, c in enumerate(g))


def _case(x: float, order: int):
    """(t, exact truncation at t) for t = R(x)/2, well inside the radius."""
    t = RICCATI.waves[0].convergence_radius(x) / 2
    return t, _exact_truncation(x, t, order)


# Measured relative error of the float value where it misses today: the
# float rows lose digits as x grows (ROADMAP item 3).
_MISSES = {
    (5.0, 20): "3.8e-6",
    (5.0, 30): "2.8e-2",
    (5.0, 40): "2.1e5",
    (10.0, 20): "2.0",
    (10.0, 30): "1.6e7",
    (10.0, 40): "3.6e16",
}


def _cases(marked: bool):
    return [
        pytest.param(
            x,
            order,
            id=f"{x:g}-{order}",
            marks=pytest.mark.xfail(strict=True, reason=f"relative error {_MISSES[x, order]}")
            if marked and (x, order) in _MISSES
            else (),
        )
        for x in (0.0, 1.0, 5.0, 10.0)
        for order in (20, 30, 40)
    ]


@pytest.mark.parametrize("x, order", _cases(marked=False))
def test_the_exact_truncation_is_near_the_wave(x, order):
    # The oracle against the closed form: at t = R(x)/2 the truncation
    # error is below 5e-7 at every order tested.
    t, exact = _case(x, order)
    assert abs(float(exact) - RICCATI.waves[0](x, t)) <= 5e-7


@pytest.mark.parametrize("x, order", _cases(marked=True))
def test_float_value_is_the_exact_truncation(x, order):
    t, exact = _case(x, order)
    value = solve(RICCATI.system, RICCATI.initial, order).series[0].eval(x, t)
    assert abs((Fraction(value) - exact) / exact) <= 1e-12


def _coupled_z_case():
    """(reported abs_error, exact truncation's error) of the coupled table
    row of field z at x = -9, t = 0.5, order 20.  z = 2 - tanh(x - 11t/2)
    shares riccati's g, so its exact truncation is 2 minus riccati's."""
    table = error_table("coupled", (20,), (-9.0,), (0.5,))
    row = dict(zip(table.columns, next(r for r in table.rows if r[0] == "z")))
    wave = FIXTURES["coupled"].waves[2]
    return row["abs_error"], abs(float(2 - _exact_truncation(-9.0, 0.5, 20)) - wave(-9.0, 0.5))


def test_the_exact_coupled_truncation_is_near_the_wave():
    # Measured 1.64e-12.
    assert _coupled_z_case()[1] <= 1e-11


@pytest.mark.xfail(strict=True, reason="reported abs_error 1.74e-5, exact truncation's 1.64e-12")
def test_the_coupled_table_reports_the_truncation_error():
    # The float rows' roundoff swamps the truncation error (ROADMAP item 14).
    reported, exact = _coupled_z_case()
    assert abs(reported - exact) <= 0.1 * exact


# Measured relative error of the float KdV value where it misses today,
# at t = R(x)/4: the float rows lose every digit by order 30 (ROADMAP
# item 3).
_KDV_MISSES = {
    (0.0, 20): "1.2e-2",
    (1.0, 20): "1.3e-4",
    (0.0, 30): "3.2e20",
    (1.0, 30): "3.3e22",
}


def _kdv_cases(marked: bool):
    return [
        pytest.param(
            x,
            order,
            id=f"{x:g}-{order}",
            marks=pytest.mark.xfail(strict=True, reason=f"relative error {_KDV_MISSES[x, order]}")
            if marked and (x, order) in _KDV_MISSES
            else (),
        )
        for x in (0.0, 1.0)
        for order in (10, 20, 30)
    ]


def _kdv_case(x: float, order: int):
    """(t, exact truncation at t) for t = R(x)/4."""
    t = oracle.soliton_radius(x) / 4
    return t, oracle.truncation_value(oracle.kdv_rows(order), x, t)


@pytest.mark.parametrize("x, order", _kdv_cases(marked=False))
def test_the_exact_kdv_truncation_is_near_the_soliton(x, order):
    # At t = R(x)/4 the truncation error is largest at order 10, 2.7e-6
    # at x = 1, and below 2e-12 from order 20.
    t, exact = _kdv_case(x, order)
    assert abs(exact - oracle.soliton(x, t)) <= 5e-6


@pytest.mark.parametrize("x, order", _kdv_cases(marked=True))
def test_float_kdv_value_is_the_exact_truncation(x, order):
    t, exact = _kdv_case(x, order)
    system = parse_system(oracle.KDV_SOURCE)
    value = solve(system, (TanhPoly(oracle.KDV_INITIAL),), order).series[0].eval(x, t)
    assert abs((value - exact) / exact) <= 1e-12


MKDV = parse_system("u' = -6*u*v*u_x - u_xxx\nv' = -6*u*v*v_x - v_xxx")
# u = tanh(x + 2t) and v = -tanh(x + 2t).
MKDV_WAVES = (TravelingWave(0.0, 1.0, 1.0, -2.0), TravelingWave(0.0, -1.0, 1.0, -2.0))


def test_the_mkdv_wave_checks_exactly():
    # With w = tanh(x + 2t), u_t = 2(1 - w^2) = -v_t: the right-hand
    # sides on u = w, v = -w are exactly the claimed time derivatives.
    u, v = eval_rhs(MKDV, [TimeSeries([[0.0, 1.0]]), TimeSeries([[0.0, -1.0]])], 0)
    assert u.coeffs[0].coeffs == (2.0, 0.0, -2.0)
    assert v.coeffs[0].coeffs == (-2.0, 0.0, 2.0)


def test_a_wrong_mkdv_claim_shows_its_defect():
    # v = +w is no solution: both right-hand sides read
    # (1 - w^2)(2 - 12 w^2), not the 2(1 - w^2) that u = v = tanh(x + 2t)
    # would need.
    u, v = eval_rhs(MKDV, [TimeSeries([[0.0, 1.0]]), TimeSeries([[0.0, 1.0]])], 0)
    assert u.coeffs[0].coeffs == v.coeffs[0].coeffs == (2.0, 0.0, -14.0, 0.0, 12.0)


# Through row 9 every float row is the wave's; row 13 has no correct
# digit, with the measured relative error against the wave's coefficient.
_MKDV_CASES = [pytest.param(x, range(10), id=f"{x:g}-rows-0-9") for x in (0.0, 1.0)] + [
    pytest.param(
        x,
        (13,),
        id=f"{x:g}-row-13",
        marks=pytest.mark.xfail(strict=True, reason=f"relative error {e}"),
    )
    for x, e in ((0.0, "1.6"), (1.0, "1.7"))
]


@pytest.fixture(scope="module")
def mkdv_solution():
    return solve(MKDV, (TanhPoly([0.0, 1.0]), TanhPoly([0.0, -1.0])), 20)


@pytest.mark.parametrize("x, rows", _MKDV_CASES)
def test_float_mkdv_rows_are_the_wave(mkdv_solution, x, rows):
    # Each float row at x against the t-coefficient of the wave at x
    # (measured at most 2.2e-9 through row 9).
    for series, wave in zip(mkdv_solution.series, MKDV_WAVES):
        exact = wave.taylor(x, 20)
        for j in rows:
            assert abs(series.coeffs[j](x) - exact[j]) <= 1e-8 * max(1.0, abs(exact[j]))


def test_residual_reads_zero_on_the_float_mkdv_solve(mkdv_solution):
    # The float rows lose every digit by row 13, and the replay of their
    # own operations still balances exactly.
    assert residual(MKDV, mkdv_solution) == 0.0
