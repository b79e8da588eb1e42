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
"""

import importlib.util
import math
from fractions import Fraction
from pathlib import Path

import pytest

from taylorpde import FIXTURES, TanhPoly, solve
from taylorpde.dsl import parse_system

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
