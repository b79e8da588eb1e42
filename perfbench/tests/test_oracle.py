"""The dispersive workload's oracle is right and independent of the solver."""

import math

import pytest

import oracle


def test_soliton_starts_from_the_initial_profile():
    for x in (-3.0, -0.5, 0.0, 0.7, 4.0):
        w = math.tanh(x)
        assert oracle.soliton(x, 0.0) == pytest.approx(2 - 2 * w * w, rel=1e-12, abs=1e-15)


def test_soliton_solves_kdv():
    # u_t + 6 u u_x + u_xxx = 0 by central differences at a few points.
    h = 1e-3
    u = oracle.soliton
    for x, t in ((0.3, 0.05), (-1.2, 0.1), (2.0, 0.4)):
        ut = (u(x, t + h) - u(x, t - h)) / (2 * h)
        ux = (u(x + h, t) - u(x - h, t)) / (2 * h)
        uxxx = (u(x + 2 * h, t) - 2 * u(x + h, t) + 2 * u(x - h, t) - u(x - 2 * h, t)) / (2 * h**3)
        assert abs(ut + 6 * u(x, t) * ux + uxxx) < 1e-4


def test_radius_is_the_distance_to_the_nearest_pole():
    # sech(x - 4t)**2 has a pole where x - 4t = i*pi/2.
    for x in (0.0, 1.0, -5.0):
        pole = complex(x, -math.pi / 2) / 4
        assert oracle.soliton_radius(x) == pytest.approx(abs(pole), rel=1e-15)


def test_first_rows_match_hand_derivation():
    rows = oracle.kdv_rows(1)
    assert [c for c in rows[0] if c] == [2, -2]
    # u_t(x, 0) = 16 sech^2 tanh = 16 w - 16 w^3
    assert rows[1][:4] == [0, 16, 0, -16]
    assert not any(rows[1][4:])


@pytest.mark.parametrize("x", [0.0, 1.0, 3.0])
def test_exact_replay_converges(x):
    """The exact recurrence, truncated, approaches the soliton at half the
    radius, as a convergent series must; at x = 0 and order 20 it is
    within 1e-5."""
    t = 0.5 * oracle.soliton_radius(x)
    exact = oracle.soliton(x, t)
    rows = oracle.kdv_rows(20)
    errors = [abs(oracle.truncation_value(rows[: n + 1], x, t) - exact) for n in (5, 10, 20)]
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 1e-5
