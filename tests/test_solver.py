import math

import pytest

from taylorpde import (
    ConfigError,
    SeriesSolution,
    TanhPoly,
    parse_system,
    residual,
    solve,
)


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
        assert all(p.is_zero() for p in sol.series[0].coeffs[1:])

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


def test_handmade_solution_residual_measures_imbalance():
    sys = parse_system("u' = u")
    good = solve(sys, [TanhPoly([1.0])], 3)
    series = good.series
    tampered = SeriesSolution(sys, 3, series, good.initial)
    wrong_sys = parse_system("u' = 2 * u")
    assert residual(wrong_sys, tampered) > 0.4
