import math

import pytest

from taylorpde import (
    DegenerateSystemError,
    InsufficientDataError,
    PoleEvaluationError,
    TravelingWave,
    pade_fit,
    partial_sum,
)

KINK = TravelingWave(offset=0.0, amplitude=1.0, wavenumber=1.0, rate=5.5)

# exp(t) = 1 + t + t^2/2 + ...
EXP3 = [1.0, 1.0, 0.5]


class TestFit:
    def test_exp_1_1(self):
        ap = pade_fit(EXP3, 1, 1)
        assert ap.num == (1.0, 0.5)
        assert ap.den == (1.0, -0.5)
        assert ap.orders == (1, 1)
        assert ap(1.0) == 3.0

    def test_exp_1_1_beats_truncation(self):
        ap = pade_fit(EXP3, 1, 1)
        t = 0.5
        exact = math.exp(t)
        assert abs(ap(t) - exact) < abs(partial_sum(EXP3, t) - exact)

    def test_constant_0_0(self):
        ap = pade_fit([4.25, 1.0, 2.0], 0, 0)
        assert ap.num == (4.25,)
        assert ap.den == (1.0,)
        assert ap.condition == 1.0
        assert ap(123.0) == 4.25

    def test_zero_denominator_order_is_the_truncation(self):
        ap = pade_fit([1.0, 2.0, 3.0], 2, 0)
        assert ap.num == (1.0, 2.0, 3.0)
        assert ap.den == (1.0,)
        assert ap.poles() == []
        assert ap(0.5) == 2.75

    def test_eval_at_zero_is_leading_coefficient(self):
        ap = pade_fit(KINK.taylor(0.25, 9), 4, 5)
        assert ap(0.0) == ap.num[0]

    def test_too_few_coefficients(self):
        with pytest.raises(InsufficientDataError, match=r"^\[1/1\] fit needs 3 coefficients, got 2$"):
            pade_fit([1.0, 2.0], 1, 1)

    def test_negative_orders(self):
        with pytest.raises(ValueError):
            pade_fit(EXP3, -1, 1)
        with pytest.raises(ValueError):
            pade_fit(EXP3, 1, -1)

    def test_degenerate_geometric_series(self):
        # 1/(1-t/2) is already [0/1]; asking for a higher denominator
        # order makes the Toeplitz system singular.
        coeffs = [2.0**-j for j in range(4)]
        with pytest.raises(DegenerateSystemError):
            pade_fit(coeffs, 1, 2)

    def test_condition_number_recorded(self):
        ap = pade_fit(EXP3, 1, 1)
        assert ap.condition == 1.0  # 1x1 system
        ap2 = pade_fit(KINK.taylor(0.0, 15), 7, 8)
        assert ap2.condition > 1.0
        assert ap2.condition < 1e12


class TestEvaluation:
    def test_pole_evaluation_refused(self):
        ap = pade_fit([1.0, 0.5], 0, 1)
        assert ap.den == (1.0, -0.5)
        with pytest.raises(PoleEvaluationError):
            ap(2.0)

    def test_pole_location_exp(self):
        ap = pade_fit(EXP3, 1, 1)
        poles = ap.poles()
        assert len(poles) == 1
        assert poles[0] == pytest.approx(2.0 + 0.0j, rel=1e-12)

    def test_poles_sorted_by_modulus(self):
        ap = pade_fit(KINK.taylor(0.0, 15), 7, 8)
        moduli = [abs(z) for z in ap.poles()]
        assert moduli == sorted(moduli)

    def test_reexpansion_reproduces_input(self):
        coeffs = KINK.taylor(0.0, 15)
        ap = pade_fit(coeffs, 7, 8)
        back = ap.taylor(15)
        for got, want in zip(back, coeffs):
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_reexpansion_of_exact_rational_is_exact(self):
        ap = pade_fit(EXP3, 1, 1)
        assert ap.taylor(2) == [1.0, 1.0, 0.5]


class TestKinkAcceleration:
    """[L/M] approximants of tanh(-11t/2) built at x = 0."""

    def test_accuracy_past_the_radius(self):
        # The series radius is pi/11 = 0.2856; at t = 0.5 the truncated
        # series has blown up while the [7/8] form stays 4 digits good.
        ap = pade_fit(KINK.taylor(0.0, 15), 7, 8)
        exact = math.tanh(-2.75)
        assert ap(0.5) == pytest.approx(-0.9918597139148163, rel=1e-12)
        assert abs(ap(0.5) - exact) < 1e-4

    def test_beats_truncated_series_past_radius(self):
        coeffs = KINK.taylor(0.0, 15)
        ap = pade_fit(coeffs, 7, 8)
        for t in (0.3, 0.4, 0.5):
            exact = KINK(0.0, t)
            assert abs(ap(t) - exact) < abs(partial_sum(coeffs, t) - exact)

    def test_nearest_pole_matches_series_radius(self):
        ap = pade_fit(KINK.taylor(0.0, 15), 7, 8)
        nearest = abs(ap.poles()[0])
        assert abs(nearest - math.pi / 11) < 1e-9

    def test_odd_function_structure(self):
        # tanh(-11t/2) is odd, so [M/M] numerators are odd polynomials
        # and denominators even ones.
        for m in (4, 6, 8):
            ap = pade_fit(KINK.taylor(0.0, 2 * m), m, m)
            assert max(abs(v) for v in ap.num[0::2]) <= 1e-10
            assert max(abs(v) for v in ap.den[1::2]) <= 1e-10

    def test_diagonal_conditions_stay_usable(self):
        for m in (4, 6, 8):
            ap = pade_fit(KINK.taylor(0.0, 2 * m), m, m)
            assert ap.condition < 1e12

    def test_diagonal_pole_lower_bound(self):
        floor = 0.9 * KINK.convergence_radius(0.0)
        for m in (4, 6, 8):
            ap = pade_fit(KINK.taylor(0.0, 2 * m), m, m)
            assert abs(ap.poles()[0]) >= floor
