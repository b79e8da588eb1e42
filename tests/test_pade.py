import math
import struct

import numpy as np
import pytest

from taylorpde import (
    DegenerateSystemError,
    InsufficientDataError,
    PoleEvaluationError,
    TravelingWave,
    pade_fit,
    partial_sum,
    solve,
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

    def test_an_exactly_singular_system_has_infinite_condition(self):
        # T = [[0, 1], [0, 0]] has smallest singular value 0.0, where
        # np.linalg.cond gives inf; pade_fit refuses with that value and
        # no division warning (warnings are errors in this suite).
        coeffs = [1.0, 0.0, 0.0, 0.0]
        assert np.linalg.cond(np.array([[0.0, 1.0], [0.0, 0.0]])) == math.inf
        message = "^denominator system condition inf exceeds 1e\\+12; the \\[1/2\\] fit"
        with pytest.raises(DegenerateSystemError, match=message):
            pade_fit(coeffs, 1, 2)

    @pytest.mark.parametrize("index", [0, 7, 15])
    def test_refuses_a_used_coefficient_that_is_not_finite(self, index):
        # A nan used to reach numpy's SVD, which raised LinAlgError.
        coeffs = KINK.taylor(0.0, 15)
        coeffs[index] = math.nan
        message = f"^\\[7/8\\] fit: coefficient {index} is nan$"
        with pytest.raises(DegenerateSystemError, match=message):
            pade_fit(coeffs, 7, 8)

    def test_refuses_an_inf_in_a_truncation(self):
        # M = 0 builds no system, and used to return num=(inf, 1.0).
        with pytest.raises(DegenerateSystemError, match="^\\[1/0\\] fit: coefficient 0 is inf$"):
            pade_fit([math.inf, 1.0], 1, 0)

    def test_ignores_coefficients_past_the_fit(self):
        coeffs = KINK.taylor(0.0, 15)
        assert pade_fit(coeffs + [math.nan], 7, 8) == pade_fit(coeffs, 7, 8)

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


def _list_build_fit(c, L, M):
    """pade_fit with the Toeplitz matrix built cell by cell from a nested
    list comprehension and the numerator summed one term at a time; the
    reference for pade_fit's window-view build and the numerator's order
    of terms.  It refuses a fit with pade_fit's messages."""
    c = [float(v) for v in c]

    def cc(idx):
        return c[idx] if idx >= 0 else 0.0

    T = np.array([[cc(L + m - s) for s in range(1, M + 1)] for m in range(1, M + 1)])
    rhs = np.array([-c[L + m] for m in range(1, M + 1)])
    condition = float(np.linalg.cond(T))
    if not np.isfinite(condition) or condition > 1e12:
        raise DegenerateSystemError(
            f"denominator system condition {condition:.3e} exceeds 1e+12; "
            f"the [{L}/{M}] fit is degenerate for these coefficients"
        )
    try:
        q = np.linalg.solve(T, rhs)
    except np.linalg.LinAlgError:
        raise DegenerateSystemError(
            f"denominator system is singular; the [{L}/{M}] fit is degenerate"
        ) from None
    den = [1.0] + [float(v) for v in q]
    num = []
    for k in range(L + 1):
        acc = c[k]
        for s in range(1, min(k, M) + 1):
            acc += den[s] * c[k - s]
        num.append(acc)
    return tuple(num), tuple(den), condition


def _bits(values):
    return [struct.pack("<d", v) for v in values]


# The benchmark's sweep, where every Toeplitz index is >= 0, plus pairs with
# M > L + 1, whose upper-right cells sit before the series and must be +0.0.
_SWEEP_PAIRS = [
    (L, M) for L in range(41) for M in (L - 1, L, L + 1) if M >= 1 and L + M <= 40
] + [(L, M) for L in range(5) for M in range(L + 2, L + 6)]


@pytest.fixture(scope="module")
def riccati40(riccati):
    return solve(riccati.system, riccati.initial, 40)


@pytest.mark.parametrize("x", [0.0, 1.3, -3.1])
def test_indexed_toeplitz_matches_list_build_bitwise(riccati40, x):
    coeffs = [p(x) for p in riccati40.series[0].coeffs]
    refused = 0
    for L, M in _SWEEP_PAIRS:
        try:
            num, den, condition = _list_build_fit(coeffs, L, M)
        except DegenerateSystemError:
            refused += 1
            with pytest.raises(DegenerateSystemError):
                pade_fit(coeffs, L, M)
            continue
        ap = pade_fit(coeffs, L, M)
        assert _bits(ap.num) == _bits(num), (L, M)
        assert _bits(ap.den) == _bits(den), (L, M)
        assert _bits([ap.condition]) == _bits([condition]), (L, M)
    # Both outcomes are exercised: high orders are ill-conditioned.
    assert 0 < refused < len(_SWEEP_PAIRS)


# Every [L/M] with L, M <= 24 and L + M <= 40, M = 0 included, at 15 points.
_GRID_PAIRS = [(L, M) for L in range(25) for M in range(25) if L + M <= 40]


def test_grid_fits_match_the_list_build_bitwise(riccati40):
    # Over all 8,835 fits of the grid, the window-view Toeplitz build gives
    # the list build's denominator, condition and value at t = 0.2, bit
    # for bit, and a refused fit refuses with the same text.  The numerator is
    # compared too, though both sum it in the same scalar loop.
    fits = refused = 0
    for x in np.linspace(-3.5, 3.5, 15):
        coeffs = [p(x) for p in riccati40.series[0].coeffs]
        for L, M in _GRID_PAIRS:
            fits += 1
            if M == 0:
                num, den, condition = tuple(coeffs[: L + 1]), (1.0,), 1.0
            else:
                try:
                    num, den, condition = _list_build_fit(coeffs, L, M)
                except DegenerateSystemError as refusal:
                    refused += 1
                    with pytest.raises(DegenerateSystemError) as ours:
                        pade_fit(coeffs, L, M)
                    assert str(ours.value) == str(refusal)
                    continue
            ap = pade_fit(coeffs, L, M)
            assert _bits(ap.num) == _bits(num), (x, L, M)
            assert _bits(ap.den) == _bits(den), (x, L, M)
            assert _bits([ap.condition]) == _bits([condition]), (x, L, M)
            value = partial_sum(num, 0.2) / partial_sum(den, 0.2)
            assert _bits([ap(0.2)]) == _bits([value]), (x, L, M)
    assert fits == 8835
    assert 0 < refused < fits
