import math
import statistics
import struct
from collections import Counter

import numpy as np
import pytest

from taylorpde import (
    DegenerateSystemError,
    InsufficientDataError,
    PadeApproximant,
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
        # 1/(1-t/2) is already [0/1]; asked for [1/2], the rescaled system
        # has rank 1, so the fit drops to [0/1] and returns the function.
        coeffs = [2.0**-j for j in range(4)]
        ap = pade_fit(coeffs, 1, 2)
        assert ap.orders == (0, 1)
        assert ap.requested == (1, 2)
        assert ap.num == (1.0,)
        assert ap.den == (1.0, -0.5)

    def test_a_rank_deficient_system_drops_to_the_constant(self):
        # [1, 0, 0, 0] is the constant 1.  Its [1/2] block [[0, 0, 1], [0,
        # 0, 0]] has rank 1, so the fit drops to [0/1], whose block [0, 1]
        # has full rank; the denominator then solves 1 * q = -0.0.
        ap = pade_fit([1.0, 0.0, 0.0, 0.0], 1, 2)
        assert ap.orders == (0, 1)
        assert ap.requested == (1, 2)
        assert ap.num == (1.0,)
        assert ap.den == (1.0, 0.0)
        assert ap.condition == 1.0
        assert ap(0.7) == 1.0

    def test_rescaling_survives_coefficients_spanning_the_float_range(self):
        # 1/(1 - 1e-13 t): c[24] = 1e-312 is subnormal and r = 1e13, so
        # r**24 alone would overflow.  The rescaled system has rank 1.
        coeffs = [10.0 ** (-13 * j) for j in range(25)]
        ap = pade_fit(coeffs, 12, 12)
        assert ap.orders == (1, 1)
        assert ap.num == (1.0, 0.0)
        assert ap.den == (1.0, -1e-13)

    def test_an_exactly_singular_full_rank_system_refuses(self):
        # At x = 0 the kink is odd in t, so c[0] = c[2] = 0: the [0/2]
        # block [[c1, 0, 0], [0, c1, 0]] has full rank, but every
        # denominator it allows has den(0) = 0.
        message = r"^denominator system is singular; the \[0/2\] fit is degenerate$"
        with pytest.raises(DegenerateSystemError, match=message):
            pade_fit(KINK.taylor(0.0, 2), 0, 2)

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

    def test_an_array_gives_the_float_calls_bitwise(self):
        ap = pade_fit(KINK.taylor(0.0, 15), 7, 8)
        ts = [0.0, -0.0, 0.1, 0.25, 0.5, 1.0, 3.0, -2.0]
        values = ap(np.array(ts))
        assert [struct.pack("<d", v) for v in values.tolist()] == [
            struct.pack("<d", ap(t)) for t in ts
        ]

    def test_an_array_raises_the_float_calls_error_at_its_first_pole(self):
        # (1 - t)(1 - 2t) vanishes at t = 1 and t = 0.5; the array meets 1 first.
        ap = PadeApproximant((1.0,), (1.0, -3.0, 2.0), 1.0)
        message = "^denominator vanishes at t = 1.0$"
        with pytest.raises(PoleEvaluationError, match=message):
            ap(1.0)
        with pytest.raises(PoleEvaluationError, match=message):
            ap(np.array([0.25, 1.0, 0.75, 0.5]))

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
    """The Pade fit without rank reduction: the Toeplitz matrix built cell
    by cell from a nested list comprehension, refused above condition
    number 1e12, solved by LU, and the numerator summed one term at a
    time.  The reference for pade_fit's window-view build, for the
    numerator's order of terms, and for the fits whose bits pade_fit
    keeps: every fit this one accepts."""
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
    return tuple(num), tuple(den)


def _rescaled_condition(c, L, M):
    """sigma_max / sigma_min of the rescaled M x (M+1) block s[L+1+m-k],
    built cell by cell, where s[j] = c[j] * r**j and log r is minus the
    slope of np.polyfit through log|c[j]| over the nonzero c[j] with
    j >= (L+M+1) // 2; the reference for pade_fit's condition."""
    n = L + M + 1
    tail = [j for j in range(n // 2, n) if c[j] != 0.0]
    log_r = 0.0
    if len(tail) >= 2:
        log_r = -np.polyfit(tail, [math.log(abs(c[j])) for j in tail], 1)[0]
    s = [c[j] * math.exp(j * log_r) for j in range(n)]
    C = [[s[L + 1 + m - k] if L + 1 + m - k >= 0 else 0.0 for k in range(M + 1)] for m in range(M)]
    sigma = np.linalg.svd(np.array(C), compute_uv=False)
    return sigma[0] / sigma[-1]


def _assert_condition(ap, c, L, M):
    if M == 0:
        assert ap.condition == 1.0, (L, M)
        return
    want = _rescaled_condition(c, L, M)
    # Rounding moves a condition number by about itself times eps,
    # relative, so the bound grows with it.
    assert abs(ap.condition - want) <= 1e-13 * want * want, (L, M)


def _refused_fit_outcome(c, L, M):
    """What pade_fit does where the reference refuses: a fit at orders
    no higher than asked that says what was asked ("fitted"), or the
    refusal of a full-rank system whose denominators all have den(0) = 0
    ("singular")."""
    try:
        ap = pade_fit(c, L, M)
    except DegenerateSystemError as refusal:
        assert str(refusal).startswith("denominator system is singular; "), (L, M)
        return "singular"
    assert ap.requested == (L, M)
    assert ap.orders[0] <= L and ap.orders[1] <= M, (L, M)
    return "fitted"


def _bits(values):
    return [struct.pack("<d", v) for v in values]


# The benchmark's sweep, where every Toeplitz index is >= 0, plus pairs with
# M > L + 1, whose upper-right cells sit before the series and must be +0.0.
_BENCH_PAIRS = [
    (L, M) for L in range(41) for M in (L - 1, L, L + 1) if M >= 1 and L + M <= 40
]
_SWEEP_PAIRS = _BENCH_PAIRS + [(L, M) for L in range(5) for M in range(L + 2, L + 6)]


@pytest.fixture(scope="module")
def riccati40(riccati):
    return solve(riccati.system, riccati.initial, 40)


@pytest.mark.parametrize("x", [0.0, 1.3, -3.1])
def test_indexed_toeplitz_matches_list_build_bitwise(riccati40, x):
    coeffs = [p(x) for p in riccati40.series[0].coeffs]
    outcomes = Counter()
    for L, M in _SWEEP_PAIRS:
        try:
            num, den = _list_build_fit(coeffs, L, M)
        except DegenerateSystemError:
            outcomes[_refused_fit_outcome(coeffs, L, M)] += 1
            continue
        ap = pade_fit(coeffs, L, M)
        assert _bits(ap.num) == _bits(num), (L, M)
        assert _bits(ap.den) == _bits(den), (L, M)
        _assert_condition(ap, coeffs, L, M)
    # Both branches are exercised: high orders are ill-conditioned.
    assert 0 < outcomes.total() < len(_SWEEP_PAIRS)


# Every [L/M] with L, M <= 24 and L + M <= 40, M = 0 included, at 15 points.
_GRID_PAIRS = [(L, M) for L in range(25) for M in range(25) if L + M <= 40]


def test_grid_fits_match_the_list_build_bitwise(riccati40):
    # Over all 8,835 fits of the grid, every fit the list build accepts
    # keeps its numerator, denominator and value at t = 0.2 bit for bit,
    # and its condition is the rescaled block's.  Where the list build
    # refuses, pade_fit fits at orders no higher, or refuses a system
    # whose denominators all have den(0) = 0.
    fits = 0
    outcomes = Counter()
    for x in np.linspace(-3.5, 3.5, 15):
        coeffs = [p(x) for p in riccati40.series[0].coeffs]
        for L, M in _GRID_PAIRS:
            fits += 1
            if M == 0:
                num, den = tuple(coeffs[: L + 1]), (1.0,)
            else:
                try:
                    num, den = _list_build_fit(coeffs, L, M)
                except DegenerateSystemError:
                    outcomes[_refused_fit_outcome(coeffs, L, M)] += 1
                    continue
            ap = pade_fit(coeffs, L, M)
            assert _bits(ap.num) == _bits(num), (x, L, M)
            assert _bits(ap.den) == _bits(den), (x, L, M)
            _assert_condition(ap, coeffs, L, M)
            value = partial_sum(num, 0.2) / partial_sum(den, 0.2)
            assert _bits([ap(0.2)]) == _bits([value]), (x, L, M)
    assert fits == 8835
    # Both outcomes occur: the odd kink at x = 0 gives the singular ones.
    assert outcomes["fitted"] > 0
    assert outcomes["singular"] > 0
    assert outcomes.total() < fits


def test_sweep_past_the_radius_against_the_closed_form(riccati, riccati40):
    # The divergence-report benchmark's sweep at fixed points: every fit of
    # _BENCH_PAIRS at five x, evaluated at t = 1.25 R(x), past the series'
    # radius, and scored in correct digits against the exact wave.  None
    # may refuse, some must drop to lower orders, and the mean must hold.
    wave = riccati.waves[0]
    digits = []
    reduced = 0
    for x in (-3.2, -1.6, 0.1, 1.6, 3.2):
        coeffs = [p(x) for p in riccati40.series[0].coeffs]
        t = 1.25 * wave.convergence_radius(x)
        exact = wave(x, t)
        for L, M in _BENCH_PAIRS:
            ap = pade_fit(coeffs, L, M)
            reduced += ap.orders != (L, M)
            error = abs(ap(t) - exact)
            # A non-finite value scores 0: max(0.0, nan) is 0.0.
            digits.append(min(16.0, max(0.0, -math.log10(error))) if error else 16.0)
    assert len(digits) == 295
    assert reduced > 0
    assert statistics.fmean(digits) >= 5.8
