import math
import struct

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from taylorpde import (
    ConfigError,
    InsufficientDataError,
    TravelingWave,
    builtin_waves,
    empirical_radius,
    partial_sum,
)
from taylorpde._backend import quiet

KINK = TravelingWave(offset=0.0, amplitude=1.0, wavenumber=1.0, rate=5.5)

# Signed zeros, subnormals, values near overflow and the non-finite ones,
# with a few ordinary values between them.
_EDGE_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e308, -1e308, math.inf, -math.inf, math.nan, 1.5, -0.5]
)


def _bits(value: float):
    """The 64-bit pattern of `value`, or "nan" for any nan."""
    return "nan" if math.isnan(value) else struct.pack("<d", value)


class TestEval:
    def test_closed_form(self):
        assert KINK(0.0, 0.5) == math.tanh(-2.75)
        assert abs(KINK(0.0, 0.5) - math.tanh(-2.75)) < 1e-6

    def test_value_at_origin_is_offset(self):
        for wave in builtin_waves():
            assert wave(0.0, 0.0) == wave.offset

    def test_amplitude_flip_symmetry(self):
        wave = TravelingWave(1.0, 0.5, 1.0, 5.5)
        flipped = TravelingWave(1.0, -0.5, 1.0, 5.5)
        for x, t in ((0.3, 0.1), (-2.0, 0.4), (5.0, 0.0)):
            assert flipped(x, t) == pytest.approx(2 * wave.offset - wave(x, t), rel=1e-15)


class TestTaylor:
    def test_first_coefficients_at_origin(self):
        c = KINK.taylor(0.0, 3)
        assert c[0] == 0.0
        assert c[1] == -5.5
        assert c[2] == 0.0
        assert c[3] == pytest.approx(5.5**3 / 3, rel=1e-9)

    def test_offset_and_amplitude_enter_linearly(self):
        base = KINK.taylor(0.7, 8)
        shifted = TravelingWave(2.0, -0.25, 1.0, 5.5).taylor(0.7, 8)
        assert shifted[0] == pytest.approx(2.0 - 0.25 * base[0], rel=1e-14)
        for j in range(1, 9):
            assert shifted[j] == pytest.approx(-0.25 * base[j], rel=1e-14)

    def test_against_high_precision_expansion(self):
        # Cross-check the float recurrence against mpmath's arbitrary
        # precision Taylor coefficients of the closed form.
        wave = TravelingWave(1.0, 0.5, 1.0, 5.5)
        with mp.workdps(40):
            for x in (0.0, 0.7, -2.0):
                ref = mp.taylor(lambda t: wave.offset + wave.amplitude * mp.tanh(wave.wavenumber * x - wave.rate * t), 0, 10)
                got = wave.taylor(x, 10)
                for g, r in zip(got, ref):
                    assert abs(g - float(r)) <= 1e-11 * max(1.0, abs(float(r)))

    def test_partial_sum_converges_at_half_radius(self):
        for x in (0.0, 1.0, -1.0, 5.0, -5.0):
            t = KINK.convergence_radius(x) / 2
            total = partial_sum(KINK.taylor(x, 20), t)
            assert abs(total - KINK(x, t)) < 1e-6

    def test_partial_sum_inside_radius_improves_with_order(self):
        t = 0.2  # inside R(0) = 0.2856
        c = KINK.taylor(0.0, 15)
        err5 = abs(partial_sum(c[:6], t) - KINK(0.0, t))
        err15 = abs(partial_sum(c, t) - KINK(0.0, t))
        assert err15 < err5

    @given(
        st.lists(_EDGE_FLOATS, min_size=1, max_size=6),
        st.lists(_EDGE_FLOATS, min_size=1, max_size=6),
    )
    def test_partial_sum_of_an_array_is_the_float_loop_bitwise(self, coeffs, ts):
        # Each element takes the float loop's multiply and add, so its bits
        # are the float call's; only a nan's bits may differ.
        values = quiet(partial_sum)(coeffs, np.array(ts)).tolist()
        expected = [partial_sum(coeffs, t) for t in ts]
        assert list(map(_bits, values)) == list(map(_bits, expected))

    def test_partial_sum_outside_radius_degrades_with_order(self):
        t = 0.4  # outside R(0)
        c = KINK.taylor(0.0, 15)
        err5 = abs(partial_sum(c[:6], t) - KINK(0.0, t))
        err15 = abs(partial_sum(c, t) - KINK(0.0, t))
        assert err15 >= err5

    def test_order_validation(self):
        with pytest.raises(ValueError):
            KINK.taylor(0.0, -1)


class TestConvergenceRadius:
    def test_reference_values(self):
        assert KINK.convergence_radius(5.0) == pytest.approx(0.9528972974, abs=1e-9)
        assert KINK.convergence_radius(0.0) == pytest.approx(0.2855993321, abs=1e-9)

    def test_origin_value_is_pi_over_eleven(self):
        assert KINK.convergence_radius(0.0) == pytest.approx(math.pi / 11, rel=1e-15)

    def test_even_in_x(self):
        for x in (0.1, 1.7, 4.0, 12.5, 100.0):
            assert KINK.convergence_radius(-x) == KINK.convergence_radius(x)

    def test_grows_with_distance(self):
        radii = [KINK.convergence_radius(x) for x in (0.0, 1.0, 5.0, 15.0)]
        assert radii == sorted(radii)

    def test_degenerate_rate(self):
        frozen = TravelingWave(0.0, 1.0, 1.0, 0.0)
        with pytest.raises(
            ConfigError, match="^a wave with zero rate never moves; its t-series is trivial$"
        ):
            frozen.convergence_radius(1.0)

    def test_degenerate_amplitude(self):
        flat = TravelingWave(1.0, 0.0, 1.0, 5.5)
        with pytest.raises(ConfigError, match="^a constant wave has no pole and no finite radius$"):
            flat.convergence_radius(1.0)

    def test_builtin_waves_share_geometry(self):
        waves = builtin_waves()
        assert {w.wavenumber for w in waves} == {1.0}
        assert {w.rate for w in waves} == {5.5}


class TestEmpiricalRadius:
    def test_geometric_series(self):
        coeffs = [2.0**-j for j in range(17)]
        assert empirical_radius(coeffs) == pytest.approx(2.0, abs=1e-9)

    def test_alternating_geometric_series(self):
        coeffs = [(-1.0) ** j * 3.0**-j for j in range(17)]
        assert empirical_radius(coeffs) == pytest.approx(3.0, abs=1e-9)

    def test_kink_series_recovers_pole_distance(self):
        estimate = empirical_radius(KINK.taylor(0.0, 30))
        true = KINK.convergence_radius(0.0)
        assert abs(estimate - true) / true < 0.02

    def test_offset_is_ignored(self):
        base = KINK.taylor(0.0, 20)
        shifted = [base[0] + 100.0] + base[1:]
        assert empirical_radius(shifted) == empirical_radius(base)

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            empirical_radius([1.0, 0.5, 0.25])

    def test_too_few_nonzero(self):
        with pytest.raises(InsufficientDataError):
            empirical_radius([1.0, 2.0] + [0.0] * 10)

    @pytest.mark.parametrize(
        "index, value",
        [(10, math.inf), (10, math.nan), (20, math.nan)],
        ids=["inf", "nan", "last-nan"],
    )
    def test_refuses_a_coefficient_that_is_not_finite(self, index, value):
        # The sparsity filter would read a nan as a zero, and an inf would
        # blank out its neighbours: both gave a radius, as if measured.
        coeffs = builtin_waves()[0].taylor(0.0, 20)
        coeffs[index] = value
        message = f"^coefficient {index} is {value!r}, not a finite number$"
        with pytest.raises(InsufficientDataError, match=message):
            empirical_radius(coeffs)
