import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from taylorpde import TanhPoly, TimeSeries, TruncationError, partial_sum


class TestTanhPoly:
    def test_strips_trailing_zeros(self):
        assert TanhPoly([1.0, 2.0, 0.0, 0.0]).coeffs == (1.0, 2.0)

    def test_zero_is_single_coefficient(self):
        assert TanhPoly([0.0, 0.0, 0.0]).coeffs == (0.0,)
        assert TanhPoly([]).coeffs == (0.0,)
        assert TanhPoly.zero().is_zero()

    def test_degree(self):
        assert TanhPoly([3.0]).degree == 0
        assert TanhPoly([0.0, 0.0, 1.0]).degree == 2

    def test_add_sub_neg(self):
        p = TanhPoly([1.0, 2.0])
        q = TanhPoly([0.0, -2.0, 5.0])
        assert (p + q).coeffs == (1.0, 0.0, 5.0)
        assert (p - p).coeffs == (0.0,)
        assert (-q).coeffs == (0.0, 2.0, -5.0)

    def test_scalar_ops(self):
        p = TanhPoly([1.0, -4.0])
        assert (p * 2).coeffs == (2.0, -8.0)
        assert (0.5 * p).coeffs == (0.5, -2.0)
        assert (p / 4).coeffs == (0.25, -1.0)
        assert (p + 1).coeffs == (2.0, -4.0)

    def test_mul(self):
        # (1 + w)(1 - w) = 1 - w^2
        assert (TanhPoly([1.0, 1.0]) * TanhPoly([1.0, -1.0])).coeffs == (1.0, 0.0, -1.0)

    def test_mul_cancellation_normalizes(self):
        # w * 0 collapses to the zero polynomial, not [0, 0]
        assert (TanhPoly([0.0, 1.0]) * TanhPoly.zero()).coeffs == (0.0,)

    def test_dx_of_w(self):
        assert TanhPoly([0.0, 1.0]).dx().coeffs == (1.0, 0.0, -1.0)

    def test_dx_of_constant_is_zero(self):
        assert TanhPoly([7.5]).dx().is_zero()

    def test_dx_of_w_squared(self):
        assert TanhPoly([0.0, 0.0, 1.0]).dx().coeffs == (0.0, 2.0, 0.0, -2.0)

    def test_eval_at_origin(self):
        assert TanhPoly([1.0, 0.5])(0.0) == 1.0
        assert TanhPoly([2.0, -1.0])(0.0) == 2.0

    def test_eval_saturates(self):
        assert abs(TanhPoly([0.0, 1.0])(20.0) - 1.0) < 1e-15

    def test_eval_matches_direct_formula(self):
        p = TanhPoly([1.0, -0.25])
        for x in (-2.0, 0.3, 5.0):
            assert p(x) == pytest.approx(1.0 - 0.25 * math.tanh(x), rel=1e-15)

    def test_eq_and_hash(self):
        assert TanhPoly([1, 2]) == TanhPoly([1.0, 2.0, 0.0])
        assert hash(TanhPoly([1, 2])) == hash(TanhPoly([1.0, 2.0]))
        assert TanhPoly([1, 2]) != TanhPoly([2, 1])


_small_polys = st.lists(
    st.integers(min_value=-9, max_value=9), min_size=1, max_size=5
).map(TanhPoly)


@given(_small_polys, _small_polys, _small_polys)
def test_ring_axioms(p, q, r):
    # Integer coefficients this small stay exact in doubles, so the ring
    # axioms hold bitwise, not just approximately.
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(_small_polys, _small_polys)
def test_leibniz_rule(p, q):
    assert (p * q).dx() == p.dx() * q + p * q.dx()


def test_eval_is_ring_homomorphism():
    p = TanhPoly([1.0, 2.0, -1.0])
    q = TanhPoly([0.5, 0.0, 3.0])
    for x in (-1.0, 0.0, 0.7):
        assert (p + q)(x) == pytest.approx(p(x) + q(x), rel=1e-14, abs=1e-14)
        assert (p * q)(x) == pytest.approx(p(x) * q(x), rel=1e-13, abs=1e-13)


def test_dx_matches_finite_difference():
    p = TanhPoly([0.0, 1.0, 0.0, 2.0])
    h = 1e-5
    for x in (-1.5, 0.0, 0.4, 2.0):
        fd = (p(x + h) - p(x - h)) / (2 * h)
        assert abs(p.dx()(x) - fd) < 1e-6


class TestTimeSeries:
    def test_order_and_coeff_coercion(self):
        s = TimeSeries([[1.0, 0.5], 2.0, TanhPoly([0.0, 1.0])])
        assert s.order == 2
        assert s.coeffs[0] == TanhPoly([1.0, 0.5])
        assert s.coeffs[1] == TanhPoly([2.0])

    def test_needs_a_leading_coefficient(self):
        with pytest.raises(ValueError):
            TimeSeries([])

    def test_constructors(self):
        assert TimeSeries.constant(3.0, 2).coeffs == (
            TanhPoly([3.0]),
            TanhPoly.zero(),
            TanhPoly.zero(),
        )
        assert TimeSeries.zero(1).coeffs == (TanhPoly.zero(), TanhPoly.zero())
        assert TimeSeries.from_scalars([1, 2, 3]).order == 2

    def test_truncate(self):
        s = TimeSeries.from_scalars([1.0, 2.0, 3.0])
        assert s.truncate(1).coeffs == s.coeffs[:2]
        assert s.truncate(2) is s

    def test_truncate_cannot_extend(self):
        with pytest.raises(TruncationError):
            TimeSeries.from_scalars([1.0]).truncate(3)

    def test_mul_squares_binomial(self):
        # (1 + t)^2 = 1 + 2t + t^2
        s = TimeSeries.from_scalars([1.0, 1.0, 0.0])
        sq = s.mul(s, 2)
        assert [p.coeffs[0] for p in sq.coeffs] == [1.0, 2.0, 1.0]

    def test_mul_truncates_convolution(self):
        # (1 + t + t^2)^2 cut at order 2
        s = TimeSeries.from_scalars([1.0, 1.0, 1.0])
        sq = s.mul(s, 2)
        assert [p.coeffs[0] for p in sq.coeffs] == [1.0, 2.0, 3.0]

    def test_mul_with_poly_coefficients(self):
        # (w + 1*t) * w = w^2 + w*t
        a = TimeSeries([TanhPoly([0.0, 1.0]), TanhPoly([1.0])])
        b = TimeSeries([TanhPoly([0.0, 1.0]), TanhPoly.zero()])
        prod = a.mul(b, 1)
        assert prod.coeffs[0] == TanhPoly([0.0, 0.0, 1.0])
        assert prod.coeffs[1] == TanhPoly([0.0, 1.0])

    def test_mul_rejects_deeper_truncation_than_inputs(self):
        a = TimeSeries.from_scalars([1.0, 1.0])
        with pytest.raises(TruncationError):
            a.mul(a, 2)

    def test_mul_prefix_stability(self):
        # Extending the truncation order never changes earlier coefficients.
        a = TimeSeries.from_scalars([1.0, -0.5, 0.25, 2.0, 1.5])
        b = TimeSeries.from_scalars([2.0, 3.0, -1.0, 0.5, 0.75])
        low = a.mul(b, 2)
        high = a.mul(b, 4)
        assert high.coeffs[:3] == low.coeffs

    def test_add_aligns_to_shorter_order(self):
        a = TimeSeries.from_scalars([1.0, 2.0])
        b = TimeSeries.from_scalars([1.0, 1.0, 1.0, 1.0])
        assert (a + b).order == 1
        assert (a - b).coeffs[1] == TanhPoly([1.0])

    def test_integrate(self):
        assert [p.coeffs[0] for p in TimeSeries.from_scalars([1.0]).integrate().coeffs] == [
            0.0,
            1.0,
        ]
        s = TimeSeries.from_scalars([4.0, 6.0]).integrate()
        assert [p.coeffs[0] for p in s.coeffs] == [0.0, 4.0, 3.0]
        s = TimeSeries.from_scalars([0.0, 0.0, 3.0]).integrate()
        assert [p.coeffs[0] for p in s.coeffs] == [0.0, 0.0, 0.0, 1.0]

    def test_integrate_then_differentiate_in_t(self):
        # d/dt of the antiderivative reproduces the series values.
        s = TimeSeries.from_scalars([1.0, -2.0, 0.5])
        anti = s.integrate()
        h = 1e-5
        t = 0.05
        fd = (anti.eval(0.3, t + h) - anti.eval(0.3, t - h)) / (2 * h)
        assert abs(fd - s.eval(0.3, t)) < 1e-6

    def test_eval_constant_coefficients(self):
        s = TimeSeries.from_scalars([1.0, 2.0, 1.0])
        assert s.eval(0.0, 0.5) == 2.25

    def test_eval_at_t_zero_is_leading_poly(self):
        s = TimeSeries([TanhPoly([1.0, 0.5]), TanhPoly([9.0])])
        for x in (-2.0, 0.0, 1.0):
            assert s.eval(x, 0.0) == s.coeffs[0](x)

    def test_dx_applies_coefficientwise(self):
        s = TimeSeries([TanhPoly([0.0, 1.0]), TanhPoly([1.0])])
        d = s.dx()
        assert d.coeffs[0] == TanhPoly([1.0, 0.0, -1.0])
        assert d.coeffs[1] == TanhPoly.zero()

    def test_dx_requires_positive_order(self):
        with pytest.raises(ValueError):
            TimeSeries.from_scalars([1.0]).dx(0)

    def test_scale_and_neg(self):
        s = TimeSeries.from_scalars([1.0, -2.0])
        assert [p.coeffs[0] for p in s.scale(2).coeffs] == [2.0, -4.0]
        assert [p.coeffs[0] for p in (-s).coeffs] == [-1.0, 2.0]


_coeff = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
_coeff_lists = st.lists(_coeff, min_size=1, max_size=6)


@given(
    st.lists(_coeff_lists, min_size=1, max_size=6),
    st.floats(min_value=-20.0, max_value=20.0),
    st.floats(min_value=-2.0, max_value=2.0),
)
def test_eval_is_partial_sum_bitwise(rows, x, t):
    # TimeSeries.eval shares one tanh(x) across rows; it must give the very
    # bits of evaluating each row on its own and summing in t.
    s = TimeSeries(rows)
    assert s.eval(x, t) == partial_sum([p(x) for p in s.coeffs], t)
    for c in rows:
        assert TanhPoly(c)(x) == partial_sum(c, math.tanh(x))


def test_series_eval_partial_sum_accuracy(riccati, riccati15):
    # Numerically verified: the order-15 partial sum at t=0.1 (deep inside
    # the convergence disk at x=0) reproduces the closed form to about
    # 2e-8; the first dropped term, c17*t^17, sets that floor.  The scalar
    # wave recurrence and the solved series must both reach it.
    exact = math.tanh(-0.55)
    assert abs(partial_sum(riccati.waves[0].taylor(0.0, 15), 0.1) - exact) < 1e-7
    assert abs(riccati15.series[0].eval(0.0, 0.1) - exact) < 1e-7


def test_series_mul_matches_numpy_convolution():
    rng = np.random.default_rng(7)
    a = rng.standard_normal(6)
    b = rng.standard_normal(6)
    ours = TimeSeries.from_scalars(a).mul(TimeSeries.from_scalars(b), 5)
    full = np.convolve(a, b)[:6]
    np.testing.assert_allclose([p.coeffs[0] for p in ours.coeffs], full, rtol=1e-13)
