import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import test_solver as plain
from taylorpde import ConfigError, TanhPoly, TaylorPdeError, TimeSeries, partial_sum
from taylorpde import _backend
from taylorpde.series import add_rows, check_finite, dx_row, dx_rows, sub_rows, trim
from test_kernels import _bits


def _add(p, q):
    """Sum of two polynomials through the row function the solver uses."""
    return TanhPoly(add_rows(p.row(), q.row()))


def _mul(p, q):
    """Product of two polynomials through the kernel the solver uses."""
    return TanhPoly(_backend.conv(p.coeffs, q.coeffs))


def _dx(p):
    """Derivative in x through the row function the solver uses."""
    return TanhPoly(dx_row(p.row()))


class TestTanhPoly:
    def test_strips_trailing_zeros(self):
        assert TanhPoly([1.0, 2.0, 0.0, 0.0]).coeffs == (1.0, 2.0)

    def test_zero_is_single_coefficient(self):
        assert TanhPoly([0.0, 0.0, 0.0]).coeffs == (0.0,)
        assert TanhPoly([]).coeffs == (0.0,)

    def test_degree(self):
        assert TanhPoly([3.0]).degree == 0
        assert TanhPoly([0.0, 0.0, 1.0]).degree == 2

    def test_add_sub_neg(self):
        p = np.array([1.0, 2.0])
        q = np.array([0.0, -2.0, 5.0])
        assert add_rows(p, q).tolist() == [1.0, 0.0, 5.0]
        assert sub_rows(p, p).tolist() == [0.0]
        assert np.negative(q).tolist() == [-0.0, 2.0, -5.0]

    def test_scalar_ops(self):
        # Division is the one scalar operation: the recurrence's 1/(j+1).
        # A top coefficient that underflows to zero is trimmed.
        assert trim(np.array([1.0, -4.0]) / 4).tolist() == [0.25, -1.0]
        assert trim(np.array([1.0, 5e-324]) / 4).tolist() == [0.25]

    def test_mul(self):
        # (1 + w)(1 - w) = 1 - w^2
        assert _mul(TanhPoly([1.0, 1.0]), TanhPoly([1.0, -1.0])).coeffs == (1.0, 0.0, -1.0)

    def test_mul_cancellation_normalizes(self):
        # w * 0 collapses to the zero polynomial, not [0, 0]
        assert _mul(TanhPoly([0.0, 1.0]), TanhPoly([0.0])).coeffs == (0.0,)

    def test_dx_of_w(self):
        assert _dx(TanhPoly([0.0, 1.0])).coeffs == (1.0, 0.0, -1.0)

    def test_dx_of_constant_is_zero(self):
        assert _dx(TanhPoly([7.5])) == TanhPoly([0.0])

    def test_dx_of_w_squared(self):
        assert _dx(TanhPoly([0.0, 0.0, 1.0])).coeffs == (0.0, 2.0, 0.0, -2.0)

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
    assert _mul(p, q) == _mul(q, p)
    assert _mul(_mul(p, q), r) == _mul(p, _mul(q, r))
    assert _mul(p, _add(q, r)) == _add(_mul(p, q), _mul(p, r))


@given(_small_polys, _small_polys)
def test_leibniz_rule(p, q):
    assert _dx(_mul(p, q)) == _add(_mul(_dx(p), q), _mul(p, _dx(q)))


def test_eval_is_ring_homomorphism():
    p = TanhPoly([1.0, 2.0, -1.0])
    q = TanhPoly([0.5, 0.0, 3.0])
    for x in (-1.0, 0.0, 0.7):
        assert _add(p, q)(x) == pytest.approx(p(x) + q(x), rel=1e-14, abs=1e-14)
        assert _mul(p, q)(x) == pytest.approx(p(x) * q(x), rel=1e-13, abs=1e-13)


def test_dx_matches_finite_difference():
    p = TanhPoly([0.0, 1.0, 0.0, 2.0])
    h = 1e-5
    for x in (-1.5, 0.0, 0.4, 2.0):
        fd = (p(x + h) - p(x - h)) / (2 * h)
        assert abs(_dx(p)(x) - fd) < 1e-6


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
        # A zero series is spelled out, one coefficient per order.
        assert TimeSeries([0.0, 0.0]).coeffs == (TanhPoly([0.0]), TanhPoly([0.0]))
        assert TimeSeries([1, 2, 3]).order == 2

    def test_mul_squares_binomial(self):
        # (1 + t)^2 = 1 + 2t + t^2
        s = TimeSeries([1.0, 1.0, 0.0])
        sq = s.mul(s, 2)
        assert [p.coeffs[0] for p in sq.coeffs] == [1.0, 2.0, 1.0]

    def test_mul_truncates_convolution(self):
        # (1 + t + t^2)^2 cut at order 2
        s = TimeSeries([1.0, 1.0, 1.0])
        sq = s.mul(s, 2)
        assert [p.coeffs[0] for p in sq.coeffs] == [1.0, 2.0, 3.0]

    def test_mul_with_poly_coefficients(self):
        # (w + 1*t) * w = w^2 + w*t
        a = TimeSeries([TanhPoly([0.0, 1.0]), TanhPoly([1.0])])
        b = TimeSeries([TanhPoly([0.0, 1.0]), TanhPoly([0.0])])
        prod = a.mul(b, 1)
        assert prod.coeffs[0] == TanhPoly([0.0, 0.0, 1.0])
        assert prod.coeffs[1] == TanhPoly([0.0, 1.0])

    def test_mul_rejects_deeper_truncation_than_inputs(self):
        a = TimeSeries([1.0, 1.0])
        with pytest.raises(
            ConfigError,
            match=r"^product truncated at order 2 needs both factors to carry 3 "
            r"coefficients; have orders 1 and 1$",
        ):
            a.mul(a, 2)

    @pytest.mark.parametrize(
        "left, right, message",
        [
            ([[1.0, math.inf]], [[0.0, 1.0]], r"^order 0 of the left factor .* w\^1 is inf$"),
            ([[1.0], [2.0]], [[1.0], [0.0, math.nan]], r"^order 1 of the right factor .* w\^1 is nan$"),
            ([[1e200]], [[1e200]], r"^order 0 of the product .* w\^0 is inf$"),
        ],
        ids=["inf-left", "nan-right", "overflow"],
    )
    def test_mul_rejects_non_finite_rows(self, left, right, message):
        # The zero-skipping kernel would give (0.0, 1.0, inf) for the first
        # case, where the dense IEEE product is (0.0, nan, inf).
        with pytest.raises(TaylorPdeError, match=message):
            TimeSeries(left).mul(TimeSeries(right), len(left) - 1)

    def test_mul_reads_only_rows_up_to_order(self):
        a = TimeSeries([[1.0], [math.nan]])
        assert a.mul(a, 0).coeffs == (TanhPoly([1.0]),)

    def test_mul_prefix_stability(self):
        # Extending the truncation order never changes earlier coefficients.
        a = TimeSeries([1.0, -0.5, 0.25, 2.0, 1.5])
        b = TimeSeries([2.0, 3.0, -1.0, 0.5, 0.75])
        low = a.mul(b, 2)
        high = a.mul(b, 4)
        assert high.coeffs[:3] == low.coeffs

    def test_eval_constant_coefficients(self):
        s = TimeSeries([1.0, 2.0, 1.0])
        assert s.eval(0.0, 0.5) == 2.25

    def test_eval_at_t_zero_is_leading_poly(self):
        s = TimeSeries([TanhPoly([1.0, 0.5]), TanhPoly([9.0])])
        for x in (-2.0, 0.0, 1.0):
            assert s.eval(x, 0.0) == s.coeffs[0](x)

    def test_dx_applies_coefficientwise(self):
        s = TimeSeries([TanhPoly([0.0, 1.0]), TanhPoly([1.0])])
        d = s.dx()
        assert d.coeffs[0] == TanhPoly([1.0, 0.0, -1.0])
        assert d.coeffs[1] == TanhPoly([0.0])

    def test_dx_requires_positive_order(self):
        with pytest.raises(ValueError):
            TimeSeries([1.0]).dx(0)

    def test_dx_rejects_an_overflow(self):
        # dp/dw is (1e308, 2e308 = inf): the derivative is not returned.
        message = r"^order 1 of the derivative is not finite: coefficient of w\^1 is inf$"
        with pytest.raises(TaylorPdeError, match=message):
            TimeSeries([[1.0], [0.0, 1e308, 1e308]]).dx()

    @pytest.mark.parametrize(
        ("rows", "where"),
        [
            # dx_rows would drop the inf head and return [1, 0, -1].
            ([[math.inf, 1.0]], r"order 0 of the series is not finite: coefficient of w\^0 is inf"),
            # A constant's derivative is 0.0 whatever it holds, nan too.
            ([[1.0, 2.0], [math.nan]], r"order 1 of the series is not finite: coefficient of w\^0 is nan"),
        ],
        ids=["inf-head", "nan-constant"],
    )
    def test_dx_refuses_a_series_that_is_not_finite(self, rows, where):
        with pytest.raises(TaylorPdeError, match=f"^{where}$"):
            TimeSeries(rows).dx()


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


_signed = st.one_of(st.sampled_from([0.0, -0.0]), _coeff)


_signed_rows = st.lists(_signed, min_size=1, max_size=6).map(trim)


@given(_signed_rows, _signed_rows)
def test_row_functions_match_plain_lists_bitwise(a, b):
    # The evaluator's row arithmetic against the plain-list Python of the
    # solver tests' reference, the sign of every zero included.  The one
    # pass of sub_rows must keep the bits of a + (-b).
    ra, rb = np.array(a), np.array(b)
    assert _bits([add_rows(ra, rb)]) == _bits([plain._add(a, b)])
    assert _bits([sub_rows(ra, rb)]) == _bits([plain._add(a, plain._neg(b))])
    assert _bits([np.negative(ra)]) == _bits([plain._neg(a)])
    assert _bits([dx_row(ra)]) == _bits([plain._dx(a)])
    # TimeSeries.dx takes its derivatives through dx_rows.
    (twice,) = TimeSeries([a]).dx(2).coeffs
    assert _bits([twice.coeffs]) == _bits([plain._dx(plain._dx(a))])


# Signed zeros, the smallest subnormals, values whose derivative overflows,
# and any finite float.
_extreme_rows = st.lists(
    st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308]),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=8,
).map(trim)


def _times_1_0_minus_1(d):
    """d * [1, 0, -1] as the row product that scales d by each nonzero
    multiplier only: d * -1.0 added at column 2, then d * 1.0 at column
    0, into +0.0.  An inf in d meets no zero, so, like dx_row, it gives
    inf where the dense loop's inf * 0.0 would give nan."""
    if len(d) == 0:
        return np.zeros(1)
    out = np.zeros(len(d) + 2)
    out[2:] += d * -1.0
    out[:-2] += d * 1.0
    return out


@given(st.one_of(_signed_rows, _extreme_rows))
def test_dx_row_keeps_the_bits_of_the_chain_rule_product(row):
    # dx_row's two slice ops against the row product by [1, 0, -1], the
    # sign of every zero, inf and nan included: overflow gives the same
    # inf and nan on both paths.
    r = np.array(row)
    with np.errstate(all="ignore"):
        chain = trim(_times_1_0_minus_1(np.arange(1, len(r)) * r[1:]))
        assert _bits([dx_row(r)]) == _bits([chain])


@given(st.lists(st.one_of(_signed_rows, _extreme_rows), min_size=1, max_size=6))
def test_dx_rows_keeps_the_bits_of_dx_row(rows):
    # The evaluator's extend and TimeSeries.dx take the derivative of
    # given rows on one zero-padded grid: the padding of a short row
    # must change none of its columns, the sign of every zero, inf and
    # nan included, and every row keeps its own length.
    rows = [np.array(r) for r in rows]
    with np.errstate(all="ignore"):
        want = _bits([dx_row(r) for r in rows])
        assert _bits(dx_rows(rows)) == want
    assert dx_rows([]) == []


def _first_non_finite(subjects, orders, first):
    """check_finite's message as a plain double loop over (order,
    subject), then power; None when every coefficient is finite."""
    for j, order in enumerate(orders, first):
        for subject, row in zip(subjects, order):
            for p, c in enumerate(row):
                if not math.isfinite(c):
                    return f"order {j} of {subject} is not finite: coefficient of w^{p} is {float(c)!r}"
    return None


@st.composite
def _orders(draw):
    """(subjects, orders, first): one to three subjects, rows as arrays
    or coefficient tuples, and up to two infs or nans at drawn (order,
    subject, power)."""
    subjects = [f"field {name}" for name in "uvw"[: draw(st.integers(1, 3))]]
    order_rows = st.lists(_coeff_lists, min_size=len(subjects), max_size=len(subjects))
    orders = draw(st.lists(order_rows, min_size=1, max_size=5))
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.sampled_from(draw(st.sampled_from(orders))))
        power = draw(st.integers(0, len(row) - 1))
        row[power] = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
    kind = draw(st.sampled_from([np.array, tuple]))
    return subjects, [[kind(row) for row in order] for order in orders], draw(st.integers(0, 100))


@given(_orders())
def test_check_finite_names_what_a_double_loop_finds_first(case):
    # The one np.isfinite pass and the scan on failure against the rule
    # written out: lowest order, then first subject, then lowest power.
    subjects, orders, first = case
    expected = _first_non_finite(subjects, orders, first)
    if expected is None:
        check_finite(subjects, iter(orders), first)
    else:
        with pytest.raises(TaylorPdeError) as err:
            check_finite(subjects, iter(orders), first)
        assert type(err.value) is TaylorPdeError
        assert str(err.value) == expected


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
    ours = TimeSeries(a).mul(TimeSeries(b), 5)
    full = np.convolve(a, b)[:6]
    np.testing.assert_allclose([p.coeffs[0] for p in ours.coeffs], full, rtol=1e-13)
