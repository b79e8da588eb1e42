"""The convolution kernels skip zero factors or add signed-zero terms in
numpy, so they are checked bitwise against the dense loops, kept here as
the reference, on rows that mix 0.0 and -0.0 with finite floats.
Known-value checks run on both, so the reference is checked too."""

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from taylorpde import _backend


class _Dense:
    """The dense loops: every pair of coefficients is multiplied."""

    @staticmethod
    def conv(a, b):
        la = len(a)
        lb = len(b)
        if la == 0 or lb == 0:
            return [0.0]
        out = [0.0] * (la + lb - 1)
        for i in range(la):
            ai = a[i]
            for j in range(lb):
                out[i + j] += ai * b[j]
        return out

    @staticmethod
    def series_product(a, b, order, start=0):
        out = []
        for k in range(start, order + 1):
            width = 1
            for i in range(k + 1):
                w = len(a[i]) + len(b[k - i]) - 1
                if w > width:
                    width = w
            acc = [0.0] * width
            for i in range(k + 1):
                ai = a[i]
                bj = b[k - i]
                for p in range(len(ai)):
                    aip = ai[p]
                    for q in range(len(bj)):
                        acc[p + q] += aip * bj[q]
            out.append(acc)
        return out


# "numpy" is the package's kernel, named as taylorpde.BACKEND names it.
KERNELS = [pytest.param(_backend, id="numpy"), pytest.param(_Dense, id="dense")]

_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
_rows = st.lists(st.lists(_floats, min_size=1, max_size=6), min_size=1, max_size=6)
# Quotients whose products and sums round: most drawn floats are integers
# or short binary fractions, which add exactly in any order.
_quotients = st.builds(lambda n, d: n / d, st.integers(-(10**6), 10**6), st.integers(1, 999))
# Signed zeros, moderate floats, quotients and any finite float.
_coeffs = st.one_of(
    st.sampled_from([0.0, -0.0]),
    _floats,
    _quotients,
    st.floats(allow_nan=False, allow_infinity=False),
)
_sparse_row = st.lists(_coeffs, min_size=1, max_size=7)


def _bits(rows):
    return [[struct.pack("<d", c) for c in row] for row in rows]


@pytest.mark.parametrize("kernels", KERNELS)
def test_conv_known_product(kernels):
    assert list(kernels.conv([1.0, 2.0], [3.0, 4.0])) == [3.0, 10.0, 8.0]


@pytest.mark.parametrize("kernels", KERNELS)
def test_conv_identity(kernels):
    assert list(kernels.conv([5.0, -1.0, 2.0], [1.0])) == [5.0, -1.0, 2.0]


@pytest.mark.parametrize("kernels", KERNELS)
def test_series_product_known_square(kernels):
    rows = [[1.0], [1.0]]
    assert [list(row) for row in kernels.series_product(rows, rows, 1)] == [[1.0], [2.0]]


@given(_sparse_row, _sparse_row)
def test_conv_skipping_zeros_matches_dense_loop_bitwise(a, b):
    assert _bits([_backend.conv(a, b)]) == _bits([_Dense.conv(a, b)])


@given(st.data())
def test_series_product_skipping_zeros_matches_dense_loop_bitwise(data):
    # Up to 21 rows, so a column can sum more terms than numpy's 8-term
    # pairwise block.  Rows of one coefficient make one-column products,
    # which numpy would sum pairwise if the kernel gathered them so; their
    # coefficients are quotients, so that the summation order shows.
    one_column = data.draw(st.booleans(), label="one column")
    coeff = _quotients if one_column else _coeffs
    row = st.lists(coeff, min_size=1, max_size=1 if one_column else 7)
    order = data.draw(st.integers(0, 20), label="order")
    rows = st.lists(row, min_size=order + 1, max_size=order + 1)
    a = data.draw(rows, label="a")
    b = data.draw(rows, label="b")
    start = data.draw(st.integers(0, order), label="start")
    dense = _bits(_Dense.series_product(a, b, order, start=start))
    assert _bits(_backend.series_product(a, b, order, start=start)) == dense
    # A state kept across orders, one row per call as the solver asks,
    # gives the same bits.
    state = _backend.ProductState()
    tail = [_backend.series_product(a, b, k, start=k, nonzero=state)[0] for k in range(order + 1)]
    assert _bits(tail[start:]) == dense


@given(st.data())
def test_series_product_start_returns_the_tail_bitwise(data):
    # Row-only calls (start=order) are how the solver advances one order at
    # a time, so rows must not depend on which other rows were requested.
    a = data.draw(_rows, label="a")
    row = st.lists(_floats, min_size=1, max_size=6)
    b = data.draw(st.lists(row, min_size=len(a), max_size=len(a)), label="b")
    order = len(a) - 1
    start = data.draw(st.integers(0, order), label="start")
    tail = _backend.series_product(a, b, order, start=start)
    assert len(tail) == order + 1 - start
    full = _backend.series_product(a, b, order)[start:]
    assert _bits(tail) == _bits(full)


def test_only_nonzero_pairs_are_multiplied():
    # conv scales a only by the nonzero b[j]: the skipped product
    # inf * b[0] would be nan, and the dense loops give [nan, inf, 1.0].
    inf = float("inf")
    assert list(_backend.conv([inf, 1.0], [0.0, 1.0])) == [0.0, inf, 1.0]
    a = [[1.0, 0.0, 2.0], [0.0, -0.0, 3.0, 0.0], [4.0]]
    b = [[0.0, 5.0], [6.0, 0.0, -7.0], [-0.0, 8.0, 0.0]]
    assert list(_backend.conv(a[0], b[1])) == [6.0, 0.0, 5.0, 0.0, -14.0]

    # The product kernel forms no pair with a zero term: its state holds
    # exactly the nonzero terms of the rows of each factor, as
    # (i, p, a[i][p]), and a square keeps one factor.
    state = _backend.ProductState()
    _backend.series_product(a, b, 2, start=1, nonzero=state)
    terms = [list(zip(*(c.tolist() for c in f.terms(2)))) for f in (state.left, state.right)]
    assert terms[0] == [(0, 0, 1.0), (0, 2, 2.0), (1, 2, 3.0), (2, 0, 4.0)]
    assert terms[1] == [(0, 1, 5.0), (1, 0, 6.0), (1, 2, -7.0), (2, 1, 8.0)]
    state = _backend.ProductState()
    _backend.series_product(a, a, 2, nonzero=state)
    assert state.left is state.right


@pytest.mark.parametrize("zero_on_the_left", [True, False], ids=["left", "right"])
def test_zero_factor_skips_the_other_whichever_side(zero_on_the_left):
    # Each product row splits where the fewest terms are gathered, and a
    # factor of zero rows supplies none, so its pairs are all skipped:
    # the dense loops give 0 * inf = nan, the kernel the exact 0.0.
    inf = float("inf")
    zeros, infs = [[0.0, -0.0]] * 3, [[inf, 1.0]] * 3
    a, b = (zeros, infs) if zero_on_the_left else (infs, zeros)
    state = _backend.ProductState()
    rows = _backend.series_product(a, b, 2, nonzero=state)
    assert _bits(rows) == _bits([[0.0] * 3] * 3)
    assert state.split(2) == (2 if zero_on_the_left else -1)


def test_split_lands_at_both_ends_and_between():
    # Rows 0..3 of 1, 2, 3 and 4 terms: the split of row 3 that gathers
    # fewest takes rows 0..1 of each factor (3 + 3 terms, not 10).  Its
    # sums round, so they show the order in which the two blocks add.
    growing = [[x] * (i + 1) for i, x in enumerate((7.0, 1.0, 3.0, 0.1))]
    sparse = [[0.5, 0.0, 0.0]] + [[0.0, -0.0]] * 3
    splits = {}
    for name, a, b in [
        ("right", growing, sparse),
        ("left", sparse, growing),
        ("between", growing, growing[:]),
    ]:
        state = _backend.ProductState()
        rows = _backend.series_product(a, b, 3, nonzero=state)
        assert _bits(rows) == _bits(_Dense.series_product(a, b, 3))
        splits[name] = state.split(3)
    # All terms from b's one nonzero row, all from a's, or half from each.
    assert splits == {"right": -1, "left": 3, "between": 1}


def test_a_column_of_negative_zero_terms_sums_to_positive_zero():
    # The dense loops start every sum at +0.0, and +0.0 + -0.0 is +0.0;
    # numpy's add.reduce must start at that identity too, not at the
    # first term, for the kernel to keep their bits.  Row 0 here takes
    # one block, and column 0 its one term -1.0 * 0.0.
    row = _backend.series_product([[-1.0]], [[0.0, 2.0, 3.0]], 0)[0]
    assert _bits([row[:1]]) == _bits([[0.0]])
    # Row 1 splits between the blocks: a[0] * b[1] from a's term, then
    # a[1] * b[0] from b's.  Column 0 gets -1.0 * 0.0 from the first and
    # 0.0 * -1.0 from the second, both -0.0.
    a = [[-1.0], [0.0, 5.0]]
    b = [[-1.0], [0.0, 2.0, 3.0]]
    state = _backend.ProductState()
    row = _backend.series_product(a, b, 1, start=1, nonzero=state)[0]
    assert state.split(1) == 0
    assert _bits([row[:1]]) == _bits([[0.0]])
    assert _bits([row]) == _bits(_Dense.series_product(a, b, 1, start=1))


def _lopsided_rows(data, order, label):
    """order+1 rows that are all dense, all sparse, or a mix: long rows
    of any coefficients, short rows, and rows of signed zeros only."""
    dense = st.lists(_coeffs, min_size=4, max_size=9)
    short = st.lists(_quotients, min_size=1, max_size=2)
    zero = st.lists(st.sampled_from([0.0, -0.0]), min_size=1, max_size=5)
    kind = data.draw(st.sampled_from(["dense", "sparse", "mixed"]), label=f"{label} kind")
    row = {"dense": dense, "sparse": st.one_of(short, zero), "mixed": st.one_of(dense, short, zero)}
    return data.draw(st.lists(row[kind], min_size=order + 1, max_size=order + 1), label=label)


@given(st.data())
def test_series_product_split_matches_dense_loop_bitwise(data):
    # Factors whose rows are much longer, shorter or sparser than the
    # other's move the split of a row to either end or anywhere between.
    order = data.draw(st.integers(0, 20), label="order")
    a = _lopsided_rows(data, order, "a")
    b = _lopsided_rows(data, order, "b")
    dense = _bits(_Dense.series_product(a, b, order))
    state = _backend.ProductState()
    tail = [_backend.series_product(a, b, k, start=k, nonzero=state)[0] for k in range(order + 1)]
    assert _bits(tail) == dense
    assert _bits(_backend.series_product(a, b, order)) == dense
    assert all(-1 <= state.split(k) <= k for k in range(order + 1))


@given(st.data())
def test_square_of_one_list_matches_dense_loop_bitwise(data):
    # series_product(a, a, ...) keeps one copy of a for both factors.
    order = data.draw(st.integers(0, 20), label="order")
    a = _lopsided_rows(data, order, "a")
    dense = _bits(_Dense.series_product(a, a, order))
    state = _backend.ProductState()
    tail = [_backend.series_product(a, a, k, start=k, nonzero=state)[0] for k in range(order + 1)]
    assert state.left is state.right
    assert _bits(tail) == dense
    assert _bits(_backend.series_product(a, a, order)) == dense
