"""The convolution kernels skip zero factors, so they are checked bitwise
against the dense loops they replace, kept here as the reference, on
rows that mix 0.0 and -0.0 with finite floats.  Known-value checks run
on both, so the reference is checked too."""

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


# "pure" is the package's kernel, named as taylorpde.BACKEND names it.
KERNELS = [pytest.param(_backend, id="pure"), pytest.param(_Dense, id="dense")]

_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
_rows = st.lists(st.lists(_floats, min_size=1, max_size=6), min_size=1, max_size=6)
# Signed zeros, moderate floats whose sums round, and any finite float.
_coeffs = st.one_of(
    st.sampled_from([0.0, -0.0]),
    _floats,
    st.floats(allow_nan=False, allow_infinity=False),
)
_sparse_row = st.lists(_coeffs, min_size=1, max_size=7)


def _bits(rows):
    return [[struct.pack("<d", c) for c in row] for row in rows]


@pytest.mark.parametrize("kernels", KERNELS)
def test_conv_known_product(kernels):
    assert kernels.conv([1.0, 2.0], [3.0, 4.0]) == [3.0, 10.0, 8.0]


@pytest.mark.parametrize("kernels", KERNELS)
def test_conv_identity(kernels):
    assert kernels.conv([5.0, -1.0, 2.0], [1.0]) == [5.0, -1.0, 2.0]


@pytest.mark.parametrize("kernels", KERNELS)
def test_series_product_known_square(kernels):
    rows = [[1.0], [1.0]]
    assert kernels.series_product(rows, rows, 1) == [[1.0], [2.0]]


@given(_sparse_row, _sparse_row)
def test_conv_skipping_zeros_matches_dense_loop_bitwise(a, b):
    assert _bits([_backend.conv(a, b)]) == _bits([_Dense.conv(a, b)])


@given(st.data())
def test_series_product_skipping_zeros_matches_dense_loop_bitwise(data):
    a = data.draw(st.lists(_sparse_row, min_size=1, max_size=6), label="a")
    n = len(a)
    b = data.draw(st.lists(_sparse_row, min_size=n, max_size=n), label="b")
    order = n - 1
    start = data.draw(st.integers(0, order), label="start")
    assert _bits(_backend.series_product(a, b, order, start=start)) == _bits(
        _Dense.series_product(a, b, order, start=start)
    )


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
    products = []

    class Counted(float):
        def __mul__(self, other):
            products.append((float(self), float(other)))
            return float(self) * float(other)

        __rmul__ = __mul__

    def counted(rows):
        return [[Counted(c) for c in row] for row in rows]

    a = counted([[1.0, 0.0, 2.0], [0.0, -0.0, 3.0, 0.0], [4.0]])
    b = counted([[0.0, 5.0], [6.0, 0.0, -7.0], [-0.0, 8.0, 0.0]])
    assert _backend.conv(a[0], b[1]) == [6.0, 0.0, 5.0, 0.0, -14.0]
    assert sorted(products) == [(1.0, -7.0), (1.0, 6.0), (2.0, -7.0), (2.0, 6.0)]

    products.clear()
    _backend.series_product(a, b, 2, start=1)
    # Row 1: a0*b1 (2 x 2 nonzeros) + a1*b0 (1 x 1); row 2: a0*b2 (2 x 1)
    # + a1*b1 (1 x 2) + a2*b0 (1 x 1).
    assert len(products) == 4 + 1 + 2 + 2 + 1
    assert all(x != 0.0 and y != 0.0 for x, y in products)
