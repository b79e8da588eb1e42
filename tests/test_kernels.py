"""The product kernel takes its terms from the factor with fewer nonzero
terms and adds signed-zero terms in numpy, so it, and conv, its one-row
case, are checked bitwise against the dense loops, kept here as the
reference, on rows that mix 0.0 and -0.0 with finite floats.
Known-value checks run on both, so the reference is checked too."""

import struct
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from taylorpde import FIXTURES, TanhPoly, _backend, parse_system, solve


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
    # conv takes its terms from b, the factor with fewer nonzero terms,
    # and only its nonzero b[1]: the skipped product inf * b[0] would be
    # nan, and the dense loops give [nan, inf, 1.0].
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


def _sequential_sums(rows):
    """Column sums of rows added one at a time, from +0.0, in the given
    order."""
    acc = [0.0] * len(rows[0])
    for row in rows:
        acc = [x + y for x, y in zip(acc, row)]
    return acc


def test_a_reversed_view_sums_in_the_view_order():
    # A square's mirrored half reduces a reversed view of its block, so
    # numpy must add that view's rows in view order, not in memory order.
    # Every column of this block rounds differently forward and backward.
    block = np.array(
        [
            [0.0, 1e16, 0.1],
            [0.1, 1.0, 1e16],
            [0.2, -1e16, 1.0],
            [0.3, 1.0, -1e16],
        ]
    )
    forward = _sequential_sums(block.tolist())
    backward = _sequential_sums(block.tolist()[::-1])
    assert all(f != b for f, b in zip(forward, backward))
    assert _bits([np.add.reduce(block, axis=0)]) == _bits([forward])
    assert _bits([np.add.reduce(block[::-1], axis=0)]) == _bits([backward])
    # The kernel's view: a reversed prefix whose first row has first
    # taken the forward sums.
    view = block.copy()[2::-1]
    view[0] += forward
    want = _sequential_sums([forward, *block.tolist()[2::-1]])
    assert _bits([np.add.reduce(view, axis=0)]) == _bits([want])


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


def _wide_rows(rng, order):
    """order+1 rows 50 to 60 wide of quotients, whose products and sums
    round, with a quarter signed zeros; every other row keeps only its
    even or odd powers, as a tanh kink's rows do."""
    rows = []
    for i in range(order + 1):
        n = int(rng.integers(50, 61))
        row = rng.integers(-(10**6), 10**6, n) / rng.integers(1, 1000, n)
        zero = rng.random(n) < 0.25
        row[zero] = rng.choice([0.0, -0.0], n)[zero]
        if i % 2:
            row[i % 4 // 2 :: 2] = 0.0
        rows.append(row.tolist())
    return rows


@pytest.mark.parametrize("square", [False, True], ids=["two-lists", "square"])
def test_wide_rows_match_dense_loop_bitwise(square):
    # Rows about 60 wide make product rows about 120 wide and blocks of
    # hundreds of terms, so numpy's vector loops run over many rows; the
    # drawn rows above are at most 9 long.
    rng = np.random.default_rng(24)
    order = 24
    a = _wide_rows(rng, order)
    b = a if square else _wide_rows(rng, order)
    dense = _bits(_Dense.series_product(a, b, order))
    assert _bits(_backend.series_product(a, b, order)) == dense
    state = _backend.ProductState()
    tail = [_backend.series_product(a, b, k, start=k, nonzero=state)[0] for k in range(order + 1)]
    assert (state.left is state.right) == square
    assert _bits(tail) == dense


def _count_gathers(monkeypatch):
    """The shapes of the blocks that _Factor gathers, appended as made."""
    shapes = []
    block = _backend._Factor.block

    def counted(self, *args):
        out = block(self, *args)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(_backend._Factor, "block", counted)
    return shapes


def test_square_rows_gather_one_block_and_keep_the_dense_bits(monkeypatch):
    # Rows of odd and even k, whose sums round and whose factor holds
    # signed zeros: each takes one block, summed forward and then
    # mirrored, with the dense loops' bits.
    shapes = _count_gathers(monkeypatch)
    a = [
        [0.1, -0.0, 0.3],
        [0.0, 1 / 3, -0.0, 2 / 7],
        [-0.0, 0.7],
        [0.2, 0.0, -1 / 9, 0.0, 5 / 11],
        [1 / 13, -0.0],
        [-0.0, 0.0, 3 / 17],
        [0.6, 1 / 19, -0.0, 0.0, -2 / 23],
    ]
    state = _backend.ProductState()
    for k in range(len(a)):
        shapes.clear()
        row = _backend.series_product(a, a, k, start=k, nonzero=state)[0]
        assert _bits([row]) == _bits(_Dense.series_product(a, a, k, start=k)), k
        assert len(shapes) == 1, k
    # Rows 0..2 hold only signed zeros.  Every pair of rows k <= 5 has
    # one of them, so those rows are +0.0s, made without a gather.
    a = [[0.0, -0.0], [-0.0], [0.0, 0.0, -0.0], [1.0, 2.0], [3.0], [-1.0], [0.5]]
    state = _backend.ProductState()
    for k in range(len(a)):
        shapes.clear()
        row = _backend.series_product(a, a, k, start=k, nonzero=state)[0]
        dense = _Dense.series_product(a, a, k, start=k)
        assert _bits([row]) == _bits(dense), k
        assert len(shapes) == (k == 6), k
        if k < 6:
            assert _bits([row]) == _bits([[0.0] * len(row)]), k
    assert _bits([row]) == _bits([[1.0, 4.0, 4.0]])


def test_a_square_gathers_once_per_row_and_two_lists_at_most_twice(monkeypatch):
    # coupled makes three squares per order, KdV one product of two
    # lists, (-6*u) * u_x.
    shapes = _count_gathers(monkeypatch)
    per_row = []
    row = _backend.ProductState.row

    def counted(self, k):
        before = len(shapes)
        out = row(self, k)
        per_row.append((self.left is self.right, len(shapes) - before))
        return out

    monkeypatch.setattr(_backend.ProductState, "row", counted)
    fx = FIXTURES["coupled"]
    solve(fx.system, fx.initial, 60)
    assert per_row == [(True, 1)] * (3 * 60)
    # Block entries per coupled order-60 solve: 1,542,525 when a square
    # row gathered both halves of its sum, one block per half.
    assert sum(r * c for r, c in shapes) == 786_885
    per_row.clear()
    solve(parse_system("u' = -6*u*u_x - u_xxx"), [TanhPoly([2, 0, -2])], 50)
    assert len(per_row) == 50
    assert all(not square and 1 <= n <= 2 for square, n in per_row)


def test_factor_windows_are_the_sliding_window_view(monkeypatch):
    # _Factor builds its window from padded's shape and strides; after
    # every row it takes, through each rebuild of a KdV solve, the window
    # must be the view numpy's sliding_window_view gives, on padded's
    # memory and read-only.
    checked = []

    class Checked(_backend._Factor):
        def take(self, row, shift, need):
            super().take(row, shift, need)
            width = self.window.shape[2]
            view = np.lib.stride_tricks.sliding_window_view(self.padded, width, axis=1)
            assert self.window.shape == view.shape
            assert self.window.strides == view.strides
            assert not self.window.flags.writeable
            assert np.shares_memory(self.window, self.padded)
            checked.append((self, self.padded.shape))

    monkeypatch.setattr(_backend, "_Factor", Checked)
    solve(parse_system("u' = -6*u*u_x - u_xxx"), [TanhPoly([2, 0, -2])], 20)
    # KdV's one kernel product, (-6*u) * u_x, has two factors; each takes
    # the rows of orders 0..19 and is rebuilt as they outgrow it.
    factors = {f for f, _ in checked}
    assert len(factors) == 2 and len(checked) == 2 * 20
    for f in factors:
        assert len({shape for g, shape in checked if g is f}) >= 3


@pytest.mark.parametrize(
    "overflow",
    [
        lambda: _backend.series_product([[1e200]], [[1e200]], 0),
        lambda: _backend.conv([1e200, 1e200], [1e200]),
    ],
    ids=["series_product", "conv"],
)
def test_a_direct_kernel_call_overflows_silently(overflow):
    # Warnings are errors in this suite, so a warning would fail here.
    assert np.isinf(overflow()[0]).all()


def test_a_quiet_call_that_raises_leaves_warnings_on():
    @_backend.quiet
    def overflow_then_raise():
        np.array([1e200]) * 1e200
        raise ValueError("from inside")

    with pytest.raises(ValueError, match="^from inside$"):
        overflow_then_raise()
    # The context flag was reset: outside any quiet call numpy warns again,
    # and a quiet call after it is quiet again.
    with pytest.warns(RuntimeWarning, match="overflow"):
        np.array([1e200]) * 1e200
    assert np.isinf(_backend.series_product([[1e200]], [[1e200]], 0)[0]).all()


def test_a_thread_started_inside_a_quiet_call_is_quiet_on_its_own():
    # A new thread starts with the default context and numpy errstate, so
    # its kernel call enters its own errstate; a warning there would be an
    # error raised in the thread, and no row.
    rows = []

    @_backend.quiet
    def start_thread():
        worker = threading.Thread(
            target=lambda: rows.extend(_backend.series_product([[1e200]], [[1e200]], 0))
        )
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()

    start_thread()
    assert len(rows) == 1 and np.isinf(rows[0]).all()


def test_a_solve_enters_errstate_once_per_order(monkeypatch):
    # Once to build the evaluator, then once per advance(); the three
    # kernel calls per order inside it enter none, where each of them
    # entered its own before.
    errstate = np.errstate
    entered = []

    def counting(*args, **kwargs):
        entered.append(kwargs)
        return errstate(*args, **kwargs)

    monkeypatch.setattr(np, "errstate", counting)
    coupled = FIXTURES["coupled"]
    solve(coupled.system, coupled.initial, 10)
    assert entered == [{"over": "ignore", "invalid": "ignore"}] * (1 + 10)
