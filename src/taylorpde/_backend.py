"""Convolution kernels: the hot loops of series arithmetic.

Rows are 1-D float64 arrays, and the kernel is numpy.
series_product, the Cauchy product of two series, is the package's one
product loop: it makes row k from gathered (terms x width) blocks, each
scaled and summed by column.  A product of two lists gathers at most
two, one of terms from the left factor and one from the right; a square
gathers one and sums it twice.  conv, the product of two rows, is its
one-row case; nothing in the package calls it (series.dx_row multiplies
by 1 - w**2 in two slice ops), but the tests and the benchmark's
kernels.conv span use it by name.

series_product gives, for finite inputs, bitwise the results of the
dense loops (out[p+q] += a[p]*b[q] over every pair, each sum starting
at +0.0 and adding terms in increasing i, then p):

- It splits row k, the sum over i of a[i] * b[k-i], at the m that
  makes its blocks shortest.  For i <= m it takes the left factor's
  nonzero terms a[i][p] in (i, p) order and multiplies each by the
  window of the zero-padded right row b[k-i] shifted by p.  For
  i > m it takes the right factor's nonzero terms b[r][q], r = k - i, in
  descending (r, q) order and multiplies each by the window of the
  zero-padded left row a[k-r] shifted by q.  Descending r is ascending i,
  and column c of a row pairs q with p = c - q, so descending q is
  ascending p: every column meets its terms in the dense order.  numpy
  reduces axis 0 of a C-contiguous block of two or more columns row by
  row, and the first row of the second block first adds the first
  block's column sums (x + y == y + x in IEEE arithmetic), so every
  column is one sequential sum: the reference sum plus terms that are
  signed zeros, the products with the other factor's zeros.  Those
  leave every sum unchanged, since numpy's float add.reduce starts at
  its identity +0.0, as the dense loops do: a column of -0.0 terms sums
  to +0.0 (tests/test_kernels.py pins this).  A one-column block is
  summed pairwise instead, in another order, so blocks are always
  gathered at least two columns wide and the extra column is dropped.
- A square (a is b) is the same split at m = k//2, whose second block
  needs no gather.  The right factor's terms are the left's, so the
  terms of rows 0..k-k//2-1 over the windows of rows k..k//2+1 are a
  prefix of the first block, its rows for those terms: term (i, p) at
  column c is a[i][p] * a[k-i][c-p], the very product of the pair
  (k - i, c - p).  The kernel reduces that prefix through a reversed
  view, whose first row first adds the forward column sums.  numpy
  reduces a view with a negative row stride in the view's order, not
  in memory order (tests/test_kernels.py pins this too), so each column
  is again one sequential sum in the dense order.  When rows 0..k//2
  hold no nonzero term, every pair has a zero factor and the row is
  +0.0s.

A zero times inf or nan is nan, so the inputs must be finite;
solver.solve checks every row it produces.  Finite inputs can still
overflow: like Python floats, the kernel then gives inf or nan without a
warning (see quiet).
"""

import contextvars
import functools
from operator import add

import numpy as np

# Exported as taylorpde.BACKEND, which benchmark records read; there is
# one implementation of the kernels.
BACKEND = "numpy"


# True while a quiet function runs in this context: its errstate is in
# force, so a nested quiet call has nothing to set.  numpy 2 keeps the
# errstate per context and numpy 1 per thread; a new thread starts with
# the default of both.
_QUIET = contextvars.ContextVar("taylorpde_quiet", default=False)


def quiet(fn):
    """fn with numpy's overflow and invalid-value warnings off, so that
    overflow gives inf or nan silently, as Python floats do.

    The outermost quiet call enters np.errstate, once; the quiet calls it
    makes, such as the kernel calls under RowEvaluator.advance, only
    read a context flag that says it is in force.  The flag is reset
    when that call ends, by return or raise, so a warning outside any
    quiet call is numpy's again.  Code inside a quiet call that sets its
    own errstate is not quieted again by the quiet calls it makes.
    """

    @functools.wraps(fn)
    def quietly(*args, **kwargs):
        if _QUIET.get():
            return fn(*args, **kwargs)
        token = _QUIET.set(True)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                return fn(*args, **kwargs)
        finally:
            _QUIET.reset(token)

    return quietly


def _nonzero(rows: np.ndarray):
    """((indices per axis), values) of the coefficients of a row, or of a
    2-D array of rows, that are not zero, in C order."""
    index = rows.nonzero()
    return index, rows[index]


def conv(a, b):
    """Full product of two finite coefficient rows: out[i+j] += a[i]*b[j],
    row 0 of the product of the one-row series [a] and [b]."""
    if len(a) == 0 or len(b) == 0:
        return np.zeros(1)
    return series_product([a], [b], 0)[0]


def _windows(padded: np.ndarray, width: int) -> np.ndarray:
    """The read-only windows of padded's rows, window[r, c] =
    padded[r, c : c + width]: numpy's sliding-window view along axis 1,
    with its shape and strides, made directly from them in about a tenth
    of its time."""
    rows, cols = padded.shape
    row_step, col_step = padded.strides
    window = np.ndarray(
        (rows, cols - width + 1, width), padded.dtype, padded, 0, (row_step, col_step, col_step)
    )
    window.flags.writeable = False
    return window


class _Factor:
    """One factor of a product, its rows kept two ways.

    Its nonzero terms a[i][p] are appended to flat arrays of i, p and
    value, so the terms of rows 0..j are a prefix, ends[j + 1] long.  Its
    rows are also copied into one zero-padded 2-D array, at columns
    pad..pad+len-1, with at least as many zeros to their left as the
    highest power of the other factor and room for the widest product row
    to their right; window[r, pad - q] is then row r shifted right by q.
    When rows do not fit, the array and its window view are rebuilt,
    never smaller than before: with twice the room that the rows so far
    need when one row comes in, so that a solve rebuilds once per
    doubling, and with the room they need when a batch does.
    """

    def __init__(self):
        self.lengths: list[int] = []
        self.longest = 1
        self.rows = np.empty(0, dtype=np.intp)
        self.powers = np.empty(0, dtype=np.intp)
        self.values = np.empty(0)
        self.ends = np.zeros(1, dtype=np.intp)
        self.pad = 0
        self.padded = np.zeros((0, 2))
        self.window = _windows(self.padded, 2)

    def terms(self, k: int):
        """(i, p, a[i][p]) arrays of the nonzero terms of rows 0..k."""
        n = self.ends[k + 1]
        return self.rows[:n], self.powers[:n], self.values[:n]

    def take(self, rows, shift: int, need: int) -> None:
        """Append the next rows, which `longest` already counts, and their
        nonzero terms, found by one scan of them all.  The padded array
        keeps at least `shift` zeros left of every row and windows `need`
        columns wide; ends has a slot for each of its rows."""
        j = len(self.lengths)
        end = j + len(rows)
        one = end == j + 1
        pad = self.pad
        cap, cols = self.padded.shape
        if end > cap or shift > pad or need > cols - pad:
            grow = 2 if one else 1
            new_pad = max(pad, grow * shift)
            new_width = max(cols - pad, grow * need)
            padded = np.zeros((max(cap, grow * end), new_pad + new_width))
            padded[:cap, new_pad : new_pad + cols - pad] = self.padded[:, pad:]
            self.padded = padded
            self.window = _windows(padded, new_width)
            self.pad = pad = new_pad
            self.ends = np.concatenate((self.ends[: j + 1], np.empty(len(padded) - j, np.intp)))
        for i, row in enumerate(rows, j):
            self.padded[i, pad : pad + len(row)] = row
            self.lengths.append(len(row))
        n = int(self.ends[j])
        if one:
            # A solve's one row per order: a 1-D scan costs less than the
            # 2-D scan of a block, and a solve takes one row per product
            # factor at every order.
            (powers,), values = _nonzero(self.padded[j, pad : pad + self.lengths[j]])
            index = j
            ends = n + len(powers)
        else:
            block = self.padded[j:end, pad : pad + max(self.lengths[j:])]
            (index, powers), values = _nonzero(block)
            ends = n + np.bincount(index, minlength=end - j).cumsum()
            index += j
        m = n + len(powers)
        if m > len(self.values):
            self.rows, self.powers, self.values = (
                np.concatenate((buf[:n], np.empty(max(m, 2 * n), buf.dtype)))
                for buf in (self.rows, self.powers, self.values)
            )
        self.rows[n:m] = index
        self.powers[n:m] = powers
        self.values[n:m] = values
        self.ends[j + 1 : end + 1] = ends

    def block(self, k: int, rows, powers, values, cols: int) -> np.ndarray:
        """The gathered (terms x cols) block whose row t is values[t] times
        row k - rows[t] shifted right by powers[t], over the first cols
        columns.

        A caller keeps it only while it sums it, so the next block can
        reuse its memory: with two blocks alive at once, the largest rows
        faulted in fresh pages on every call."""
        block = self.window[k::-1, self.pad :: -1][rows, powers, :cols]
        block *= values[:, None]
        return block


def _column_sums(block: np.ndarray, acc=None) -> np.ndarray:
    """Column sums of block, row by row in its view's order, after acc if
    given; block's first row takes acc in place."""
    if acc is not None:
        block[0] += acc
    return np.add.reduce(block, axis=0)


class ProductState:
    """What series_product keeps of its two factors between calls.

    Rows are absorbed in order, once each, into one _Factor per distinct
    factor, left and right: a square (a and b the same list) keeps one.
    A call takes in all of its new rows of a factor in one batch.
    Row k is the sum over i of a[i] * b[k - i], split at m: the terms
    of a's rows 0..m times b's shifted rows, then the terms of b's rows
    0..k-m-1, in descending (r, q) order, times a's shifted rows.  Two
    lists split at split(k) and gather both blocks, one alive at a time.
    A square splits at k//2 and reads its own block: its second block
    is the first block's rows of the terms of rows 0..k-k//2-1, read
    backwards (see the module docstring).  Each block has one row per
    nonzero term it takes, so a pair is skipped when the factor that
    supplies its term holds an exact zero there.
    """

    def __init__(self):
        self.absorbed = 0
        self.left = self.right = None

    def absorb(self, a, b, order: int) -> None:
        """Take in rows absorbed..order of factors a and b, the same two
        lists on every call, in one take per factor."""
        if self.left is None:
            self.left = _Factor()
            self.right = self.left if a is b else _Factor()
        start = self.absorbed
        if order < start:
            return
        left, right = self.left, self.right
        rows_a = a[start : order + 1]
        left.longest = max(left.longest, max(map(len, rows_a)))
        if right is left:
            left.take(rows_a, left.longest - 1, 2 * left.longest - 1)
        else:
            rows_b = b[start : order + 1]
            right.longest = max(right.longest, max(map(len, rows_b)))
            need = left.longest + right.longest - 1
            left.take(rows_a, right.longest - 1, need)
            right.take(rows_b, left.longest - 1, need)
        self.absorbed = order + 1

    def split(self, k: int) -> int:
        """The m in -1..k, the first if several, whose blocks for row k are
        shortest: left terms of rows 0..m plus right terms of rows
        0..k-1-m.  A square, whose second block is free, splits at k//2
        instead."""
        return int((self.left.ends[: k + 2] + self.right.ends[k + 1 :: -1]).argmin()) - 1

    def row(self, k: int) -> np.ndarray:
        """Row k of the product; rows 0..k must have been absorbed."""
        a, b = self.left, self.right
        # The pairs (i, k - i) that the row reads: of a square, whose pairs
        # are mirrored, those of i <= k//2 only.
        h = k // 2 if a is b else k
        width = max(1, max(map(add, a.lengths[: h + 1], reversed(b.lengths[k - h : k + 1]))) - 1)
        # At least two columns: numpy sums one column pairwise.
        cols = max(width, 2)
        m = h if a is b else self.split(k)
        rows, powers, values = a.terms(m)
        block = b.block(k, rows, powers, values, cols) if len(rows) else None
        acc = None if block is None else _column_sums(block)
        n = b.ends[k - m]
        if n:
            if a is b:
                block = block[n - 1 :: -1]
            else:
                block = None  # one block alive at a time (see _Factor.block)
                rows, powers, values = b.terms(k - m - 1)
                block = a.block(k, rows[::-1], powers[::-1], values[::-1], cols)
            acc = _column_sums(block, acc)
        if acc is None:
            return np.zeros(width)
        return acc[:width]


@quiet
def series_product(a, b, order, start=0, nonzero=None):
    """Rows start..order of the Cauchy product of two lists of finite
    coefficient rows, as arrays.

    a and b hold at least order+1 rows each; row k of the result is
    sum over i of conv(a[i], b[k-i]), with the dense loops' bits (see the
    module docstring).  A row does not depend on which other rows are
    asked for, so series_product(a, b, n, start=k) ==
    series_product(a, b, n)[k:].

    nonzero, if given, is the ProductState of earlier calls on the same
    a and b.  A caller that extends a and b one order at a time keeps it,
    so each factor row is absorbed once instead of once per call; without
    it a fresh state absorbs rows 0..order here.  A caller that has every
    row asks for them all in one call, whose state absorbs them in one
    batch per factor.
    """
    state = ProductState() if nonzero is None else nonzero
    state.absorb(a, b, order)
    return [state.row(k) for k in range(start, order + 1)]
