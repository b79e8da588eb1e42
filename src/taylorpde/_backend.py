"""Convolution kernels: the hot loops of series arithmetic.

Rows are 1-D float64 arrays, and both kernels are numpy.
series_product, the Cauchy product of two series, is the package's one
product kernel: it makes row k from at most two gathered (terms x width)
blocks, each scaled and summed by column: one takes its terms from the
left factor, the other from the right.  conv, the product of two rows,
adds one scaled copy of its left factor per nonzero coefficient of its
right factor; nothing in the package calls it (series.dx_row multiplies
by 1 - w**2 in two slice ops), but the tests and the benchmark's
kernels.conv span use it by name.

Both give, for finite inputs, bitwise the results of the dense loops
(out[p+q] += a[p]*b[q] over every pair, each sum starting at +0.0 and
adding terms in increasing i, then p):

- conv adds a * b[j] into columns j.. for each nonzero b[j], j taken
  from high to low, so every column adds its terms in increasing index
  of a, the dense order.  It skips the terms of a zero b[j], which are
  signed zeros and leave a sum unchanged: round-to-nearest addition
  never turns the +0.0 start into -0.0.
- series_product splits row k, the sum over i of a[i] * b[k-i], at the
  m that makes its blocks shortest.  For i <= m it takes the left
  factor's nonzero terms a[i][p] in (i, p) order and multiplies each by
  the window of the zero-padded right row b[k-i] shifted by p.  For
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

A zero times inf or nan is nan, so the inputs must be finite;
solver.solve checks every row it produces.  Finite inputs can still
overflow: like Python floats, the kernels then give inf or nan without a
warning (see quiet).
"""

from operator import add

import numpy as np

# Exported as taylorpde.BACKEND, which benchmark records read; there is
# one implementation of the kernels.
BACKEND = "numpy"


def quiet(fn):
    """fn with numpy's overflow and invalid-value warnings off, so that
    overflow gives inf or nan silently, as Python floats do."""
    return np.errstate(over="ignore", invalid="ignore")(fn)


def _nonzero(row):
    """(indices, values) of the coefficients of a row that are not zero."""
    values = np.asarray(row, dtype=float)
    index = values.nonzero()[0]
    return index, values[index]


@quiet
def conv(a, b):
    """Full product of two finite coefficient rows: out[i+j] += a[i]*b[j].

    a is scaled only by the nonzero b[j] (see the module docstring).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    la = len(a)
    if la == 0 or len(b) == 0:
        return np.zeros(1)
    out = np.zeros(la + len(b) - 1)
    for j in b.nonzero()[0][::-1].tolist():
        out[j : j + la] += a * b[j]
    return out


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
    When a row does not fit, the array and its window view are rebuilt
    with twice the room that the rows so far need.
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

    def take(self, row, shift: int, need: int) -> None:
        """Append the next row, which `longest` already counts.  The padded
        array keeps at least `shift` zeros left of every row and windows
        `need` columns wide; ends has a slot for each of its rows."""
        j = len(self.lengths)
        self.lengths.append(len(row))
        powers, values = _nonzero(row)
        n = self.ends[j]
        m = n + len(powers)
        if m > len(self.values):
            self.rows, self.powers, self.values = (
                np.concatenate((buf[:n], np.empty(max(m, 2 * n), buf.dtype)))
                for buf in (self.rows, self.powers, self.values)
            )
        self.rows[n:m] = j
        self.powers[n:m] = powers
        self.values[n:m] = values

        pad = self.pad
        cap, cols = self.padded.shape
        if j >= cap or shift > pad or need > cols - pad:
            new_pad = 2 * shift
            new_width = 2 * max(need, 1)
            padded = np.zeros((2 * (j + 1), new_pad + new_width))
            padded[:cap, new_pad : new_pad + cols - pad] = self.padded[:, pad:]
            self.padded = padded
            self.window = _windows(padded, new_width)
            self.pad = pad = new_pad
            self.ends = np.concatenate((self.ends[: j + 1], np.empty(len(padded) - j, np.intp)))
        self.ends[j + 1] = m
        self.padded[j, pad : pad + len(row)] = row

    def sums(self, k: int, rows, powers, values, cols: int, acc=None) -> np.ndarray:
        """Column sums, in order and after acc if given, of the terms
        values[t] times row k - rows[t] shifted right by powers[t], over
        the first cols columns.

        The block lives only in this call, so the next one can reuse its
        memory: with two blocks alive at once, the largest rows faulted in
        fresh pages on every call."""
        block = self.window[k::-1, self.pad :: -1][rows, powers, :cols]
        block *= values[:, None]
        if acc is not None:
            block[0] += acc
        return np.add.reduce(block, axis=0)


class ProductState:
    """What series_product keeps of its two factors between calls.

    Rows are absorbed in order, once each, into one _Factor per distinct
    factor, left and right: a square (a and b the same list) keeps one.
    Row k is the sum over i of a[i] * b[k - i], split at split(k) = m:
    the terms of a's rows 0..m times b's shifted rows, then the terms of
    b's rows 0..k-m-1, in descending (r, q) order, times a's shifted rows
    (see the module docstring).  Each block has one row per nonzero term
    it takes, so a pair is skipped when the factor that supplies its term
    holds an exact zero there.
    """

    def __init__(self):
        self.absorbed = 0
        self.left = self.right = None

    def absorb(self, a, b, order: int) -> None:
        """Take in rows absorbed..order of factors a and b, the same two
        lists on every call."""
        if self.left is None:
            self.left = _Factor()
            self.right = self.left if a is b else _Factor()
        left, right = self.left, self.right
        for j in range(self.absorbed, order + 1):
            row_a, row_b = a[j], b[j]
            left.longest = max(left.longest, len(row_a))
            right.longest = max(right.longest, len(row_b))
            need = left.longest + right.longest - 1
            left.take(row_a, right.longest - 1, need)
            if right is not left:
                right.take(row_b, left.longest - 1, need)
        self.absorbed = max(self.absorbed, order + 1)

    def split(self, k: int) -> int:
        """The m in -1..k, the first if several, whose blocks for row k are
        shortest: left terms of rows 0..m plus right terms of rows
        0..k-1-m."""
        return int((self.left.ends[: k + 2] + self.right.ends[k + 1 :: -1]).argmin()) - 1

    def row(self, k: int) -> np.ndarray:
        """Row k of the product; rows 0..k must have been absorbed."""
        a, b = self.left, self.right
        width = max(1, max(map(add, a.lengths[: k + 1], b.lengths[k::-1])) - 1)
        m = self.split(k)
        # At least two columns: numpy sums one column pairwise.
        cols = max(width, 2)
        acc = None
        n = a.ends[m + 1]
        if n:
            acc = b.sums(k, a.rows[:n], a.powers[:n], a.values[:n], cols)
        n = b.ends[k - m]
        if n:
            back = slice(n - 1, None, -1)
            acc = a.sums(k, b.rows[back], b.powers[back], b.values[back], cols, acc)
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
    it a fresh state absorbs rows 0..order here.
    """
    state = ProductState() if nonzero is None else nonzero
    state.absorb(a, b, order)
    return [state.row(k) for k in range(start, order + 1)]
