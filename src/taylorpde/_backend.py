"""Convolution kernels: the hot loops of series arithmetic.

Rows are 1-D float64 arrays, and both kernels are numpy.  conv, which
differentiates rows (one factor is 1 - w**2), adds one scaled copy of
its left factor per nonzero coefficient of its right factor.
series_product, the Cauchy product of two series, makes row k as one
gather of a (terms x width) block, one scale and one column sum.

Both give, for finite inputs, bitwise the results of the dense loops
(out[p+q] += a[p]*b[q] over every pair, each sum starting at +0.0 and
adding terms in increasing i, then p):

- conv adds a * b[j] into columns j.. for each nonzero b[j], j taken
  from high to low, so every column adds its terms in increasing index
  of a, the dense order.  It skips the terms of a zero b[j], which are
  signed zeros and leave a sum unchanged: round-to-nearest addition
  never turns the +0.0 start into -0.0.
- series_product keeps the left factor's nonzero terms in (i, p) order
  and multiplies each by a window of the zero-padded right row it
  meets.  numpy reduces axis 0 of a C-contiguous block of two or more
  columns row by row, which is that same order, so every column is the
  reference sum plus terms that are signed zeros.  Those can only make
  a sum that should be +0.0 come out as -0.0, if numpy starts the sum
  at a -0.0 term instead of at +0.0; a final += 0.0 turns it back and
  changes no other value.  A one-column block is summed pairwise
  instead, in another order, so the block is always gathered at least
  two columns wide and the extra column is dropped.

A zero times inf or nan is nan, so the inputs must be finite;
solver.solve checks every row it produces.  Finite inputs can still
overflow: like Python floats, the kernels then give inf or nan without a
warning (see quiet).
"""

from operator import add

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


class ProductState:
    """What series_product keeps of its two factors between calls.

    Rows are absorbed in order, once each.  A left row appends its nonzero
    terms a[i][p] to flat arrays of i, p and value, so the terms of rows
    0..k are a prefix, terms(k).  A right row is copied into
    one zero-padded 2-D array, at columns pad..pad+len-1, with at least
    max(p) zeros to its left and room for the widest product row to its
    right; window[r, pad - p] is then row r shifted right by p.  When a
    row does not fit, the array and its window view are rebuilt with
    twice the room that the rows so far need.
    """

    def __init__(self):
        self.absorbed = 0
        self._ends: list[int] = []  # terms of left rows 0..i
        self._rows = np.empty(0, dtype=np.intp)
        self._powers = np.empty(0, dtype=np.intp)
        self._values = np.empty(0)
        self._len_a: list[int] = []
        self._len_b: list[int] = []
        self._max_a = self._max_b = 1
        self._pad = 0
        self._right = np.zeros((0, 2))
        self._window = sliding_window_view(self._right, 2, axis=1)

    def terms(self, k: int):
        """(i, p, a[i][p]) arrays of the nonzero terms of left rows 0..k."""
        n = self._ends[k]
        return self._rows[:n], self._powers[:n], self._values[:n]

    def absorb(self, row_a, row_b) -> None:
        """Take in row `absorbed` of each factor."""
        j = self.absorbed
        powers, values = _nonzero(row_a)
        n = self._ends[-1] if j else 0
        m = n + len(powers)
        if m > len(self._values):
            self._rows, self._powers, self._values = (
                np.concatenate((buf[:n], np.empty(max(m, 2 * n), buf.dtype)))
                for buf in (self._rows, self._powers, self._values)
            )
        self._rows[n:m] = j
        self._powers[n:m] = powers
        self._values[n:m] = values
        self._ends.append(m)

        self._len_a.append(len(row_a))
        self._len_b.append(len(row_b))
        self._max_a = max(self._max_a, len(row_a))
        self._max_b = max(self._max_b, len(row_b))
        pad = self._pad
        cap, cols = self._right.shape
        need = self._max_a + self._max_b - 1
        if j >= cap or self._max_a - 1 > pad or need > cols - pad:
            new_pad = 2 * (self._max_a - 1)
            new_width = 2 * max(need, 1)
            right = np.zeros((2 * (j + 1), new_pad + new_width))
            right[:cap, new_pad : new_pad + cols - pad] = self._right[:, pad:]
            self._right = right
            self._window = sliding_window_view(right, new_width, axis=1)
            self._pad = pad = new_pad
        self._right[j, pad : pad + len(row_b)] = row_b
        self.absorbed = j + 1

    def row(self, k: int) -> np.ndarray:
        """Row k of the product; rows 0..k must have been absorbed."""
        width = max(1, max(map(add, self._len_a[: k + 1], self._len_b[k::-1])) - 1)
        rows, powers, values = self.terms(k)
        # shifted[i, p] is window[k - i, pad - p]: right row k-i shifted by p.
        shifted = self._window[k::-1, self._pad :: -1]
        block = shifted[rows, powers, : max(width, 2)]
        block *= values[:, None]
        acc = np.add.reduce(block, axis=0)
        acc += 0.0
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
    for j in range(state.absorbed, order + 1):
        state.absorb(a[j], b[j])
    return [state.row(k) for k in range(start, order + 1)]
