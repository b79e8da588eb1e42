"""Convolution kernels: the hot loops of series arithmetic.

Both kernels take dense coefficient rows and skip every factor that is
exactly zero (0.0 or -0.0).  Tanh kinks and solitons have a parity
structure, so about half of the stored coefficients are zero and the
skip halves the work.  The remaining terms are added in the order the
dense loops use (increasing i, then p), so for finite inputs the results
are bitwise those of the dense loops: each sum starts at +0.0, which
round-to-nearest addition never turns into -0.0, and a skipped term,
a zero times a finite value, is a signed zero that would leave the sum
unchanged.  Only a zero times inf or nan (which gives nan) would have
made a difference, so the inputs must be finite; solver.solve checks
every row it produces.
"""

# Exported as taylorpde.BACKEND, which benchmark records read; there is
# one implementation of the kernels.
BACKEND = "pure"


def _nonzero(row):
    """(index, value) of each coefficient of a row that is not zero."""
    return [(p, c) for p, c in enumerate(row) if c != 0.0]


def conv(a, b):
    """Full product of two finite coefficient lists: out[i+j] += a[i]*b[j].

    Terms with a zero factor are skipped (see the module docstring).
    """
    la = len(a)
    lb = len(b)
    if la == 0 or lb == 0:
        return [0.0]
    out = [0.0] * (la + lb - 1)
    nz_b = _nonzero(b)
    for i, ai in _nonzero(a):
        for j, bj in nz_b:
            out[i + j] += ai * bj
    return out


def series_product(a, b, order, start=0, nonzero=None):
    """Rows start..order of the Cauchy product of two lists of finite
    coefficient lists.

    a and b hold at least order+1 rows each; row k of the result is
    sum over i of conv(a[i], b[k-i]), accumulated in increasing i, with
    terms that have a zero factor skipped (see the module docstring).  A
    row does not depend on which other rows are asked for, so
    series_product(a, b, n, start=k) == series_product(a, b, n)[k:].

    nonzero, if given, is the pair (nz_a, nz_b) where nz_a[i] is
    _nonzero(a[i]) and nz_b[i] is _nonzero(b[i]) for rows 0..order at
    least.  A caller that extends a and b one order at a time keeps these
    lists and appends one entry per new row, so each row is scanned for
    nonzeros once instead of once per call; without them the lists are
    built here from rows 0..order.
    """
    if nonzero is None:
        nz_a = [_nonzero(row) for row in a[: order + 1]]
        nz_b = [_nonzero(row) for row in b[: order + 1]]
    else:
        nz_a, nz_b = nonzero
    out = []
    for k in range(start, order + 1):
        width = 1
        for i in range(k + 1):
            w = len(a[i]) + len(b[k - i]) - 1
            if w > width:
                width = w
        acc = [0.0] * width
        for i in range(k + 1):
            bj = nz_b[k - i]
            for p, aip in nz_a[i]:
                for q, bq in bj:
                    acc[p + q] += aip * bq
        out.append(acc)
    return out
