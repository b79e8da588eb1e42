"""Pure-Python convolution kernels.

Reference implementation of the hot loops used by series arithmetic.  The
compiled backend in _kernels.pyx mirrors these loops statement for
statement: both accumulate in the same order, so results are bitwise
identical and the backends are interchangeable.
"""

BACKEND = "pure"


def conv(a, b):
    """Full product of two coefficient lists: out[i+j] += a[i]*b[j]."""
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


def series_product(a, b, order, start=0):
    """Rows start..order of the Cauchy product of two lists of coefficient
    lists.

    a and b hold at least order+1 rows each; row k of the result is
    sum over i of conv(a[i], b[k-i]), accumulated in increasing i.  A row
    does not depend on which other rows are asked for, so
    series_product(a, b, n, start=k) == series_product(a, b, n)[k:].
    """
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
