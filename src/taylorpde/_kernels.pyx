# cython: boundscheck=False, wraparound=False
"""Compiled convolution kernels.

Mirrors _kernels_py.py loop for loop.  The accumulation order is
identical, so both backends return bitwise-equal floats; only the speed
differs.
"""

from array import array

BACKEND = "compiled"


def conv(a, b):
    """Full product of two coefficient lists: out[i+j] += a[i]*b[j]."""
    a_arr = array("d", a)
    b_arr = array("d", b)
    cdef double[:] av = a_arr
    cdef double[:] bv = b_arr
    cdef Py_ssize_t la = av.shape[0]
    cdef Py_ssize_t lb = bv.shape[0]
    if la == 0 or lb == 0:
        return [0.0]
    out_arr = array("d", bytes(8 * (la + lb - 1)))
    cdef double[:] ov = out_arr
    cdef Py_ssize_t i, j
    cdef double ai
    for i in range(la):
        ai = av[i]
        for j in range(lb):
            ov[i + j] += ai * bv[j]
    return list(out_arr)


def series_product(a, b, order, start=0):
    """Rows start..order of the Cauchy product of two lists of coefficient
    lists.

    a and b hold at least order+1 rows each; row k of the result is
    sum over i of conv(a[i], b[k-i]), accumulated in increasing i.  A row
    does not depend on which other rows are asked for, so
    series_product(a, b, n, start=k) == series_product(a, b, n)[k:].
    """
    a_rows = [array("d", row) for row in a]
    b_rows = [array("d", row) for row in b]
    out = []
    cdef Py_ssize_t n = order
    cdef Py_ssize_t s = start
    cdef Py_ssize_t k, i, p, q, width, w
    cdef double[:] av, bv, ov
    cdef double aip
    for k in range(s, n + 1):
        width = 1
        for i in range(k + 1):
            w = len(a_rows[i]) + len(b_rows[k - i]) - 1
            if w > width:
                width = w
        acc = array("d", bytes(8 * width))
        ov = acc
        for i in range(k + 1):
            av = a_rows[i]
            bv = b_rows[k - i]
            for p in range(av.shape[0]):
                aip = av[p]
                for q in range(bv.shape[0]):
                    ov[p + q] += aip * bv[q]
        out.append(list(acc))
    return out
