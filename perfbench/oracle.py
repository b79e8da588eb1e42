"""Independent references for the dispersive workload.

KdV, u_t = -6*u*u_x - u_xxx, is solved exactly by the soliton
u(x, t) = 2*sech(x - 4t)**2, whose t = 0 profile is 2 - 2*w**2 in
w = tanh(x).  sech**2 has its poles where x - 4t = +-i*pi/2, so at fixed x
the t-series converges for |t| below sqrt(x**2 + (pi/2)**2) / 4.

`kdv_rows` replays the KdV coefficient recurrence in exact integer
arithmetic, written here from the equation and sharing no code with the
package: with v_j = j! * u_j the recurrence

    v[j+1] = -6 * sum_i C(j, i) * v[i] * d_x v[j-i]  -  d_x^3 v[j]

keeps every coefficient an integer, where d_x p(w) = (1 - w**2) * p'(w).
"""

from __future__ import annotations

import math
from fractions import Fraction

KDV_SOURCE = "u' = -6*u*u_x - u_xxx\n"
KDV_INITIAL = (2, 0, -2)


def soliton(x: float, t: float) -> float:
    """2*sech(x - 4t)**2, written with exp(-2|z|) so it never overflows."""
    e = math.exp(-2.0 * abs(x - 4.0 * t))
    return 8.0 * e / (1.0 + e) ** 2


def soliton_radius(x: float) -> float:
    """Convergence radius in t of the soliton's expansion at fixed x."""
    return math.hypot(x, math.pi / 2.0) / 4.0


def _dx(p: list[int]) -> list[int]:
    out = [0] * (len(p) + 1)
    for k in range(1, len(p)):
        out[k - 1] += k * p[k]
        out[k + 1] -= k * p[k]
    return out


def _mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for k, bk in enumerate(b):
                out[i + k] += ai * bk
    return out


def _add_into(acc: list[int], p: list[int], scale: int) -> None:
    if len(acc) < len(p):
        acc.extend([0] * (len(p) - len(acc)))
    for k, c in enumerate(p):
        acc[k] += scale * c


def kdv_rows(order: int) -> list[list[Fraction]]:
    """Exact t-coefficients u_0..u_order of the KdV soliton, as
    polynomials in w = tanh(x) with rational coefficients."""
    v = [list(KDV_INITIAL)]
    vx = [_dx(v[0])]
    for j in range(order):
        nxt: list[int] = []
        for i in range(j + 1):
            _add_into(nxt, _mul(v[i], vx[j - i]), -6 * math.comb(j, i))
        _add_into(nxt, _dx(_dx(vx[j])), -1)
        v.append(nxt)
        vx.append(_dx(nxt))
    rows = []
    for j, row in enumerate(v):
        fact = math.factorial(j)
        rows.append([Fraction(c, fact) for c in row])
    return rows


def row_value(row: list[Fraction], x: float) -> tuple[float, float]:
    """Exact value of one coefficient row at w = tanh(x), rounded once,
    and the sum of its terms' magnitudes (the scale for a rounding test)."""
    w = Fraction(math.tanh(x))
    value = Fraction(0)
    scale = Fraction(0)
    power = Fraction(1)
    for c in row:
        value += c * power
        scale += abs(c * power)
        power *= w
    return float(value), float(scale)


def truncation_value(rows: list[list[Fraction]], x: float, t: float) -> float:
    """Exact value of the truncated series sum_j u_j(x) t**j, rounded once."""
    w = Fraction(math.tanh(x))
    tt = Fraction(t)
    total = Fraction(0)
    for j, row in enumerate(rows):
        total += sum(c * w**k for k, c in enumerate(row)) * tt**j
    return float(total)
