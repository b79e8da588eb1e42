"""Rational (Pade) acceleration of truncated power series.

A truncated series is useless past its convergence radius, but the [L/M]
rational approximant built from the same coefficients keeps converging
wherever the underlying function is analytic, because the denominator can
imitate the poles that limited the series.  The denominator solves the
usual Toeplitz linear system; its smallest-modulus root doubles as a pole
estimate for the function being approximated.

The fit is rank-revealing (Gonnet, Guttel & Trefethen, SIAM Rev. 55
(2013) 101-117).  It rescales t so that the coefficients no longer decay
or grow, reads the rank of the rescaled system from its singular values,
and drops to the highest orders whose system has full rank.  So a fit
whose data supports only a lower order returns that order and says so,
instead of returning noise or refusing.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ._backend import _windows
from .errors import DegenerateSystemError, InsufficientDataError, PoleEvaluationError
from .waves import partial_sum

# Singular values of the rescaled system at or below this share of the
# rescaled coefficients' 2-norm count as zero.
_RANK_TOL = 1e-14
# At or below this |denominator| an approximant refuses to evaluate.
POLE_FLOOR = 1e-300


@dataclass(frozen=True)
class PadeApproximant:
    """num(t) / den(t) with den normalized so den[0] == 1.

    `condition` is the ratio of the largest to the smallest singular
    value of the rescaled denominator system the fit used (1.0 with no
    denominator).  `requested` holds the orders asked for, and `orders`
    the orders used, lower where the data supports no more; `requested`
    defaults to `orders`.
    """

    num: tuple[float, ...]
    den: tuple[float, ...]
    condition: float
    requested: tuple[int, int] | None = None

    def __post_init__(self):
        if self.requested is None:
            object.__setattr__(self, "requested", self.orders)

    @property
    def orders(self) -> tuple[int, int]:
        return (len(self.num) - 1, len(self.den) - 1)

    def __call__(self, t):
        """num(t) / den(t) at a float `t`, or at each element of a numpy
        array `t`, by partial_sum, so an array's values have the float
        call's bits.  Where |den(t)| <= POLE_FLOOR it raises
        PoleEvaluationError, naming the first such t as a float.  On an
        array, overflow warns unless the caller is quiet."""
        p = partial_sum(self.num, t)
        q = partial_sum(self.den, t)
        pole = np.abs(q) <= POLE_FLOOR
        if pole.any():
            first = np.extract(pole, t)[0].item()
            raise PoleEvaluationError(f"denominator vanishes at t = {first!r}")
        return p / q

    def poles(self) -> list[complex]:
        """Denominator roots, sorted by modulus then real and imaginary
        parts; the smallest modulus estimates the nearest singularity.
        A degree-0 denominator has no poles."""
        if len(self.den) == 1:
            return []
        roots = np.roots(self.den[::-1])
        return sorted(
            (complex(r) for r in roots), key=lambda z: (abs(z), z.real, z.imag)
        )

    def taylor(self, order: int) -> list[float]:
        """Re-expand the approximant as a power series through `order`.

        The first L+M+1 coefficients reproduce the fitted ones up to
        rounding; later ones are the extrapolation the rational form
        implies.
        """
        if order < 0:
            raise ValueError("order must be nonnegative")
        out = []
        for k in range(order + 1):
            acc = self.num[k] if k < len(self.num) else 0.0
            for i in range(1, min(k, len(self.den) - 1) + 1):
                acc -= self.den[i] * out[k - i]
            out.append(acc)
        return out


def _blocks(rows: np.ndarray, L: int, M: int) -> np.ndarray:
    """The read-only views B[r, m, k] = rows[r, L + 1 + m - k] for m < M
    and k <= M, +0.0 where that index is negative: row m of B[r] is the
    window at L + 1 + m of rows[r] after M zeros, read backwards."""
    padded = np.concatenate((np.zeros((len(rows), M)), rows[:, : L + M + 1]), axis=1)
    return _windows(padded, M + 1)[:, L + 1 :, ::-1]


def _rescaled(c: list[float]) -> list[float]:
    """c[j] * r**j, divided by the largest of them in modulus.

    log r is minus the slope of the least-squares line through log|c[j]|
    over the later half of c, zeros skipped, and 0 when fewer than two
    points remain; so r is the rate at which the coefficients decay, and
    the rescaled ones neither decay nor grow.  The terms are formed from
    logarithms, so no power of r overflows; zeros stay zero.  Plain
    float loops: at these lengths they beat numpy calls.
    """
    logs = [math.log(abs(v)) if v else -math.inf for v in c]
    tail = [j for j in range(len(c) // 2, len(c)) if c[j]]
    log_r = 0.0
    if len(tail) >= 2:
        mean = sum(tail) / len(tail)
        cross = spread = 0.0
        for j in tail:
            cross += (j - mean) * logs[j]
            spread += (j - mean) ** 2
        log_r = -cross / spread
    exponents = [y + j * log_r for j, y in enumerate(logs)]
    top = max(exponents)
    if top == -math.inf:
        return c
    return [math.copysign(math.exp(e - top), v) for e, v in zip(exponents, c)]


def pade_fit(coeffs: Sequence[float], num_order: int, den_order: int) -> PadeApproximant:
    """Fit the [num_order/den_order] approximant to series coefficients,
    or the highest lower orders that the coefficients support.

    Needs num_order + den_order + 1 coefficients, all finite.  The orders
    are chosen on rescaled coefficients s[j] = c[j] * r**j, with r the
    decay rate of |c[j]| over the later half of the fitted ones: while
    the M x (M+1) block s[L+1+m-k] has only rho < M singular values above
    1e-14 times the 2-norm of s, (L, M) drops to (max(L - (M - rho), 0),
    rho).  At full rank the denominator solves the unscaled M x M
    Toeplitz system that cancels series orders L+1 .. L+M, by LU, and
    the numerator follows from den[0] = 1.  The result's `requested`
    holds the orders asked for, `orders` those used, and `condition` the
    rescaled block's largest over smallest singular value.

    Raises DegenerateSystemError for an inf or nan among the
    coefficients used, and when the full-rank system is exactly singular,
    that is when no approximant of those orders has den(0) != 0.
    """
    c = [float(v) for v in coeffs]
    L = num_order
    M = den_order
    if L < 0:
        raise ValueError("numerator order must be nonnegative")
    if M < 0:
        raise ValueError("denominator order must be nonnegative")
    if len(c) < L + M + 1:
        raise InsufficientDataError(
            f"[{L}/{M}] fit needs {L + M + 1} coefficients, got {len(c)}"
        )
    used = c[: L + M + 1]
    if not all(map(math.isfinite, used)):
        k = next(k for k, v in enumerate(used) if not math.isfinite(v))
        raise DegenerateSystemError(f"[{L}/{M}] fit: coefficient {k} is {used[k]!r}")
    requested = (L, M)
    condition = 1.0
    if M > 0:
        # Row 0 holds the coefficients, row 1 their rescaled values.
        rows = np.array((used, _rescaled(used)))
        tol = _RANK_TOL * math.sqrt(rows[1] @ rows[1])
        while M > 0:
            blocks = _blocks(rows, L, M)
            sigma = np.linalg.svd(blocks[1], compute_uv=False)
            rank = int(np.count_nonzero(sigma > tol))
            if rank == M:
                condition = float(sigma[0] / sigma[-1])
                break
            L, M = max(L - (M - rank), 0), rank
    if M == 0:
        # Degenerate rational: the truncated series itself.
        return PadeApproximant(tuple(c[: L + 1]), (1.0,), condition, requested)

    # blocks[0][:, 1:] is the M x M system T[m, s] = c[L + m - s], and
    # blocks[0][:, 0] is c[L + 1 + m], the orders that den must cancel.
    try:
        q = np.linalg.solve(blocks[0, :, 1:], -blocks[0, :, 0])
    except np.linalg.LinAlgError:
        raise DegenerateSystemError(
            f"denominator system is singular; the [{L}/{M}] fit is degenerate"
        ) from None

    # num[k] = c[k] + sum of den[s] * c[k - s] for s = 1..min(k, M), added
    # in increasing s.  A scalar loop: at the orders fitted here an array
    # pass per s costs more than the whole loop.
    den = (1.0, *q.tolist())
    num = []
    for k in range(L + 1):
        acc = c[k]
        for s in range(1, min(k, M) + 1):
            acc += den[s] * c[k - s]
        num.append(acc)
    return PadeApproximant(tuple(num), den, condition, requested)
