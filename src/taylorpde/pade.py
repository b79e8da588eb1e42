"""Rational (Pade) acceleration of truncated power series.

A truncated series is useless past its convergence radius, but the [L/M]
rational approximant built from the same coefficients keeps converging
wherever the underlying function is analytic, because the denominator can
imitate the poles that limited the series.  The denominator solves the
usual Toeplitz linear system; its smallest-modulus root doubles as a pole
estimate for the function being approximated.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ._backend import _windows
from .errors import DegenerateSystemError, InsufficientDataError, PoleEvaluationError
from .waves import partial_sum

# Above this condition number the fitted denominator digits are noise.
_COND_LIMIT = 1e12
# At or below this |denominator| an approximant refuses to evaluate.
POLE_FLOOR = 1e-300


@dataclass(frozen=True)
class PadeApproximant:
    """num(t) / den(t) with den normalized so den[0] == 1."""

    num: tuple[float, ...]
    den: tuple[float, ...]
    condition: float

    @property
    def orders(self) -> tuple[int, int]:
        return (len(self.num) - 1, len(self.den) - 1)

    def __call__(self, t: float) -> float:
        p = partial_sum(self.num, t)
        q = partial_sum(self.den, t)
        if abs(q) <= POLE_FLOOR:
            raise PoleEvaluationError(f"denominator vanishes at t = {t!r}")
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


def pade_fit(coeffs: Sequence[float], num_order: int, den_order: int) -> PadeApproximant:
    """Fit the [num_order/den_order] approximant to series coefficients.

    Needs num_order + den_order + 1 coefficients.  The denominator comes
    from the Toeplitz system that cancels series orders num_order+1 ..
    num_order+den_order; a singular or ill-conditioned system (condition
    number above 1e12) raises DegenerateSystemError rather than returning
    digits the data cannot support, and so does an inf or nan among the
    coefficients it uses.
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
    if M == 0:
        # Degenerate rational: the truncated series itself.
        return PadeApproximant(tuple(c[: L + 1]), (1.0,), 1.0)

    # T[m, s] = c[L + m - s] for m, s in 0..M-1, and +0.0 where that index
    # is negative: row m of T is the window at L + m of the coefficients
    # after M - 1 zeros, read backwards, a read-only view.
    carr = np.asarray(c)
    padded = np.concatenate((np.zeros(M - 1), carr[: L + M]))
    T = _windows(padded[None, L:], M)[0, :, ::-1]
    rhs = -carr[L + 1 : L + M + 1]
    condition = float(np.linalg.cond(T))
    if not np.isfinite(condition) or condition > _COND_LIMIT:
        raise DegenerateSystemError(
            f"denominator system condition {condition:.3e} exceeds {_COND_LIMIT:.0e}; "
            f"the [{L}/{M}] fit is degenerate for these coefficients"
        )
    try:
        q = np.linalg.solve(T, rhs)
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
    return PadeApproximant(tuple(num), den, condition)
