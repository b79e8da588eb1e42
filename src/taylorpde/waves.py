"""Tanh traveling waves and the convergence radius of their t-expansions.

A kink u(x, t) = offset + amplitude * tanh(wavenumber*x - rate*t) is an
entire function of neither variable: tanh has poles on the imaginary axis
at odd multiples of i*pi/2.  Expanding in t at fixed x, the nearest pole
sits at t = (wavenumber*x - i*pi/2) / rate, so the series converges only
for |t| below

    R(x) = sqrt((wavenumber*x)**2 + (pi/2)**2) / |rate|.

The radius is smallest at x = 0 and grows linearly for large |x|.  The
Taylor coefficients here come from a scalar ratio recurrence, deliberately
not from the series-core machinery, so the two routes can check each
other.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from .errors import ConfigError, InsufficientDataError

# Ratios below this fraction of the neighborhood scale count as zero when
# scanning for sparsity patterns; coefficient growth makes a global
# threshold useless.
_SPARSE_RTOL = 1e-12


@dataclass(frozen=True)
class TravelingWave:
    """offset + amplitude * tanh(wavenumber*x - rate*t)."""

    offset: float
    amplitude: float
    wavenumber: float
    rate: float

    def __call__(self, x: float, t: float) -> float:
        return self.offset + self.amplitude * math.tanh(self.wavenumber * x - self.rate * t)

    def taylor(self, x: float, order: int) -> list[float]:
        """Scalar t-expansion coefficients at fixed x, orders 0..order.

        Uses the closed recurrence for g(t) = tanh(wavenumber*x - rate*t):
        g' = -rate * (1 - g**2), so

            g[j+1] = -rate * ((1 if j == 0 else 0) - sum(g[i]*g[j-i])) / (j+1).
        """
        if order < 0:
            raise ValueError("order must be nonnegative")
        g = [math.tanh(self.wavenumber * x)]
        for j in range(order):
            square = 0.0
            for i in range(j + 1):
                square += g[i] * g[j - i]
            lead = 1.0 if j == 0 else 0.0
            g.append(-self.rate * (lead - square) / (j + 1))
        coeffs = [self.offset + self.amplitude * g[0]]
        coeffs.extend(self.amplitude * gj for gj in g[1:])
        return coeffs

    def convergence_radius(self, x: float) -> float:
        """Distance from t = 0 to the nearest complex-t pole at this x."""
        if self.rate == 0.0:
            raise ConfigError("a wave with zero rate never moves; its t-series is trivial")
        if self.amplitude == 0.0:
            raise ConfigError("a constant wave has no pole and no finite radius")
        theta = self.wavenumber * x
        return math.sqrt(theta * theta + (math.pi / 2.0) ** 2) / abs(self.rate)


def builtin_waves() -> tuple[TravelingWave, TravelingWave, TravelingWave]:
    """The three kinks solved exactly by the builtin demo systems.

    All share wavenumber 1 and rate 11/2, so they drift together; only
    offset and amplitude differ per field.
    """
    return (
        TravelingWave(offset=1.0, amplitude=0.5, wavenumber=1.0, rate=5.5),
        TravelingWave(offset=1.0, amplitude=-0.25, wavenumber=1.0, rate=5.5),
        TravelingWave(offset=2.0, amplitude=-1.0, wavenumber=1.0, rate=5.5),
    )


def partial_sum(coeffs: Sequence[float], t: float) -> float:
    """Evaluate a truncated scalar series at t by Horner's rule.

    The package's one Horner loop: TanhPoly and TimeSeries (in w and in t)
    and PadeApproximant (numerator and denominator) all evaluate through it.
    """
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


# The ratio fit uses at most this many of the latest ratios: early ratios
# carry pre-asymptotic transients that a straight line in 1/n cannot model.
_FIT_TAIL = 8


def empirical_radius(coeffs: Sequence[float]) -> float:
    """Estimate a convergence radius from scalar coefficients alone.

    Ratio (Domb-Sykes) method: successive nonzero coefficients give
    root-ratios r_n = |c_n / c_m| ** (1/(n-m)) whose limit is 1/R; a least
    squares line through the latest (n, r_n) points against 1/n,
    extrapolated to n -> infinity, removes the leading finite-n drift.
    The constant term c_0 is ignored (an offset shifts no pole), and
    sparsity (every-other-order zeros) is handled by the per-pair root.

    Raises InsufficientDataError for fewer than 9 coefficients, fewer than
    three usable ratios, or a non-positive extrapolated limit.
    """
    c = [float(v) for v in coeffs]
    n = len(c) - 1
    if n < 8:
        raise InsufficientDataError(f"radius estimation needs order >= 8, got {n}")
    nonzero = []
    for j in range(1, n + 1):
        lo = max(1, j - 2)
        hi = min(n, j + 2)
        scale = max(abs(c[i]) for i in range(lo, hi + 1))
        if scale > 0.0 and abs(c[j]) > _SPARSE_RTOL * scale:
            nonzero.append(j)
    ratios = []
    for prev, cur in zip(nonzero, nonzero[1:]):
        ratios.append((cur, abs(c[cur] / c[prev]) ** (1.0 / (cur - prev))))
    if len(ratios) < 3:
        raise InsufficientDataError(
            f"radius fit needs at least 3 coefficient ratios, found {len(ratios)}"
        )
    tail = ratios[-_FIT_TAIL:]
    m = float(len(tail))
    sx = sum(1.0 / q for q, _ in tail)
    sxx = sum((1.0 / q) ** 2 for q, _ in tail)
    sy = sum(r for _, r in tail)
    sxy = sum(r / q for q, r in tail)
    denom = m * sxx - sx * sx
    slope = (m * sxy - sx * sy) / denom
    intercept = (sy - slope * sx) / m
    if intercept <= 0.0:
        raise InsufficientDataError("coefficient ratios do not extrapolate to a finite radius")
    return 1.0 / intercept
