"""Builtin demo systems whose exact solutions are tanh kinks.

Each fixture bundles system source text, the matching initial profiles
(the exact solution at t = 0), and the exact traveling waves for checking
errors.  All three waves share wavenumber 1 and rate 11/2, so every field
drifts at the same speed and the t-expansions of all fixtures share one
convergence radius per x.

The `riccati` fixture is the scalar prototype: tanh solves u' = -c(1-u^2)
exactly.  The `coupled` fixture evolves three fields whose right-hand
sides are shifted and scaled copies of the same Riccati form, arranged so
the three builtin kinks solve them simultaneously.  The `transport`
fixture advects the same initial profiles with u_t = -c u_x, which moves
each kink rigidly and therefore reproduces the same exact solutions by a
different mechanism, spatial derivatives instead of nonlinearity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dsl import PdeSystem, parse_system
from .errors import ConfigError
from .series import TanhPoly
from .waves import TravelingWave, builtin_waves


@dataclass(frozen=True)
class Fixture:
    name: str
    summary: str
    source: str
    system: PdeSystem
    initial: tuple[TanhPoly, ...]
    waves: tuple[TravelingWave, ...]


def _fixture(name, summary, source, waves) -> Fixture:
    # Each profile is its wave at t = 0; every builtin wave has wavenumber 1.
    initial = tuple(TanhPoly([w.offset, w.amplitude]) for w in waves)
    return Fixture(name, summary, source, parse_system(source), initial, tuple(waves))


_KINK = TravelingWave(offset=0.0, amplitude=1.0, wavenumber=1.0, rate=5.5)

RICCATI = _fixture(
    "riccati",
    "scalar Riccati equation solved exactly by tanh(x - 11t/2)",
    "u' = -11/2 * (1 - u^2)\n",
    (_KINK,),
)

COUPLED = _fixture(
    "coupled",
    "three-field system solved exactly by the builtin kinks",
    (
        "u' = -11/4 * (1 - 4 * (u - 1)^2)\n"
        "v' = 11/8 * (1 - 16 * (v - 1)^2)\n"
        "z' = 11/2 * (1 - (z - 2)^2)\n"
    ),
    builtin_waves(),
)

TRANSPORT = _fixture(
    "transport",
    "rigid advection of the builtin kink profiles",
    (
        "u' = -11/2 * u_x\n"
        "v' = -11/2 * v_x\n"
        "z' = -11/2 * z_x\n"
    ),
    builtin_waves(),
)

FIXTURES: dict[str, Fixture] = {f.name: f for f in (RICCATI, COUPLED, TRANSPORT)}


def get(name: str) -> Fixture:
    try:
        return FIXTURES[name]
    except KeyError:
        raise ConfigError(
            f"unknown fixture '{name}'; expected one of {', '.join(FIXTURES)}"
        ) from None
