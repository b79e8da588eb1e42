"""Time-power-series solutions of evolution PDE systems over tanh
polynomials: coefficient recurrences, exact traveling-wave references,
convergence-radius analysis, and rational acceleration.
"""

from ._backend import BACKEND
from .dsl import PdeSystem, eval_rhs, parse_system, pretty
from .errors import (
    ConfigError,
    DegenerateSystemError,
    InsufficientDataError,
    ParseError,
    PoleEvaluationError,
    TaylorPdeError,
)
from .fixtures import FIXTURES, Fixture
from .pade import PadeApproximant, pade_fit
from .report import (
    Table,
    divergence_figure,
    error_table,
    from_csv,
    render_figure_svg,
    to_csv,
)
from .series import TanhPoly, TimeSeries
from .solver import SeriesSolution, residual, solve
from .waves import TravelingWave, builtin_waves, empirical_radius, partial_sum

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "ConfigError",
    "DegenerateSystemError",
    "FIXTURES",
    "Fixture",
    "InsufficientDataError",
    "PadeApproximant",
    "ParseError",
    "PdeSystem",
    "PoleEvaluationError",
    "SeriesSolution",
    "Table",
    "TanhPoly",
    "TaylorPdeError",
    "TimeSeries",
    "TravelingWave",
    "builtin_waves",
    "divergence_figure",
    "empirical_radius",
    "error_table",
    "eval_rhs",
    "from_csv",
    "pade_fit",
    "parse_system",
    "partial_sum",
    "pretty",
    "render_figure_svg",
    "residual",
    "solve",
    "to_csv",
]
