"""Exception hierarchy shared across the package.

Everything raised on purpose derives from TaylorPdeError so callers can
distinguish library failures from programming mistakes.  Parse-time
problems carry source coordinates; numerical problems carry enough context
to report what went wrong without re-running the computation.  A class
exists only where a caller acts on it: the CLI exits 2 for ParseError and
ConfigError and 3 for every other TaylorPdeError.
"""


class TaylorPdeError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(TaylorPdeError):
    """Source text for a system could not be parsed.

    Carries 1-based line and column of the offending token when known.
    """

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        if line is not None:
            where = f"line {line}" if col is None else f"line {line}, column {col}"
            message = f"{where}: {message}"
        super().__init__(message)
        self.line = line
        self.col = col


class DegenerateSystemError(TaylorPdeError):
    """Rational fit rejected: the coefficient system is singular or
    numerically indistinguishable from singular."""


class InsufficientDataError(TaylorPdeError):
    """Too few series coefficients for the requested fit or estimate."""


class PoleEvaluationError(TaylorPdeError):
    """Rational approximant evaluated where its denominator vanishes."""


class ConfigError(TaylorPdeError):
    """Invalid configuration, input shape or command-line input."""
