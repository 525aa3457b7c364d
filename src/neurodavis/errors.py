"""Exception types shared across the package."""


class NeurodavisError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(NeurodavisError, ValueError):
    """An argument violates an operation's precondition."""


class InvalidConfigError(NeurodavisError, ValueError):
    """A configuration object is internally inconsistent."""


class DegenerateInputError(NeurodavisError, ValueError):
    """Input is valid in shape but carries no usable signal (e.g. zero variance)."""


class TrainingDivergedError(NeurodavisError, RuntimeError):
    """Training produced a non-finite loss; ``report`` holds progress so far."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class CsvParseError(NeurodavisError, ValueError):
    """A CSV cell could not be parsed; carries 1-based row/column position."""

    def __init__(self, message: str, row: int | None = None, col: int | None = None):
        super().__init__(message)
        self.row = row
        self.col = col
