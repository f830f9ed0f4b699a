"""Exception types shared across the package."""


class DataError(ValueError):
    """The data given is at fault: the CLI exits 2. Every error of malformed,
    missing or unusable input derives from it."""


class ShapeError(DataError):
    """Operand shapes are incompatible with the requested operation."""


class InvalidInputError(DataError):
    """Input violates a precondition (non-finite entries, empty text, ...)."""


class DegenerateInputError(DataError):
    """Input is degenerate for the operation (e.g. zero-norm vector)."""


class InvalidLabelError(DataError):
    """Class id outside the configured label range."""


class UnsupportedOpError(TypeError):
    """Loss function used an operation the gradient engine does not track."""


class ConfigError(ValueError):
    """Invalid training or generation configuration."""


class FormatError(DataError):
    """Malformed file content. A WAV error carries the byte offset where parsing failed."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = "%s (byte offset %d)" % (message, offset)
        super().__init__(message)
        self.offset = offset


class UndefinedMetricError(DataError):
    """Metric is undefined for this input (e.g. empty reference)."""


class InsufficientDataError(DataError):
    """Not enough data points to aggregate."""


class NumericalError(ArithmeticError):
    """A command overflowed, divided by zero or made a NaN."""
