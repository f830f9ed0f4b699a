"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class InvalidInputError(ValueError):
    """Input violates a precondition (non-finite entries, empty text, ...)."""


class DegenerateInputError(ValueError):
    """Input is degenerate for the operation (e.g. zero-norm vector)."""


class InvalidLabelError(ValueError):
    """Class id outside the configured label range."""


class UnsupportedOpError(TypeError):
    """Loss function used an operation the gradient engine does not track."""


class ConfigError(ValueError):
    """Invalid training or generation configuration."""


class FormatError(ValueError):
    """Malformed file content. A WAV error carries the byte offset where parsing failed."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = "%s (byte offset %d)" % (message, offset)
        super().__init__(message)
        self.offset = offset


class UndefinedMetricError(ValueError):
    """Metric is undefined for this input (e.g. empty reference)."""


class InsufficientDataError(ValueError):
    """Not enough data points to aggregate."""


class NumericalError(ArithmeticError):
    """A command overflowed, divided by zero or made a NaN."""
