"""The error types callers tell apart: `cli.main` exits 2 on a DataError (a
FormatError among them) and 1 on a ConfigError. Other faults raise built-ins."""


class DataError(ValueError):
    """The data given is malformed, missing or unusable: the CLI exits 2."""


class FormatError(DataError):
    """Malformed file content. A WAV error carries the byte offset where parsing failed."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = "%s (byte offset %d)" % (message, offset)
        super().__init__(message)
        self.offset = offset


class ConfigError(ValueError):
    """Invalid training or generation configuration: the CLI exits 1."""
