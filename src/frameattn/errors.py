"""Exception hierarchy shared across the package.

Exit-code mapping for the CLI: DimensionError / FormatError / SchemaError /
DataError / ConfigError are all input problems (exit 2); NumericError means
a computation produced a non-finite value (exit 3).
"""


class FrameAttnError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(FrameAttnError):
    """Shapes or lengths of numeric arguments do not match."""


class FormatError(FrameAttnError):
    """A file does not carry the expected magic bytes or version."""


class SchemaError(FrameAttnError):
    """A file parses but its structure is internally inconsistent."""


class DataError(FrameAttnError):
    """Payload values are invalid (non-finite features, bad labels)."""


class ConfigError(FrameAttnError):
    """A configuration object violates its own invariants."""


class NumericError(FrameAttnError):
    """A computation produced NaN or Inf.

    row, when known, is the batch position of the first instance whose
    values went non-finite.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row
