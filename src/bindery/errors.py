"""Exception types raised across the pipeline."""


class BinderyError(Exception):
    """Base class for all pipeline errors."""


class EmptyInputError(BinderyError):
    """Raised when an input file or directory holds no usable text."""


class PagewiseError(BinderyError):
    """Raised for malformed page-wise book directories."""


class NotFoundError(BinderyError):
    """Raised when a remote resource does not exist."""


class FetchError(BinderyError):
    """Raised when a download fails for reasons other than a 404."""


class TooShortError(BinderyError):
    """Raised when a text is too short to fingerprint."""


class InvariantError(BinderyError):
    """Raised when a document violates a structural invariant."""


class ParseError(BinderyError):
    """Raised for malformed or non-conforming annotation XML or store files."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line


class AlignmentError(BinderyError):
    """Raised when an external annotation file does not align with the book tokens."""


class MissingPhaseError(BinderyError):
    """Raised when a pipeline phase runs before its prerequisites."""

    def __init__(self, phase, missing):
        super().__init__(f"phase '{phase}' requires completed phase "
                         f"'{missing}'; run the '{missing}' step first")
        self.phase = phase
        self.missing = missing


class AnalyticsError(BinderyError):
    """Raised when an analytics computation has no defined result."""


class ChartError(BinderyError):
    """Raised for non-finite or malformed chart data."""
