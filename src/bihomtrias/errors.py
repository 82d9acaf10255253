"""Shared exception types."""


class BihomtriasError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(BihomtriasError):
    """Operands carry incompatible dimensions."""


class SingularMatrix(BihomtriasError):
    """A matrix that must be invertible is not."""


class ParseError(BihomtriasError):
    """A document does not conform to the expected schema.

    ``location`` is a human-readable field path or line/column hint.
    """

    def __init__(self, message, location=None):
        self.location = location
        if location:
            message = f"{message} (at {location})"
        super().__init__(message)


class DimensionError(ParseError):
    """A basis index in a document is out of range for the declared dim,
    or the declared dim exceeds the document limit."""


class UnknownId(BihomtriasError):
    """Catalog lookup with an id that does not exist."""


class PreconditionFailed(BihomtriasError):
    """A documented operation precondition does not hold for the input."""
