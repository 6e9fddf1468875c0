"""Exception types shared across the package."""


class KinlearnError(Exception):
    """Base class for all package-specific errors."""


class EmptyInput(KinlearnError):
    """An operation that needs at least one element received none."""


class DegenerateGeometry(KinlearnError):
    """Point set is too small or too close to collinear for a stable fit."""


class InsufficientCorrespondences(KinlearnError):
    """Fewer than 3 common feature ids between two frames."""


class InvalidSpec(KinlearnError):
    """Object spec is malformed (cyclic joints, non-unit axis, ...)."""


class ParseError(KinlearnError):
    """A data file could not be parsed.

    ``line`` is the 1-based line number of the offending record when known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SchemaVersionMismatch(KinlearnError):
    """File schema version differs from the one this build understands."""

    def __init__(self, found, expected):
        super().__init__(f"schema version {found!r}, expected {expected!r}")
        self.found = found
        self.expected = expected


class DisconnectedParts(KinlearnError):
    """No spanning kinematic tree exists over the observed parts."""


class DuplicateObject(KinlearnError):
    """Object id already present in the model database."""


class UnknownObject(KinlearnError):
    """Object id not found in the model database."""


class MissingConfiguration(KinlearnError):
    """A non-rigid edge was given no configuration value for prediction."""
