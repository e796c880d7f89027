"""Exception hierarchy shared across the package: one class per contract a caller can act on."""


class CascadeFuseError(Exception):
    """Base class for all package errors; the CLI prints one as a single `error:` line."""


class InvalidValue(CascadeFuseError, ValueError):
    """An argument, field, label or record outside its domain, empty inputs included."""


class ParseError(CascadeFuseError):
    """An input file that does not decode, parse or follow its format."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class ConfigMismatch(CascadeFuseError):
    """A config, checkpoint, bundle or parameter set that does not fit what it is used with."""


class ShapeMismatch(CascadeFuseError):
    """Arrays whose shapes do not fit an operation."""


class ExplodingCascade(CascadeFuseError):
    """A simulation that grew past max_events."""
