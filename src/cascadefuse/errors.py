"""Exception hierarchy shared across the package."""


class CascadeFuseError(Exception):
    """Base class for all package errors."""


class InvalidValue(CascadeFuseError, ValueError):
    """A value outside its domain, such as a non-finite kernel constant."""


# --- cascade validation ---

class EmptyStory(CascadeFuseError):
    pass


class NegativeTime(CascadeFuseError):
    pass


class UnknownLabel(CascadeFuseError):
    pass


# --- point process ---

class NonPositiveDelay(CascadeFuseError):
    pass


class NonPositiveWindow(CascadeFuseError):
    pass


class InvalidInterval(CascadeFuseError):
    pass


class TimeBeforeOrigin(CascadeFuseError):
    pass


class NonPositiveTime(CascadeFuseError):
    pass


class ZeroDenominator(CascadeFuseError):
    pass


class EmptyGrid(CascadeFuseError):
    pass


class ExplodingCascade(CascadeFuseError):
    pass


# --- features ---

class EmptyCorpus(CascadeFuseError):
    pass


# --- neural core ---

class ShapeMismatch(CascadeFuseError):
    pass


class DimensionalityMismatch(CascadeFuseError):
    pass


class AllMasked(CascadeFuseError):
    pass


class InvalidClass(CascadeFuseError):
    pass


class GraphNotBuilt(CascadeFuseError):
    pass


# --- model / training ---

class ConfigMismatch(CascadeFuseError):
    pass


class EmptyDataset(CascadeFuseError):
    pass


class EmptySpace(CascadeFuseError):
    pass


# --- data / CLI ---

class ParseError(CascadeFuseError):
    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class MixedLabelSets(CascadeFuseError):
    pass


class TooFewStories(CascadeFuseError):
    pass

