"""Exception types shared across the package."""


class SynsetGeomError(Exception):
    """Base class for all errors raised by this package."""


class ModelFormatError(SynsetGeomError):
    """An embedding model file is malformed, truncated, or inconsistent."""


class DegenerateGeometryError(SynsetGeomError):
    """A vector subset sums to (numerically) zero, so its normalized mean
    is undefined.  Rank and interior computations refuse to guess."""


class SynsetSizeError(SynsetGeomError):
    """A synset is too small (< 3 words), exceeds the configured size cap,
    or would need tables above the memory budget."""


class SynsetParseError(SynsetGeomError):
    """A synset definition file is malformed.  Carries the 1-based line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ResolutionError(SynsetGeomError):
    """A word could not be resolved against the model under 'fail' policy."""
