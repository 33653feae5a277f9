"""Exception types shared across the package."""


class LekitError(Exception):
    """Base class for all errors raised by lekit."""


class ParseError(LekitError):
    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)


class SignatureError(LekitError):
    """Malformed or inconsistent signature description."""


class FormatError(LekitError):
    """Malformed frame, algebra or morphism file."""


class SortError(LekitError):
    """A point, set or variable appears at a coordinate of the wrong sort."""


class CapExceededError(LekitError):
    """An enumeration would exceed the configured size cap."""


class IncompatibleFrameError(LekitError):
    """Frame relations are not compatible with the Galois closure."""


class InvalidPMorphismError(LekitError):
    """The given relation pair is not a p-morphism."""


class NotALatticeError(LekitError):
    """The given order is not a bounded lattice."""


class NonNormalAlgebraError(LekitError):
    """An operation fails one of the normality laws."""
