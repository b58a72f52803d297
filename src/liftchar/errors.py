"""Exception types shared across the library."""


class LiftcharError(Exception):
    """Base class for all library errors."""


class NotHermitian(LiftcharError):
    pass


class NotPSD(LiftcharError):
    pass


class NotSquare(LiftcharError):
    pass


class NotContraction(NotPSD):
    """A matrix of norm above 1: I - mm* is not PSD."""


class DimMismatch(LiftcharError, ValueError):
    pass


class TruncationTooLarge(LiftcharError):
    """A Fock truncation with more words than a numpy array can index."""


class Mismatch(LiftcharError):
    """Two objects that must coincide (e.g. nested lifting levels) do not."""


class ResidualTooLarge(LiftcharError):
    """A defining relation could not be met within tolerance."""


class NotPurelyContractive(LiftcharError):
    pass


class ParseError(LiftcharError):
    pass


class ValidationError(LiftcharError):
    pass
