"""Exception hierarchy shared by all qckit modules."""


class QCKitError(Exception):
    """Base class for every error raised by qckit."""


class NotPrime(QCKitError):
    pass


class BoundExceeded(QCKitError):
    pass


class FieldMismatch(QCKitError):
    pass


class DivisionByZero(QCKitError):
    pass


class ZeroConstantTerm(QCKitError):
    pass


class ZeroScalar(QCKitError):
    pass


class MultiplierNotCoprime(QCKitError):
    pass


class NotCoprime(QCKitError):
    pass


class LengthMismatch(QCKitError):
    pass


class TooLarge(QCKitError):
    pass


class CutoffExceeded(QCKitError):
    pass


class NotDivisor(QCKitError):
    pass


class NotRootOfUnity(QCKitError):
    pass


class NotCofactors(QCKitError):
    pass


class BadParameters(QCKitError):
    pass


class NoGamma(QCKitError):
    pass


class NotShiftInvariant(QCKitError):
    pass


class CrossCheckFailed(QCKitError):
    """Raised when two independent routes to the same result disagree.

    Signals an implementation fault; unlike an ``assert``, the check
    still runs under ``python -O``.
    """


class DualMismatch(CrossCheckFailed):
    """Raised when the kernel dual and the component dual disagree."""


def crosscheck(ok, message, *args):
    """Raise CrossCheckFailed(message % args) unless ``ok``; the message
    is only formatted when the check fails."""
    if not ok:
        raise CrossCheckFailed(message % args if args else message)


class ShapeMismatch(QCKitError):
    pass


class NotPrimeIndex(QCKitError):
    pass


class NotCyclicConstituents(QCKitError):
    pass


class FormatError(QCKitError):
    """Raised for malformed or unknown-key code files."""
