"""Exception types shared across the package.

Every error caused by bad input derives from UsageError, a ValueError, so
callers can either catch the specific condition or treat everything as a
bad-input error; the CLI maps UsageError to exit 64 and any other
CycpermError to exit 1.
"""


class CycpermError(Exception):
    """Base class for all package-specific errors."""


class UsageError(CycpermError, ValueError):
    """Base class for errors caused by bad input rather than by a bug."""


class NotABijection(UsageError):
    """The given values are not a rearrangement of 1..n."""


class EmptyInput(UsageError):
    """A permutation of length zero, or an empty pattern set, was requested."""


class LengthMismatch(UsageError):
    """Two permutations of different lengths were combined."""


class BadPattern(UsageError):
    """A pattern string could not be parsed."""


class LimitExceeded(UsageError):
    """A requested n lies above the configured oracle cap."""


class BadSetting(UsageError):
    """A flag or environment variable holds a value that cannot be used."""


class TooSmall(UsageError):
    """A requested n lies below the smallest meaningful value."""


class NonPositive(UsageError):
    """A number-theoretic function was called with z < 1."""


class UnsupportedPair(UsageError):
    """No closed-form count is available for the requested pattern pair."""


class UnknownSequence(UsageError):
    """The requested OEIS sequence id is not produced by this package."""


class InternalInconsistency(CycpermError, RuntimeError):
    """An arithmetic identity that must hold was violated; this is a bug."""


class PreconditionViolated(UsageError):
    """An operation's stated hypothesis does not hold for the input."""
