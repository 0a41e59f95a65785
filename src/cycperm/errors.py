"""Exception types shared across the package.

Most are thin ValueError subclasses so callers can either catch the
specific condition or treat everything as a bad-input error.
"""


class CycpermError(Exception):
    """Base class for all package-specific errors."""


class NotABijection(CycpermError, ValueError):
    """The given values are not a rearrangement of 1..n."""


class EmptyInput(CycpermError, ValueError):
    """A permutation of length zero, or an empty pattern set, was requested."""


class LengthMismatch(CycpermError, ValueError):
    """Two permutations of different lengths were combined."""


class DuplicateValue(CycpermError, ValueError):
    """A value was appended to a prefix that already contains it."""


class BadPattern(CycpermError, ValueError):
    """A pattern string could not be parsed."""


class LimitExceeded(CycpermError, ValueError):
    """A requested n lies above the configured oracle cap."""


class BadSetting(CycpermError, ValueError):
    """An environment variable holds a value that cannot be used."""


class TooSmall(CycpermError, ValueError):
    """A requested n lies below the smallest meaningful value."""


class NonPositive(CycpermError, ValueError):
    """A number-theoretic function was called with z < 1."""


class UnsupportedPair(CycpermError, ValueError):
    """No closed-form count is available for the requested pattern pair."""


class UnknownSequence(CycpermError, ValueError):
    """The requested OEIS sequence id is not produced by this package."""


class InternalInconsistency(CycpermError, RuntimeError):
    """An arithmetic identity that must hold was violated; this is a bug."""


class PreconditionViolated(CycpermError, ValueError):
    """An operation's stated hypothesis does not hold for the input."""

    def __init__(self, which: str):
        super().__init__(which)
        self.which = which
