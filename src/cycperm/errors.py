"""Exception types shared across the package, and the oracle-cap rule.

Every error caused by bad input derives from UsageError, a ValueError, so
callers can either catch the specific condition or treat everything as a
bad-input error; the CLI maps UsageError to exit 64 and any other
CycpermError to exit 1. The cap rule lives here, beside the errors it
raises, because every CLI subcommand resolves the cap and this module
imports nothing heavy.
"""
from __future__ import annotations

import os


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


#: Largest n the oracle accepts unless overridden (config, not a constant:
#: raise via the cap argument, CYCPERM_ORACLE_CAP, or the CLI --cap flag).
DEFAULT_CAP = 13

_ENV_CAP = "CYCPERM_ORACLE_CAP"


def _env_int(name: str) -> int | None:
    raw = os.environ.get(name)
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise BadSetting(f"{name} must be an integer, got {raw!r}") from None


def configured_cap(explicit: int | None = None, default: int = DEFAULT_CAP) -> int:
    """The oracle cap: explicit value, then CYCPERM_ORACLE_CAP, then default."""
    if explicit is not None:
        return explicit
    env = _env_int(_ENV_CAP)
    return default if env is None else env


def check_cap(n: int, cap: int | None = None) -> None:
    """Refuse an n above the oracle cap; every cap refusal reads this way."""
    limit = configured_cap(cap)
    if n > limit:
        raise LimitExceeded(
            f"n={n} exceeds the oracle cap {limit}; raise it with --cap/{_ENV_CAP} "
            "or --extended if you accept the runtime"
        )
