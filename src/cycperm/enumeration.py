"""Brute-force ground-truth oracle for pattern-avoiding permutation counts.

Counts (and optionally lists) permutations of length n avoiding a pattern
set, either over all permutations or restricted to single n-cycles. The
search is pruned backtracking over one-line prefixes; see _kernels for
the search itself.

The oracle is deliberately independent of every closed-form formula in
this package so the two can be checked against each other.
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Iterable, Optional

from . import _kernels
from .errors import BadSetting, EmptyInput, LimitExceeded, TooSmall
from .patterns import Pattern, canonical_patterns
from .perm import Permutation

#: Largest n the oracle accepts unless overridden (config, not a constant:
#: raise via the cap argument, CYCPERM_ORACLE_CAP, or the CLI --cap flag).
DEFAULT_CAP = 13

_ENV_CAP = "CYCPERM_ORACLE_CAP"


def _env_int(name: str) -> Optional[int]:
    raw = os.environ.get(name)
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise BadSetting(f"{name} must be an integer, got {raw!r}") from None


def configured_cap(explicit: Optional[int] = None, default: int = DEFAULT_CAP) -> int:
    """The oracle cap: explicit value, then CYCPERM_ORACLE_CAP, then default."""
    if explicit is not None:
        return explicit
    env = _env_int(_ENV_CAP)
    return default if env is None else env


@dataclass(frozen=True)
class EnumerationRequest:
    """One oracle invocation: length, patterns, and search options.

    ``parallelism`` is accepted and validated for compatibility but has no
    effect: the search runs on one thread.
    """

    n: int
    patterns: tuple[Pattern, ...]
    cyclic_only: bool = True
    collect: bool = False
    parallelism: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise TooSmall(f"n must be at least 1, got {self.n}")
        if not self.patterns:
            raise EmptyInput("the pattern set must be nonempty")
        if self.parallelism < 1:
            raise TooSmall(f"parallelism must be at least 1, got {self.parallelism}")
        object.__setattr__(self, "patterns", canonical_patterns(self.patterns))


@dataclass
class EnumerationResult:
    count: int
    witnesses: Optional[list[Permutation]] = None
    nodes_visited: int = 0
    elapsed: float = 0.0


def count_avoiders(req: EnumerationRequest, cap: Optional[int] = None) -> EnumerationResult:
    """Count all length-n permutations avoiding every pattern in the set."""
    if req.cyclic_only:
        raise ValueError("count_avoiders requires a request with cyclic_only=False")
    return run_enumeration(req, cap=cap)


def count_cyclic_avoiders(req: EnumerationRequest, cap: Optional[int] = None) -> EnumerationResult:
    """Count the n-cycles (as permutations) avoiding every pattern."""
    if not req.cyclic_only:
        raise ValueError("count_cyclic_avoiders requires a request with cyclic_only=True")
    return run_enumeration(req, cap=cap)


def list_cyclic_avoiders(
    n: int, qs: Iterable[Pattern], cap: Optional[int] = None
) -> list[Permutation]:
    """All cyclic avoiders of length n, in lexicographic one-line order."""
    req = EnumerationRequest(n=n, patterns=tuple(qs), cyclic_only=True, collect=True)
    return run_enumeration(req, cap=cap).witnesses


def run_enumeration(req: EnumerationRequest, cap: Optional[int] = None) -> EnumerationResult:
    """Execute a request as stated; prefer the count_*/list_* wrappers."""
    check_cap(req.n, cap)
    t0 = time.perf_counter()
    plans = _kernels.compile_patterns(q.entries for q in req.patterns)
    # One kernel call per choice of the first entry, in ascending order, so
    # the shared witness list stays lexicographic.
    witnesses = [] if req.collect else None
    count = nodes = 0
    for root in range(1, req.n + 1):
        c, nd = _kernels._count_from_root(req.n, root, plans, req.cyclic_only, witnesses)
        count += c
        nodes += nd
    return EnumerationResult(
        count=count,
        witnesses=None if witnesses is None else [Permutation(w) for w in witnesses],
        nodes_visited=nodes,
        elapsed=time.perf_counter() - t0,
    )


def check_cap(n: int, cap: Optional[int] = None) -> None:
    """Refuse an n above the oracle cap; every cap refusal reads this way."""
    limit = configured_cap(cap)
    if n > limit:
        raise LimitExceeded(
            f"n={n} exceeds the oracle cap {limit}; raise it with --cap/{_ENV_CAP} "
            "or --extended if you accept the runtime"
        )
