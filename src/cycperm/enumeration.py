"""Brute-force ground-truth oracle for pattern-avoiding permutation counts.

Counts (and optionally lists) permutations of length n avoiding a pattern
set, either over all permutations or restricted to single n-cycles. The
search is pruned backtracking over one-line prefixes, one kernel call per
request; see _kernels for the search itself. Witnesses are either listed
in the result or streamed, one at a time, to a caller's sink.

The oracle is deliberately independent of every closed-form formula in
this package so the two can be checked against each other.
"""
from __future__ import annotations

import time
from typing import Iterable, Optional

from . import _kernels
from ._record import FrozenRecord, Record, set_field
from .errors import EmptyInput, PreconditionViolated, TooSmall
from .patterns import Pattern, canonical_patterns
from .perm import Permutation

class EnumerationRequest(FrozenRecord):
    """One oracle invocation: length, patterns, and search options.

    ``parallelism`` is accepted and validated for compatibility but has no
    effect: the search runs on one thread.
    """

    __slots__ = _fields = ("n", "patterns", "cyclic_only", "collect", "parallelism")

    def __init__(self, n: int, patterns: tuple[Pattern, ...], cyclic_only: bool = True,
                 collect: bool = False, parallelism: int = 1):
        if n < 1:
            raise TooSmall(f"n must be at least 1, got {n}")
        if not patterns:
            raise EmptyInput("the pattern set must be nonempty")
        if parallelism < 1:
            raise TooSmall(f"parallelism must be at least 1, got {parallelism}")
        set_field(self, "n", n)
        set_field(self, "patterns", canonical_patterns(patterns))
        set_field(self, "cyclic_only", cyclic_only)
        set_field(self, "collect", collect)
        set_field(self, "parallelism", parallelism)


class EnumerationResult(Record):
    _fields = ("count", "witnesses", "nodes_visited", "elapsed")

    def __init__(self, count: int, witnesses: Optional[list[Permutation]] = None,
                 nodes_visited: int = 0, elapsed: float = 0.0):
        self.count = count
        self.witnesses = witnesses
        self.nodes_visited = nodes_visited
        self.elapsed = elapsed


def count_avoiders(req: EnumerationRequest) -> EnumerationResult:
    """Count all length-n permutations avoiding every pattern in the set."""
    if req.cyclic_only:
        raise PreconditionViolated("count_avoiders requires a request with cyclic_only=False")
    return run_enumeration(req)


def count_cyclic_avoiders(req: EnumerationRequest) -> EnumerationResult:
    """Count the n-cycles (as permutations) avoiding every pattern."""
    if not req.cyclic_only:
        raise PreconditionViolated(
            "count_cyclic_avoiders requires a request with cyclic_only=True")
    return run_enumeration(req)


def list_cyclic_avoiders(n: int, qs: Iterable[Pattern]) -> list[Permutation]:
    """All cyclic avoiders of length n, in lexicographic one-line order."""
    req = EnumerationRequest(n=n, patterns=tuple(qs), cyclic_only=True, collect=True)
    return run_enumeration(req).witnesses


def run_enumeration(req: EnumerationRequest, sink=None) -> EnumerationResult:
    """Execute a request as stated, at any n; prefer the count_*/list_*
    wrappers. The oracle cap is the CLI's rule, so nothing here refuses a
    large n: the search's cost grows with n, and the caller bounds it.

    A collecting request lists its witnesses in the result, unless the
    caller passes a ``sink``: then each witness's one-line tuple goes to
    ``sink.append``, in lexicographic order, and the result's ``witnesses``
    is None.

    Every request searches the symmetric image of its set that
    _kernels._most_gated_image picks, which has the same count;
    ``nodes_visited`` counts that image's search. When the image is not the
    set itself, a collecting request maps the image's witnesses back to the
    set's, sorts them, and then lists them or hands them to the sink; a set
    that is its own image, such as any single pattern, streams to the sink
    as it searches.
    """
    if sink is not None and not req.collect:
        raise PreconditionViolated("a witness sink requires a request with collect=True")
    t0 = time.perf_counter()
    witnesses = None
    if req.collect and sink is None:
        sink = witnesses = []
    image, back = _kernels._most_gated_image(tuple([q.entries for q in req.patterns]))
    if back is None or sink is None:
        count, nodes = _kernels._count_from_root(req.n, image, req.cyclic_only, sink)
    else:
        found = []
        count, nodes = _kernels._count_from_root(req.n, image, req.cyclic_only, found)
        for w in sorted(map(back, found)):
            sink.append(w)
    return EnumerationResult(
        count=count,
        witnesses=None if witnesses is None else [Permutation(w) for w in witnesses],
        nodes_visited=nodes,
        elapsed=time.perf_counter() - t0,
    )
