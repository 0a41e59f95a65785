"""Permutations in one-line notation, their cycle structure, and symmetries.

A permutation of length n is stored as the tuple (p_1, ..., p_n) where
p_i is the image of position i. Positions and values are 1-based
everywhere in this package; there is no 0-based interface.

The composition convention is left-to-right: compose(r, s) maps i to
s(r(i)), i.e. r is applied first. Many libraries use the opposite
convention, so callers should not assume otherwise.
"""
from __future__ import annotations

from typing import Iterable, Sequence

from ._record import FrozenRecord, set_field
from .errors import EmptyInput, LengthMismatch, NotABijection


class Permutation(FrozenRecord):
    """A bijection on {1..n} in one-line notation.

    >>> Permutation((2, 4, 1, 3))(1)
    2
    >>> str(Permutation((2, 4, 1, 3)))
    '2 4 1 3'
    """

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: tuple[int, ...]):
        n = len(entries)
        if n == 0:
            raise EmptyInput("a permutation must have length at least 1")
        if sorted(entries) != list(range(1, n + 1)):
            raise NotABijection(f"not a rearrangement of 1..{n}: {entries}")
        set_field(self, "entries", entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __call__(self, i: int) -> int:
        """Image of the 1-based position i."""
        return self.entries[i - 1]

    def __str__(self) -> str:
        return " ".join(str(x) for x in self.entries)


def make_permutation(values: Iterable[int]) -> Permutation:
    """Validate a sequence of integers as a permutation of 1..n.

    >>> make_permutation([2, 4, 1, 3]).entries
    (2, 4, 1, 3)
    """
    return Permutation(tuple(int(v) for v in values))


def parse_permutation(text: str) -> Permutation:
    """Parse the one-line wire format: space-separated 1-based integers."""
    return make_permutation(int(tok) for tok in text.split())


def cycle_type(p: Permutation) -> tuple[int, ...]:
    """Cycle lengths of the functional digraph i -> p(i), longest first.

    >>> cycle_type(Permutation((2, 4, 1, 3)))
    (4,)
    >>> cycle_type(Permutation((2, 1, 3)))
    (2, 1)
    """
    n = len(p)
    seen = [False] * (n + 1)
    lengths = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = p.entries[i - 1]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def is_cyclic(p: Permutation) -> bool:
    """True iff p consists of a single cycle of length n.

    The singleton permutation "1" is cyclic (its one cycle has length n=1),
    and "21" is cyclic (a single 2-cycle).
    """
    n = len(p)
    steps = 1
    i = p.entries[0]
    while i != 1:
        i = p.entries[i - 1]
        steps += 1
    return steps == n


def is_involution(p: Permutation) -> bool:
    """True iff every cycle of p has length 1 or 2."""
    return all(p.entries[x - 1] == i + 1 for i, x in enumerate(p.entries))


def inversion_count(p: Permutation) -> int:
    """Number of index pairs i < j with p_i > p_j. Direct O(n^2) count."""
    e = p.entries
    n = len(e)
    return sum(1 for i in range(n) for j in range(i + 1, n) if e[i] > e[j])


def compose(r: Permutation, s: Permutation) -> Permutation:
    """Left-to-right product: the result maps i to s(r(i)).

    >>> compose(Permutation((2, 3, 1)), Permutation((2, 3, 1))).entries
    (3, 1, 2)
    """
    if len(r) != len(s):
        raise LengthMismatch(f"lengths differ: {len(r)} vs {len(s)}")
    return Permutation(tuple(s.entries[x - 1] for x in r.entries))


def inverse(p: Permutation) -> Permutation:
    """The permutation q with q(p(i)) = i for all i."""
    inv = [0] * len(p)
    for i, x in enumerate(p.entries, start=1):
        inv[x - 1] = i
    return Permutation(tuple(inv))


def reverse_complement(p: Permutation) -> Permutation:
    """The symmetry q_i = n + 1 - p_{n+1-i}.

    Preserves both cyclicity and pattern-avoidance classes.
    """
    n = len(p)
    return Permutation(tuple(n + 1 - x for x in reversed(p.entries)))
