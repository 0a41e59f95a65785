"""Structure theory of {123,231}-avoiding permutations via layer triples.

Every {123,231}-avoiding permutation that is not an involution consists of
three decreasing runs of consecutive values: the a largest entries first,
then the b smallest, then the c middle ones (a + b + c = n, all positive).
A triple is "good" when its permutation is a single n-cycle; goodness has
a complete arithmetic characterization in terms of which layer lengths
and gcds occur, which this module implements alongside the direct
cycle-tracing definition so the two can be swept against each other.
"""
from __future__ import annotations

import enum
from math import comb, gcd
from typing import Optional

from ._record import FrozenRecord, set_field
from .errors import TooSmall
from .perm import Permutation, is_cyclic


class Triple(FrozenRecord):
    """Layer lengths (first, second, third); all positive, summing to n."""

    __slots__ = _fields = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: int):
        if min(a, b, c) < 1:
            raise ValueError(f"layer lengths must be positive: {(a, b, c)}")
        set_field(self, "a", a)
        set_field(self, "b", b)
        set_field(self, "c", c)

    @property
    def n(self) -> int:
        return self.a + self.b + self.c


class TripleReason(enum.Enum):
    """Which clause of the goodness characterization fired (or was violated)."""

    WRONG_FIRST_LAYER = "WrongFirstLayer"
    PARITY_VIOLATION = "ParityViolation"
    GCD_VIOLATION = "GcdViolation"
    GOOD_ODD_CASE = "GoodOddCase"
    GOOD_HALF_CASE = "GoodHalfCase"
    GOOD_EVEN_MINUS_ONE_CASE = "GoodEvenMinusOneCase"


class TripleClassification(FrozenRecord):
    __slots__ = _fields = ("good", "reason")

    def __init__(self, good: bool, reason: TripleReason):
        set_field(self, "good", good)
        set_field(self, "reason", reason)


def permutation_of_triple(t: Triple) -> Permutation:
    """The layered permutation of a triple.

    First layer n..(n-a+1), second layer b..1, third layer (b+c)..(b+1);
    the output always avoids both 123 and 231.

    >>> str(permutation_of_triple(Triple(4, 2, 3)))
    '9 8 7 6 2 1 5 4 3'
    """
    n = t.n
    entries = list(range(n, n - t.a, -1))
    entries += list(range(t.b, 0, -1))
    entries += list(range(t.b + t.c, t.b, -1))
    return Permutation(tuple(entries))


def triple_of_permutation(p: Permutation) -> Optional[Triple]:
    """Recover the unique triple whose permutation is p, or None.

    None is returned for every permutation not of the exact three-layer
    form with positive layer lengths; in particular for the decreasing
    permutation (a single layer) and for all involutions.
    """
    n = len(p)
    e = p.entries
    a = 0
    while a < n and e[a] == n - a:
        a += 1
    if a < 1 or a > n - 2:
        return None
    b = e[a]
    c = n - a - b
    if b < 1 or c < 1:
        return None
    t = Triple(a, b, c)
    if permutation_of_triple(t).entries != e:
        return None
    return t


def inversion_count_formula(t: Triple) -> int:
    """Closed form C(a,2) + C(b,2) + C(c,2) + a(b+c) for the inversions
    of the triple's permutation."""
    return comb(t.a, 2) + comb(t.b, 2) + comb(t.c, 2) + t.a * (t.b + t.c)


def is_good_triple_direct(t: Triple) -> bool:
    """Definition-level check: build the permutation and trace its cycle."""
    return is_cyclic(permutation_of_triple(t))


def classify_triple_formula(t: Triple) -> TripleClassification:
    """Arithmetic characterization of good triples, without building the
    permutation.

    With n = a + b + c, the triple is good exactly when one of:
      (i)   n odd, n = 2m - 1:  a = m - 1 and gcd(b, m) = 1;
      (ii)  n = 4k:             a = 2k and gcd(b, c) = 1;
      (iii) n = 4k + 2:         a = 2k + 1 and gcd(b, c) = 1;
      (iv)  n = 4k + 2:         a = 2k, b and c both even,
                                and gcd(b/2, c/2) = 1.

    The clauses are stated for raw (a, b, c) with no b <= c normalization;
    goodness is symmetric in b and c (the two permutations are conjugate),
    and the exhaustive sweep against is_good_triple_direct is the safety
    net for that de-normalization.
    """
    n = t.n
    if n % 2 == 1:
        m = (n + 1) // 2
        if t.a != m - 1:
            return TripleClassification(False, TripleReason.WRONG_FIRST_LAYER)
        if gcd(t.b, m) != 1:
            return TripleClassification(False, TripleReason.GCD_VIOLATION)
        return TripleClassification(True, TripleReason.GOOD_ODD_CASE)
    if n % 4 == 0:
        if t.a != n // 2:
            return TripleClassification(False, TripleReason.WRONG_FIRST_LAYER)
        if gcd(t.b, t.c) != 1:
            return TripleClassification(False, TripleReason.GCD_VIOLATION)
        return TripleClassification(True, TripleReason.GOOD_HALF_CASE)
    # n = 4k + 2
    half = n // 2
    if t.a == half:
        if gcd(t.b, t.c) != 1:
            return TripleClassification(False, TripleReason.GCD_VIOLATION)
        return TripleClassification(True, TripleReason.GOOD_HALF_CASE)
    if t.a == half - 1:
        if t.b % 2 == 1 or t.c % 2 == 1:
            return TripleClassification(False, TripleReason.PARITY_VIOLATION)
        if gcd(t.b // 2, t.c // 2) != 1:
            return TripleClassification(False, TripleReason.GCD_VIOLATION)
        return TripleClassification(True, TripleReason.GOOD_EVEN_MINUS_ONE_CASE)
    return TripleClassification(False, TripleReason.WRONG_FIRST_LAYER)


def all_triples(n: int):
    """All positive triples (a, b, c) with a + b + c = n, lexicographic."""
    for a in range(1, n - 1):
        for b in range(1, n - a):
            yield Triple(a, b, n - a - b)


def enumerate_good_triples(n: int) -> list[Triple]:
    """All good triples summing to n, in lexicographic order.

    Only the first-layer lengths that classify_triple_formula can accept
    are visited, so this classifies O(n) triples rather than all O(n^2).
    """
    if n < 3:
        raise TooSmall(f"good triples need n >= 3, got {n}")
    if n % 2 == 1:
        firsts = ((n - 1) // 2,)
    elif n % 4 == 0:
        firsts = (n // 2,)
    else:
        firsts = (n // 2 - 1, n // 2)
    good = []
    for a in firsts:
        for b in range(1, n - a):
            t = Triple(a, b, n - a - b)
            if classify_triple_formula(t).good:
                good.append(t)
    return good
