"""Pattern containment and avoidance for permutations.

A pattern is itself a permutation, used as an order-isomorphism template:
p contains q when some subsequence of p has the same pairwise order
relations as q. Words with distinct (not necessarily contiguous) integer
values are supported wherever containment only depends on relative order.

Length-3 patterns get a dedicated O(n^2) scan. Every other length goes to
a depth-first subsequence search that fills the pattern's slots left to
right; a candidate for slot t is compared with two values only, those of
its value-neighbours among slots 0..t-1 (the slots whose pattern entries
are just below and just above pat[t]), which are precomputed per pattern.
The harness uses both to re-verify the oracle's witnesses independently
of its search, so neither shares code or plans with the kernel.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from functools import lru_cache
from math import inf
from typing import Iterable, Sequence

from .errors import BadPattern
from .perm import Permutation, make_permutation

# A pattern is just a permutation acting as a template.
Pattern = Permutation

#: The six patterns of length three, in lexicographic order.
LENGTH3_PATTERNS = tuple(
    Permutation(t) for t in ((1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1))
)


def parse_pattern(text: str) -> Pattern:
    """Parse a pattern from its compact form.

    Patterns of length <= 9 are written as digit strings ("123", "4231");
    longer ones use the space-separated one-line form.

    >>> parse_pattern("231").entries
    (2, 3, 1)
    """
    text = text.strip()
    if not text:
        raise BadPattern("empty pattern string")
    if " " in text:
        tokens = text.split()
    elif text.isdigit():
        tokens = text
    else:
        raise BadPattern(f"cannot parse pattern {text!r}")
    try:
        return make_permutation(int(tok) for tok in tokens)
    except (ValueError, TypeError) as exc:
        raise BadPattern(f"cannot parse pattern {text!r}: {exc}") from exc


def pattern_label(q: Pattern) -> str:
    """Compact display form: digit string for length <= 9, else spaced."""
    if len(q) <= 9:
        return "".join(str(x) for x in q.entries)
    return str(q)


def parse_pattern_set(texts: Iterable[str]) -> tuple[Pattern, ...]:
    """Parse several patterns, deduplicate, and order them canonically."""
    qs = {parse_pattern(t) for t in texts}
    if not qs:
        raise BadPattern("a pattern set must contain at least one pattern")
    return canonical_patterns(qs)


def canonical_patterns(qs: Iterable[Pattern]) -> tuple[Pattern, ...]:
    """Deterministic ordering: by length, then lexicographic entries. Equal
    patterns are merged by their entries, which hash faster than records."""
    unique = {q.entries: q for q in qs}
    return tuple(sorted(unique.values(), key=lambda q: (len(q), q.entries)))


def pattern_set_label(qs: Iterable[Pattern]) -> str:
    return ",".join(pattern_label(q) for q in canonical_patterns(qs))


def contains(p: Permutation, q: Pattern) -> bool:
    """True iff some subsequence of p is order-isomorphic to q.

    >>> contains(Permutation((2, 4, 1, 3)), Permutation((2, 3, 1)))
    True
    >>> contains(Permutation((9, 8, 7, 6, 2, 1, 5, 4, 3)), Permutation((1, 2, 3)))
    False
    """
    return word_contains(p.entries, q.entries)


def avoids_all(p: Permutation, qs: Iterable[Pattern]) -> bool:
    """True iff p contains none of the patterns."""
    return all(not contains(p, q) for q in qs)


def word_contains(word: Sequence[int], pat: Sequence[int]) -> bool:
    """Containment on a word of distinct values (order-isomorphism only)."""
    k = len(pat)
    n = len(word)
    if k > n:
        return False
    if k == 3:
        return _contains_len3(word, pat)
    return _contains_backtrack(word, pat)


def _contains_len3(word: Sequence[int], pat: Sequence[int]) -> bool:
    # For each middle element y, pick the extremal admissible first element
    # x (extremal in the direction that least constrains the third element),
    # then scan the suffix for a third element z. The prefix is kept sorted
    # so the extremal x is a bisect away; total O(n^2). The rank of pat[2]
    # among the three entries places z below, between or above x and y.
    a, b, c = pat
    rank = (c > a) + (c > b)
    n = len(word)
    prefix: list[int] = [word[0]]
    for j in range(1, n - 1):
        y = word[j]
        if a < b:  # x below y: the least one when z is above x, else the greatest
            pos = bisect_left(prefix, y)
            x = (prefix[0] if c > a else prefix[pos - 1]) if pos else None
        else:  # x above y: the greatest one when z is below x, else the least
            pos = bisect_right(prefix, y)
            x = (prefix[pos] if c > a else prefix[-1]) if pos < len(prefix) else None
        if x is not None:
            lo, hi = (x, y) if x < y else (y, x)
            lo, hi = ((-inf, lo), (lo, hi), (hi, inf))[rank]
            for z in word[j + 1:]:
                if lo < z < hi:
                    return True
        insort(prefix, y)
    return False


def _contains_backtrack(word: Sequence[int], pat: Sequence[int]) -> bool:
    # Depth-first choice of positions for each pattern slot, left to right.
    # The new value only has to lie between the values of the slot's two
    # value-neighbours among the slots already placed (see _slot_bounds).
    bounds = _slot_bounds(tuple(pat))
    k = len(bounds)
    n = len(word)
    vals = [0] * k + [-inf, inf]  # the placed values, then the two sentinels

    def extend(t: int, start: int) -> bool:
        if t == k:
            return True
        lo, hi = bounds[t]
        a, b = vals[lo], vals[hi]
        for c in range(start, n - k + t + 1):
            w = word[c]
            if a < w < b:
                vals[t] = w
                if extend(t + 1, c + 1):
                    return True
        return False

    found = extend(0, 0)
    del extend  # it reaches itself through its cell; freed now, not by the cyclic collector
    return found


@lru_cache(maxsize=64)
def _slot_bounds(pat: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """Per slot t, the slots among 0..t-1 whose pattern entries are just
    below and just above pat[t]; k and k + 1 stand for -inf and +inf.

    When the values in slots 0..t-1 form an occurrence of pat[:t], a new
    value w in slot t extends it to an occurrence of pat[:t+1] exactly when
    w lies strictly between the values of those two slots.
    """
    k = len(pat)
    bounds = []
    for t, x in enumerate(pat):
        below = [s for s in range(t) if pat[s] < x]
        above = [s for s in range(t) if pat[s] > x]
        lo = max(below, key=pat.__getitem__) if below else k
        hi = min(above, key=pat.__getitem__) if above else k + 1
        bounds.append((lo, hi))
    return tuple(bounds)
