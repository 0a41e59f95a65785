"""Pattern containment and avoidance for permutations.

A pattern is itself a permutation, used as an order-isomorphism template:
p contains q when some subsequence of p has the same pairwise order
relations as q. Words with distinct (not necessarily contiguous) integer
values are supported wherever containment only depends on relative order.

Length-3 patterns get a dedicated O(n^2) scan; longer patterns fall back
to backtracking subsequence search. At the sizes this package handles
(n <= 13 in the oracle) both are instant; the harness uses them to
re-verify the oracle's witnesses independently of its search.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
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
    try:
        if " " in text:
            return make_permutation(int(tok) for tok in text.split())
        if text.isdigit():
            return make_permutation(int(ch) for ch in text)
        raise BadPattern(f"cannot parse pattern {text!r}")
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
    """Deterministic ordering: by length, then lexicographic entries."""
    return tuple(sorted(set(qs), key=lambda q: (len(q), q.entries)))


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
    # so the extremal x is a bisect away; total O(n^2).
    first_below = pat[0] < pat[1]  # x < y required?
    third_above_first = pat[2] > pat[0]  # z > x required?
    third_above_middle = pat[2] > pat[1]  # z > y required?
    n = len(word)
    prefix: list[int] = [word[0]]
    for j in range(1, n - 1):
        y = word[j]
        x = None
        if first_below:
            pos = bisect_left(prefix, y)
            if pos > 0:
                # min below y is least constraining when z > x, max otherwise
                x = prefix[0] if third_above_first else prefix[pos - 1]
        else:
            pos = bisect_right(prefix, y)
            if pos < len(prefix):
                x = prefix[-1] if not third_above_first else prefix[pos]
        if x is not None:
            lo, hi = _z_range(x, y, third_above_first, third_above_middle)
            if lo < hi:
                for l in range(j + 1, n):
                    if lo < word[l] < hi:
                        return True
        insort(prefix, y)
    return False


def _z_range(x: int, y: int, z_above_x: bool, z_above_y: bool) -> tuple[float, float]:
    lo = float("-inf")
    hi = float("inf")
    if z_above_x:
        lo = max(lo, x)
    else:
        hi = min(hi, x)
    if z_above_y:
        lo = max(lo, y)
    else:
        hi = min(hi, y)
    return lo, hi


def _contains_backtrack(word: Sequence[int], pat: Sequence[int]) -> bool:
    # Depth-first choice of positions for each pattern slot, checking the
    # new value's order relation against every already-placed slot.
    k = len(pat)
    n = len(word)
    chosen: list[int] = []

    def extend(start: int) -> bool:
        t = len(chosen)
        if t == k:
            return True
        for c in range(start, n - (k - t) + 1):
            w = word[c]
            if all((pat[s] < pat[t]) == (word[chosen[s]] < w) for s in range(t)):
                chosen.append(c)
                if extend(c + 1):
                    return True
                chosen.pop()
        return False

    found = extend(0)
    del extend  # it reaches itself through its cell; freed now, not by the cyclic collector
    return found

