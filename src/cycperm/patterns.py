"""Pattern containment and avoidance for permutations.

A pattern is itself a permutation, used as an order-isomorphism template:
p contains q when some subsequence of p has the same pairwise order
relations as q. Words with distinct (not necessarily contiguous) integer
values are supported wherever containment only depends on relative order.

Containment is one depth-first subsequence search, for every pattern
length, that fills the pattern's slots left to right; a candidate for
slot t is compared with two values only, those of its value-neighbours
among slots 0..t-1 (the slots whose pattern entries are just below and
just above pat[t]), which are precomputed per pattern. The search is one
loop over an explicit stack that holds, per filled slot, the word
position at which its scan resumes after a dead end; it makes no call per
slot and builds no closure. The harness uses it to re-verify the
oracle's witnesses independently of its search, so it shares no code or
plans with the kernel.
"""
from __future__ import annotations

from functools import lru_cache
from math import inf
from typing import Iterable, Sequence

from .errors import BadPattern
from .perm import Permutation, make_permutation

# A pattern is just a permutation acting as a template.
Pattern = Permutation


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
    entries = p.entries
    for q in qs:
        if word_contains(entries, q.entries):
            return False
    return True


def word_contains(word: Sequence[int], pat: Sequence[int]) -> bool:
    """Containment on a word of distinct values (order-isomorphism only)."""
    # Depth-first choice of positions for each pattern slot, left to right.
    # The new value only has to lie between the values of the slot's two
    # value-neighbours among the slots already placed (see _slot_bounds).
    # resume[t] is where slot t's scan goes on once slot t + 1 runs dry;
    # slot t may use positions up to stop - 1, which leaves room for the
    # slots after it, so a pattern longer than the word finds none.
    bounds = _slot_bounds(tuple(pat))
    k = len(bounds)
    if not k:
        return True
    vals = [0] * k + [-inf, inf]  # the placed values, then the two sentinels
    resume = [0] * k
    last = k - 1
    t = c = 0
    stop = len(word) - last
    while True:
        lo, hi = bounds[t]
        a, b = vals[lo], vals[hi]
        while c < stop:
            w = word[c]
            c += 1
            if a < w < b:
                break
        else:  # slot t is exhausted: go back to slot t - 1's next position
            if not t:
                return False
            t -= 1
            stop -= 1
            c = resume[t]
            continue
        if t == last:
            return True
        vals[t] = w
        resume[t] = c
        t += 1
        stop += 1


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
