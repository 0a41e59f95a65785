"""The oracle's search kernel, in plain Python over lists and int bitmasks.

One depth-first search from the empty prefix serves counting and witness
listing, over cyclic or all permutations; each oracle request is one call
of _count_from_root. It fills the one-line positions left to right and
tries the unused values in ascending order, so witnesses come out in
lexicographic order. Value v is bit v of every mask.

Two sound rules prune the search:

* Cycle closing. The assignments made so far split 1..n into paths
  i -> p(i) -> p(p(i)) -> ... Assigning p(i) = v closes a cycle exactly
  when v is the start of the path that ends at i. A cyclic search allows
  that only at the last position, so every leaf is an n-cycle.
* Forbidden values. An occurrence of a pattern's first k-1 entries in the
  prefix forbids one open interval of values at every later position:
  placing such a value there completes the pattern. Every unused value
  has to be placed later, so a placement whose new occurrences forbid an
  unused value leads nowhere and is rejected at once. By induction no
  prefix the search enters forbids any unused value, so the new
  occurrences (those ending at the placed value) are the only ones to
  test, and a value that is still unused is never forbidden itself.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Optional, Sequence


#: Names the search behind every count and node total; bumped by any change
#: to what _count_from_root returns, so a cached count never outlives it.
KERNEL_VERSION = 1


def _compile_patterns(patterns: Iterable[Sequence[int]]) -> Optional[tuple]:
    """Per pattern, the plan (gaps, lo, hi, k) the search matches it with.

    Returns None when a pattern has length 1, which nothing avoids. For a
    pattern q of length k >= 2, an occurrence of q[:k-1] that ends at a
    newly placed value fills slot k-2 with that value and then slots
    0..k-3 left to right; the value of slot t must lie in the open
    interval between the values of ``gaps[t]``, the two filled slots whose
    pattern entries are just below and just above q[t]. Indices k-1 and k
    stand for the bounds 0 and n + 1. ``lo`` and ``hi`` name that pair for
    q[k-1] among all k-1 slots: the interval the occurrence forbids.
    """
    plans = []
    for q in patterns:
        k = len(q)
        if k == 1:
            return None
        filled = [k - 2]
        gaps = []
        for t in [*range(k - 2), k - 1]:
            below = [s for s in filled if q[s] < q[t]]
            above = [s for s in filled if q[s] > q[t]]
            lo = max(below, key=lambda s: q[s]) if below else k - 1
            hi = min(above, key=lambda s: q[s]) if above else k
            gaps.append((lo, hi))
            filled.append(t)
        *slot_gaps, (lo, hi) = gaps
        plans.append((tuple(slot_gaps), lo, hi, k))
    return tuple(plans)


@lru_cache(maxsize=16)
def _spans(n: int) -> tuple:
    """spans[a][b]: the mask of the values strictly between a and b."""
    return tuple(
        tuple(((1 << b) - (1 << (a + 1))) if b > a + 1 else 0 for b in range(n + 2))
        for a in range(n + 2)
    )


def _count_from_root(
    n: int, patterns: Iterable[Sequence[int]], cyclic_only: bool, sink=None
) -> tuple[int, int]:
    """Search the length-n permutations (or n-cycles) avoiding the patterns.

    Returns (count, nodes): the avoiders found and the placements made.
    When sink is a list, each avoider's one-line tuple is appended to it,
    in lexicographic order.
    """
    plans = _compile_patterns(patterns)
    if plans is None:
        return 0, 0
    spans = _spans(n)
    top = n + 1
    last = n - 1
    word = [0] * n
    pos = [0] * top  # pos[v]: the position of placed value v
    prefix = [0] * top  # prefix[j]: the mask of the values at positions < j
    start = list(range(top))  # start[e]: the first vertex of the path ending at e
    end = list(range(top))  # end[s]: the last vertex of the path starting at s
    checks = [(gaps, lo, hi, [0] * (k - 1) + [0, top]) for gaps, lo, hi, k in plans]
    count = nodes = 0

    def blocked(gaps, lo, hi, vals, t, c0, used, rest):
        # Fill slot t from the values at positions c0..m-1 that fit its gap.
        # At the innermost slot the forbidden intervals are nested, so
        # their union is bounded by the extreme fitting value.
        if t == len(gaps):  # a pattern of length 2: only the new value
            return spans[vals[lo]][vals[hi]] & rest
        g_lo, g_hi = gaps[t]
        fits = (used ^ prefix[c0]) & spans[vals[g_lo]][vals[g_hi]]
        if not fits:
            return 0
        if t == len(gaps) - 1:
            a = (fits & -fits).bit_length() - 1 if lo == t else vals[lo]
            b = fits.bit_length() - 1 if hi == t else vals[hi]
            return spans[a][b] & rest
        while fits:
            bit = fits & -fits
            fits ^= bit
            w = bit.bit_length() - 1
            vals[t] = w
            if blocked(gaps, lo, hi, vals, t + 1, pos[w] + 1, used, rest):
                return 1
        return 0

    def descend(m, free):
        nonlocal count, nodes
        i = m + 1  # the one-line position being assigned, 1-based
        closing = start[i] if cyclic_only and m < last else 0
        used = prefix[m]
        cands = free
        while cands:
            bit = cands & -cands
            cands ^= bit
            v = bit.bit_length() - 1
            if v == closing:
                continue
            rest = free ^ bit
            for gaps, lo, hi, vals in checks:
                vals[-3] = v
                if blocked(gaps, lo, hi, vals, 0, 0, used, rest):
                    break
            else:
                nodes += 1
                word[m] = v
                if not rest:
                    count += 1
                    if sink is not None:
                        sink.append(tuple(word))
                    continue
                pos[v] = m
                prefix[i] = used | bit
                s, e = start[i], end[v]
                end[s], start[e] = e, s
                descend(i, rest)
                end[s], start[e] = i, v

    descend(0, (1 << top) - 2)
    # Both closures reach themselves through their cells. Deleting them
    # breaks that cycle, so this call's state is freed at once rather than
    # left to the cyclic garbage collector.
    del blocked, descend
    return count, nodes
