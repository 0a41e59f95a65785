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

A pattern of length 3 is not matched per candidate. Its new occurrences
of q[:2] pair the candidate v with one placed value u, and the interval
each forbids depends on u and v alone, so one mask per node holds every
v it refuses. With U the placed values and F the unused ones (v among
them), v is refused exactly when (a rule does nothing when U is empty or
the value it names does not exist):

* 123 when min U < v < max F: some u < v, and an unused value above v.
* 132 when v > f, f the least value of F above min U: u = min U
  forbids the widest interval (u, v), and f lies in it.
* 213 when v < u, u the greatest value of U below max F: u > v
  forbids the values above u, and max F is one of them.
* 231 when v > u, u the least value of U above min F: u < v forbids
  the values below u, and min F is one of them.
* 312 when v < f, f the greatest value of F below max U: u = max U
  forbids the widest interval (v, u), and f lies in it.
* 321 when min F < v < max U: some u > v, and an unused value below v.

Patterns of length 2 and of length 4 or more keep the per-candidate walk
over their occurrences. It loops over the values of every slot but the
innermost, and settles the innermost slot with one mask test per value of
the slot before it: the intervals that the innermost slot's fitting values
forbid are nested, so their union is bounded by the extreme fitting value.

A third rule, the pair lookahead, refuses a placement after which two
unused values a < b can be placed in neither order. It is sound, because
every completion places a before b or b before a. Let U' be the placed
values and F' the unused ones after placing v. By the invariant, the
prefix followed by a alone avoids every pattern, and so does the prefix
followed by b; so an occurrence in prefix+(a, b) or prefix+(b, a) ends in
both, as (u, a, b) or (u, b, a) with u in U'. Among length-3 patterns:

* a before b is refused by 123 when a > min U' (L), by 213 when some u in
  U' lies between a and b (M), and by 312 when b < max U' (H);
* b before a is refused by 132 (L), 231 (M) and 321 (H), on the same
  conditions.

The placement is dead when some a < b in F' meets an ascending condition X
and a descending one Y. The search tests two of the nine combinations, LL
(123, 132) and MM (213, 231), once per node, not once per candidate: their
two patterns are in the set, so their own refusals above already leave
only a few candidates, and on those each combination dooms one interval.
Write m for the least placed value and p and P for the least and greatest
unused ones, before the placement (m = n + 1 when none is placed); a
candidate v < m becomes min U'.

* LL: every v < m below the second greatest unused value. Above m, 123 and
  132 leave a candidate only when it is the one unused value there, and
  placing it leaves none above m.
* MM: every v in (p, P). 213 and 231 leave p or P only when no placed value
  lies between p and P, and then neither is doomed.

Three combinations never fire under the invariant: in ML (213, 132), HL
(312, 132) and HM (312, 231), whichever of two placed values comes first
already forbids a or b. The other four, LM (123, 231), LH (123, 321), MH
(213, 321) and HH (312, 321), do fire but are not tested; the search leaves
them to the choice of image below.

Which combinations a set meets depends on which symmetric image of it is
searched. The inverse and the reverse-complement rc map n-cycles to
n-cycles, and p avoids q exactly when p^-1 avoids q^-1, and exactly when
rc(p) avoids rc(q). So the four images Q, Q^-1, rc(Q) and rc(Q^-1) of a set
have one count, cyclic and all, but not one cost. Every oracle request
(enumeration.run_enumeration) searches _most_gated_image(Q): the image that
meets the most tested combinations less the untested ones, Q itself on a
tie. (123, 231) meets LM and goes to (123, 312), which meets none and takes
655 nodes at n = 18 against 131,201; (132, 231) meets none and goes to
(213, 231), which tests MM and takes 10,294 nodes at n = 16 against 90,485.
LL and MM stay because some sets have no cheap image without them:
(123, 132)'s only other image is (123, 213), which takes 14,573 nodes at
n = 18 against 3,070, and every image of (132, 231) but (213, 231) meets no
tested combination. A listing maps each of the image's witnesses back by
the inverse, rc, or both, and sorts them, so it lists Q's avoiders in
lexicographic order as a search of Q would; a set that is its own image
hands each witness to the sink as the search finds it. The nodes of a
request, and of a ``count --cache`` record, count the searched image's
nodes.

The last placement needs no node of its own. When placing v leaves one
unused value w, w always fits: by the invariant the prefix followed by v
forbids no unused value, so w completes no pattern; and in a cyclic search
the n - 1 assignments made close no cycle, so they form one path, from w
(which no position maps to yet) to position n (which maps nowhere yet),
and p(n) = w closes the n-cycle. So the search counts both placements and
the avoider where it accepts v.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Optional, Sequence


#: Names the search behind every count and node total; bumped by any change
#: to what _count_from_root returns, so a cached count never outlives it.
KERNEL_VERSION = 3

#: The length-3 patterns, in the order of the flags _compile_patterns returns.
_MASKED = ((1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1))


@lru_cache(maxsize=64)
def _compile_patterns(patterns: tuple[tuple[int, ...], ...]) -> Optional[tuple]:
    """The plans (gaps, lo, hi, k) of the walked patterns, six mask flags
    and two gate flags.

    Mask flag j says that the set holds _MASKED[j], which the per-node mask
    refuses; every other pattern is walked. The gate flags say whether the
    set tests the pair lookahead's combinations LL and MM. Returns None
    when a pattern has length 1, which nothing avoids. For a walked pattern
    q of length k = 2 or k >= 4, an occurrence of q[:k-1] that ends at a
    newly placed value fills slot k-2 with that value and then slots 0..k-3
    left to right; the value of slot t must lie in the open interval
    between the values of ``gaps[t]``, the two filled slots whose pattern
    entries are just below and just above q[t]. Indices k-1 and k stand for
    the bounds 0 and n + 1. ``lo`` and ``hi`` name that pair for q[k-1]
    among all k-1 slots: the interval the occurrence forbids. The walk
    loops over the fitting values of slots 0..k-4 and settles the innermost
    slot, k-3, with one mask test per value of slot k-4.
    """
    plans = []
    masked = set()
    for q in patterns:
        k = len(q)
        if k == 1:
            return None
        if k == 3:
            masked.add(q)
            continue
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
    flags = tuple(q in masked for q in _MASKED)
    has123, has132, has213, has231 = flags[:4]
    return tuple(plans), flags, (has123 and has132, has213 and has231)


def _inverse(q: tuple[int, ...]) -> tuple[int, ...]:
    inverse = [0] * len(q)
    for i, v in enumerate(q, 1):
        inverse[v - 1] = i
    return tuple(inverse)


def _reverse_complement(q: tuple[int, ...]) -> tuple[int, ...]:
    top = len(q) + 1
    return tuple([top - v for v in reversed(q)])


def _inverse_of_rc(q: tuple[int, ...]) -> tuple[int, ...]:
    return _inverse(_reverse_complement(q))


def _gain(patterns: tuple[tuple[int, ...], ...]) -> int:
    """The pair lookahead combinations a set meets that the search tests
    (LL, MM), less those it meets that the search does not (LM, LH, MH, HH)."""
    has123, has132, has213, has231, has312, has321 = (q in patterns for q in _MASKED)
    return ((has123 and has132) + (has213 and has231)
            - has123 * (has231 + has321) - has321 * (has213 + has312))


@lru_cache(maxsize=64)
def _most_gated_image(patterns: tuple[tuple[int, ...], ...]) -> tuple:
    """(image, back): of the four images Q, Q^-1, rc(Q) and rc(Q^-1) of the
    set Q, the one with the greatest _gain, Q itself on a tie, and the map
    that takes the image's avoiders to Q's (None for Q itself). The four
    have the same count, cyclic and all (see the module docstring)."""
    if sum(len(q) == 3 for q in patterns) < 2:
        return patterns, None  # no image of this set meets a combination
    inverse = tuple(map(_inverse, patterns))
    images = ((patterns, None), (inverse, _inverse),
              (tuple(map(_reverse_complement, patterns)), _reverse_complement),
              (tuple(map(_reverse_complement, inverse)), _inverse_of_rc))
    return max(images, key=lambda image: _gain(image[0]))


@lru_cache(maxsize=16)
def _spans(n: int) -> tuple:
    """spans[a][b]: the mask of the values strictly between a and b."""
    return tuple(
        tuple(((1 << b) - (1 << (a + 1))) if b > a + 1 else 0 for b in range(n + 2))
        for a in range(n + 2)
    )


def _doomed(free: int, u_min: int, f_min: int, f_max: int, ll: bool, mm: bool,
            spans: tuple) -> int:
    """The mask of the candidates that the pair lookahead refuses, for the
    combinations LL and MM as flagged; ``free`` is the mask of the unused
    values before the placement, u_min the least placed value (n + 1 when
    none is), and f_min and f_max the extremes of ``free``. Its bits are
    exact on the candidates that the length-3 mask leaves and mean nothing
    elsewhere; see the module docstring."""
    rest = free & (free - 1)
    if not rest & (rest - 1):  # fewer than two values would stay unused
        return 0
    out = spans[f_min][f_max] if mm else 0
    if ll:
        out |= spans[0][min(u_min, (free ^ (1 << f_max)).bit_length() - 1)]
    return out


def _count_from_root(
    n: int, patterns: Iterable[Sequence[int]], cyclic_only: bool, sink=None
) -> tuple[int, int]:
    """Search the length-n permutations (or n-cycles) avoiding the patterns.

    Returns (count, nodes): the avoiders found and the placements made.
    When sink is a list, each avoider's one-line tuple is appended to it,
    in lexicographic order.
    """
    compiled = _compile_patterns(tuple(map(tuple, patterns)))
    if compiled is None:
        return 0, 0
    plans, flags, (ll, mm) = compiled
    has123, has132, has213, has231, has312, has321 = flags
    masking = any(flags)
    looking = ll or mm
    spans = _spans(n)
    top = n + 1
    # The candidate loop places the last value, so unless n = 1 no node is
    # at the last position, and each refuses the value that closes a cycle.
    closes = cyclic_only and n > 1
    word = [0] * n
    pos = [0] * top  # pos[v]: the position of placed value v
    prefix = [0] * top  # prefix[j]: the mask of the values at positions < j
    start = list(range(top))  # start[e]: the first vertex of the path ending at e
    end = list(range(top))  # end[s]: the last vertex of the path starting at s
    checks = [(gaps, lo, hi, [0] * (k - 1) + [0, top]) for gaps, lo, hi, k in plans]
    count = nodes = 0

    def blocked(gaps, lo, hi, vals, t, c0, used, rest):
        # Fill slot t from the values at positions c0..m-1 that fit its gap.
        # A walked plan has no slot (length 2) or at least two (length 3 is
        # masked), so t never starts at the innermost slot.
        if t == len(gaps):  # a pattern of length 2: only the new value
            return spans[vals[lo]][vals[hi]] & rest
        g_lo, g_hi = gaps[t]
        fits = (used ^ prefix[c0]) & spans[vals[g_lo]][vals[g_hi]]
        j = t + 1
        if j < len(gaps) - 1:
            while fits:
                bit = fits & -fits
                fits ^= bit
                w = bit.bit_length() - 1
                vals[t] = w
                if blocked(gaps, lo, hi, vals, j, pos[w] + 1, used, rest):
                    return 1
            return 0
        # Slot j is the innermost: settle it for each value of slot t. Its
        # forbidden intervals are nested, so their union is bounded by the
        # extreme fitting value.
        i_lo, i_hi = gaps[j]
        while fits:
            bit = fits & -fits
            fits ^= bit
            w = bit.bit_length() - 1
            vals[t] = w
            inner = (used ^ prefix[pos[w] + 1]) & spans[vals[i_lo]][vals[i_hi]]
            if inner:
                a = (inner & -inner).bit_length() - 1 if lo == j else vals[lo]
                b = inner.bit_length() - 1 if hi == j else vals[hi]
                if spans[a][b] & rest:
                    return 1
        return 0

    def descend(m, free):
        nonlocal count, nodes
        i = m + 1  # the one-line position being assigned, 1-based
        used = prefix[m]
        refused = 1 << start[i] if closes else 0
        if masking:
            if used:
                u_min = (used & -used).bit_length() - 1
                u_max = used.bit_length() - 1
            else:  # the candidate becomes both; no length-3 rule refuses anything
                u_min, u_max = top, 0
            f_min = (free & -free).bit_length() - 1
            f_max = free.bit_length() - 1
            if has123:
                refused |= spans[u_min][f_max]
            if has132:
                f = free & spans[u_min][top]
                if f:
                    refused |= spans[(f & -f).bit_length() - 1][top]
            if has213:
                u = used & spans[0][f_max]
                if u:
                    refused |= spans[0][u.bit_length() - 1]
            if has231:
                u = used & spans[f_min][top]
                if u:
                    refused |= spans[(u & -u).bit_length() - 1][top]
            if has312:
                f = free & spans[0][u_max]
                if f:
                    refused |= spans[0][f.bit_length() - 1]
            if has321:
                refused |= spans[f_min][u_max]
            if looking:
                refused |= _doomed(free, u_min, f_min, f_max, ll, mm, spans)
        cands = free & ~refused
        while cands:
            bit = cands & -cands
            cands ^= bit
            v = bit.bit_length() - 1
            rest = free ^ bit
            for gaps, lo, hi, vals in checks:
                vals[-3] = v
                if blocked(gaps, lo, hi, vals, 0, 0, used, rest):
                    break
            else:
                nodes += 1
                word[m] = v
                if not rest & (rest - 1):  # v completes the word, or the one value left does
                    if rest:
                        nodes += 1
                        word[i] = rest.bit_length() - 1
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
    # The recursive closures reach themselves through their cells. Deleting
    # every closure breaks those cycles, so this call's state is freed at
    # once rather than left to the cyclic garbage collector.
    del blocked, descend
    return count, nodes
