"""Slow, obviously-correct reference implementations for cross-checks.

Everything here is deliberately independent of the package's algorithms:
containment tries every subsequence, counts iterate over all n!
permutations, cyclicity follows the cycle by hand, and a power applies
the permutation step by step.
"""
from itertools import combinations, permutations


def ref_contains(word, pat):
    """Containment by trying every index subsequence."""
    k = len(pat)
    for idxs in combinations(range(len(word)), k):
        vals = [word[i] for i in idxs]
        if all(
            (pat[a] < pat[b]) == (vals[a] < vals[b])
            for a in range(k)
            for b in range(a + 1, k)
        ):
            return True
    return False


def ref_avoids(word, pattern_list):
    return all(not ref_contains(word, pat) for pat in pattern_list)


def ref_is_cyclic(word):
    n = len(word)
    seen = 1
    i = word[0]
    while i != 1:
        i = word[i - 1]
        seen += 1
    return seen == n


def ref_power(word, k):
    """The k-th power of a permutation in one-line notation, k >= 0, by
    applying it k times to the identity."""
    result = tuple(range(1, len(word) + 1))
    for _ in range(k):
        result = tuple(word[i - 1] for i in result)
    return result


def ref_count(n, pattern_list, cyclic_only):
    """Count avoiders by full enumeration of S_n. Keep n small."""
    total = 0
    for p in permutations(range(1, n + 1)):
        if ref_avoids(p, pattern_list) and (not cyclic_only or ref_is_cyclic(p)):
            total += 1
    return total


def ref_list(n, pattern_list, cyclic_only):
    return [
        p
        for p in permutations(range(1, n + 1))
        if ref_avoids(p, pattern_list) and (not cyclic_only or ref_is_cyclic(p))
    ]
