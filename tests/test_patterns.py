"""Pattern parsing, containment and avoidance."""
import gc
import random
from itertools import permutations

import pytest

from oracle_ref import ref_contains

from cycperm.errors import BadPattern
from cycperm.patterns import (
    LENGTH3_PATTERNS,
    avoids_all,
    canonical_patterns,
    contains,
    parse_pattern,
    parse_pattern_set,
    pattern_label,
    pattern_set_label,
    word_contains,
)
from cycperm.perm import Permutation, inverse, make_permutation, parse_permutation, reverse_complement


def test_parse_pattern():
    assert parse_pattern("231").entries == (2, 3, 1)
    assert parse_pattern("4231").entries == (4, 2, 3, 1)
    assert parse_pattern("10 9 8 7 6 5 4 3 2 1").entries == tuple(range(10, 0, -1))
    for bad in ("", "12x", "122"):
        with pytest.raises(BadPattern):
            parse_pattern(bad)


def test_pattern_labels():
    assert pattern_label(parse_pattern("4231")) == "4231"
    assert pattern_set_label(parse_pattern_set(["231", "123"])) == "123,231"
    assert canonical_patterns([parse_pattern("321"), parse_pattern("21")]) == (
        parse_pattern("21"),
        parse_pattern("321"),
    )


def test_contains_examples():
    p = parse_permutation("9 8 7 6 2 1 5 4 3")
    assert not contains(p, parse_pattern("123"))
    assert not contains(p, parse_pattern("231"))
    assert contains(make_permutation([2, 4, 1, 3]), parse_pattern("231"))
    assert contains(make_permutation([5, 1, 4, 2, 3]), parse_pattern("1"))
    assert not contains(make_permutation([1, 2]), parse_pattern("123"))  # k > n


def test_avoids_all_examples():
    both = [parse_pattern("123"), parse_pattern("231")]
    assert avoids_all(parse_permutation("9 8 7 6 2 1 5 4 3"), both)
    assert not avoids_all(make_permutation([1, 2, 3]), both)
    assert avoids_all(parse_permutation("14 13 12 11 10 9 8 3 2 1 7 6 5 4"), both)


def test_contains_matches_reference_exhaustively():
    pats = [q.entries for q in LENGTH3_PATTERNS]
    pats += [(1, 2), (2, 1), (1,)] + list(permutations(range(1, 5)))
    for n in range(1, 7):
        for word in permutations(range(1, n + 1)):
            p = Permutation(word)
            for pat in pats:
                assert contains(p, Permutation(pat)) == ref_contains(word, pat), (word, pat)


@pytest.mark.parametrize("pat", [(2, 1), (4, 3, 2, 1)], ids=["k2", "k4"])
def test_backtracking_matcher_leaves_no_reference_cycles(pat):
    # the harness re-checks every witness; garbage that only the cyclic
    # collector frees would make each check pay for collections later
    gc.collect()
    gc.disable()
    try:
        word_contains((1, 3, 2, 5, 4, 6, 7), pat)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_contains_matches_reference_on_random_words():
    rng = random.Random(2024)
    pats = [q.entries for q in LENGTH3_PATTERNS] + [(2, 4, 1, 3), (4, 3, 2, 1), (2, 1, 3, 5, 4)]
    for _ in range(300):
        n = rng.randint(1, 12)
        word = tuple(rng.sample(range(1, 100), n))  # arbitrary distinct values
        for pat in pats:
            assert word_contains(word, pat) == ref_contains(word, pat), (word, pat)


def test_containment_monotone_under_extension():
    rng = random.Random(5)
    pats = [q.entries for q in LENGTH3_PATTERNS]
    for _ in range(200):
        n = rng.randint(2, 9)
        word = tuple(rng.sample(range(1, 50), n))
        for pat in pats:
            if ref_contains(word[:-1], pat):
                assert word_contains(word, pat)


def test_symmetry_transport():
    qs = [Permutation(q.entries) for q in LENGTH3_PATTERNS]
    for n in range(1, 7):
        for word in permutations(range(1, n + 1)):
            p = Permutation(word)
            for q in qs:
                assert contains(p, q) == contains(inverse(p), inverse(q))
                assert contains(p, q) == contains(
                    reverse_complement(p), reverse_complement(q)
                )

