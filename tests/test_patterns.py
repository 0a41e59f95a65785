"""Pattern parsing, containment and avoidance."""
import gc
import random
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from oracle_ref import ref_contains

from cycperm.errors import BadPattern
from cycperm import patterns
from cycperm.patterns import (
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

#: The six patterns of length three, in lexicographic order.
LENGTH3 = list(permutations((1, 2, 3)))


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
    pats = LENGTH3 + [(1, 2), (2, 1), (1,)] + list(permutations(range(1, 5)))
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


@settings(max_examples=400, deadline=None)
@given(pat=st.integers(1, 6).flatmap(lambda k: st.permutations(range(1, k + 1))),
       word=st.lists(st.integers(-40, 40), max_size=12, unique=True))
def test_contains_matches_reference_on_words_of_distinct_ints(pat, word):
    # any distinct ints: negatives, gaps, and words shorter than the pattern
    assert word_contains(word, pat) == ref_contains(word, pat)


def _block_word(blocks):
    """Runs of consecutive values, each ascending or descending, each placed
    above or below every value so far: such words avoid many patterns, so a
    search in them often runs to its end."""
    word, low, high = [], 0, 0
    for size, descending, above in blocks:
        if above:
            run, high = list(range(high, high + size)), high + size
        else:
            run, low = list(range(low - size, low)), low - size
        word += run[::-1] if descending else run
    return word


@settings(max_examples=200, deadline=None)
@given(pat=st.integers(3, 5).flatmap(lambda k: st.permutations(range(1, k + 1))),
       word=st.integers(10, 16).flatmap(lambda n: st.permutations(range(n)))
       | st.lists(st.tuples(st.integers(1, 4), st.booleans(), st.booleans()),
                  min_size=3, max_size=8).map(_block_word).filter(lambda w: 10 <= len(w) <= 16))
def test_contains_matches_reference_on_long_words(pat, word):
    # long words and patterns of length 3 to 5, where the search fills and
    # empties its stack of resume positions many times before it answers
    assert word_contains(word, pat) == ref_contains(word, pat)


def test_the_empty_pattern_and_the_empty_word():
    assert word_contains((3, 1, 2), ())
    assert word_contains((), ())
    assert not word_contains((), (1,))


def test_slot_bound_cache_leaves_no_reference_cycles():
    patterns._slot_bounds.cache_clear()
    gc.collect()
    gc.disable()
    try:
        for pat in [(1,), (2, 1), (2, 4, 1, 3), (1, 4, 3, 2), (3, 1, 5, 2, 6, 4)]:
            word_contains((5, 1, 3, 2, 8, 4, 6, 7), pat)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_contains_matches_reference_on_random_words():
    rng = random.Random(2024)
    pats = LENGTH3 + [(2, 4, 1, 3), (4, 3, 2, 1), (2, 1, 3, 5, 4)]
    for _ in range(300):
        n = rng.randint(1, 12)
        word = tuple(rng.sample(range(1, 100), n))  # arbitrary distinct values
        for pat in pats:
            assert word_contains(word, pat) == ref_contains(word, pat), (word, pat)


def test_containment_monotone_under_extension():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(2, 9)
        word = tuple(rng.sample(range(1, 50), n))
        for pat in LENGTH3:
            if ref_contains(word[:-1], pat):
                assert word_contains(word, pat)


def test_symmetry_transport():
    qs = [Permutation(q) for q in LENGTH3]
    for n in range(1, 7):
        for word in permutations(range(1, n + 1)):
            p = Permutation(word)
            for q in qs:
                assert contains(p, q) == contains(inverse(p), inverse(q))
                assert contains(p, q) == contains(
                    reverse_complement(p), reverse_complement(q)
                )

