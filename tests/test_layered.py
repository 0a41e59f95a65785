"""Layer triples: construction, inversion formula, goodness clauses."""
import pytest

from oracle_ref import ref_list

from cycperm.errors import TooSmall, UsageError
from cycperm.layered import (
    Triple,
    TripleReason,
    all_triples,
    classify_triple_formula,
    enumerate_good_triples,
    inversion_count_formula,
    is_good_triple_direct,
    permutation_of_triple,
    triple_of_permutation,
)
from cycperm.patterns import avoids_all, parse_pattern
from cycperm.perm import cycle_type, inversion_count, is_involution, make_permutation, parse_permutation

BOTH = (parse_pattern("123"), parse_pattern("231"))


def test_triple_validation():
    with pytest.raises(ValueError):
        Triple(0, 1, 1)
    with pytest.raises(ValueError):
        Triple(3, 2, -1)
    with pytest.raises(UsageError):
        Triple(1, 0, 2)
    assert Triple(4, 2, 3).n == 9


def test_permutation_of_triple_examples():
    assert str(permutation_of_triple(Triple(4, 2, 3))) == "9 8 7 6 2 1 5 4 3"
    assert str(permutation_of_triple(Triple(7, 3, 4))) == "14 13 12 11 10 9 8 3 2 1 7 6 5 4"
    assert permutation_of_triple(Triple(1, 1, 1)).entries == (3, 1, 2)
    assert (
        str(permutation_of_triple(Triple(8, 4, 6)))
        == "18 17 16 15 14 13 12 11 4 3 2 1 10 9 8 7 6 5"
    )


def test_construction_avoids_both_patterns(triples_to_60):
    for n in range(3, 61):
        for t in triples_to_60[n]:
            assert avoids_all(permutation_of_triple(t), BOTH)


def test_triple_of_permutation():
    assert triple_of_permutation(parse_permutation("9 8 7 6 2 1 5 4 3")) == Triple(4, 2, 3)
    assert triple_of_permutation(make_permutation([3, 2, 1])) is None
    assert triple_of_permutation(make_permutation([3, 1, 2])) == Triple(1, 1, 1)
    assert triple_of_permutation(make_permutation([1, 2, 3])) is None
    # involution of the two-layer form: absent
    assert triple_of_permutation(make_permutation([2, 1, 5, 4, 3])) is None


def test_round_trip(triples_to_60):
    for n in range(3, 61):
        for t in triples_to_60[n]:
            assert triple_of_permutation(permutation_of_triple(t)) == t


def test_inversion_count_formula_examples():
    assert inversion_count_formula(Triple(4, 2, 3)) == 30
    assert inversion_count_formula(Triple(1, 1, 1)) == 2
    assert inversion_count_formula(Triple(8, 4, 6)) == 28 + 6 + 15 + 80  # = 129


def test_inversion_formula_matches_direct_count(triples_to_60):
    for n in range(3, 31):
        for t in triples_to_60[n]:
            assert inversion_count_formula(t) == inversion_count(permutation_of_triple(t))


def test_is_good_triple_direct_examples():
    assert not is_good_triple_direct(Triple(7, 3, 7))
    assert is_good_triple_direct(Triple(7, 3, 4))
    assert is_good_triple_direct(Triple(6, 3, 4))


def test_classify_examples():
    cases = [
        (Triple(7, 3, 4), True, TripleReason.GOOD_HALF_CASE),
        (Triple(8, 4, 6), True, TripleReason.GOOD_EVEN_MINUS_ONE_CASE),
        (Triple(7, 3, 7), False, TripleReason.WRONG_FIRST_LAYER),
        (Triple(4, 2, 3), True, TripleReason.GOOD_ODD_CASE),
        (Triple(4, 2, 2), False, TripleReason.GCD_VIOLATION),  # n=8, a=4, gcd 2
        (Triple(2, 1, 3), False, TripleReason.PARITY_VIOLATION),  # n=6, a=2, odd b
    ]
    for t, good, reason in cases:
        got = classify_triple_formula(t)
        assert (got.good, got.reason) == (good, reason), t


def test_formula_agrees_with_direct_everywhere(triples_to_60):
    seen_reasons = set()
    for n in range(3, 61):
        for t in triples_to_60[n]:
            cls = classify_triple_formula(t)
            assert cls.good == is_good_triple_direct(t), t
            seen_reasons.add(cls.reason)
    assert seen_reasons == set(TripleReason)  # every clause fires somewhere


def test_goodness_symmetric_in_bc_with_equal_cycle_type(triples_to_60):
    for n in range(3, 41):
        for t in triples_to_60[n]:
            swapped = Triple(t.a, t.c, t.b)
            assert is_good_triple_direct(t) == is_good_triple_direct(swapped)
            assert cycle_type(permutation_of_triple(t)) == cycle_type(
                permutation_of_triple(swapped)
            )


def test_necessary_conditions_for_good_triples(triples_to_60):
    from math import gcd

    for n in range(3, 61):
        for t in triples_to_60[n]:
            if not classify_triple_formula(t).good:
                continue
            assert t.a <= n // 2 and t.b <= n // 2 and t.c <= n // 2
            assert t.a >= t.b and t.a >= t.c
            g = gcd(t.b, t.c)
            assert g in (1, 2)
            if g == 2:
                assert t.a % 2 == 0


def test_enumerate_good_triples():
    assert enumerate_good_triples(3) == [Triple(1, 1, 1)]
    assert enumerate_good_triples(8) == [Triple(4, 1, 3), Triple(4, 3, 1)]
    nine = enumerate_good_triples(9)
    assert len(nine) == 4
    assert all(t.a == 4 for t in nine)
    assert [(t.b, t.c) for t in nine] == [(1, 4), (2, 3), (3, 2), (4, 1)]
    with pytest.raises(TooSmall):
        enumerate_good_triples(2)


def test_good_triples_skip_only_first_layers_that_cannot_be_good():
    for n in range(3, 201):
        full = [t for t in all_triples(n) if classify_triple_formula(t).good]
        assert enumerate_good_triples(n) == full, n


def test_good_triples_count_the_123_231_avoiders():
    from cycperm.formulas import count_123_231

    for n in range(3, 2001):
        assert len(enumerate_good_triples(n)) == count_123_231(n), n


def test_good_triples_are_exactly_the_cyclic_avoiders():
    from cycperm.enumeration import list_cyclic_avoiders

    for n in range(3, 9):
        built = {permutation_of_triple(t) for t in enumerate_good_triples(n)}
        assert built == set(list_cyclic_avoiders(n, BOTH))


def test_good_triples_list_the_cyclic_avoiders_in_order_through_n26():
    # n = 26 is the first n where the count attains (3n - 6) / 4
    from cycperm.enumeration import list_cyclic_avoiders

    for n in range(3, 27):
        built = [permutation_of_triple(t) for t in enumerate_good_triples(n)]
        assert built == list_cyclic_avoiders(n, BOTH), n


def test_avoiders_split_into_involutions_and_triples():
    from oracle_ref import ref_avoids
    from itertools import permutations as iterperms

    for n in range(3, 8):
        for word in iterperms(range(1, n + 1)):
            if not ref_avoids(word, [q.entries for q in BOTH]):
                continue
            p = make_permutation(word)
            t = triple_of_permutation(p)
            if is_involution(p):
                assert t is None
            else:
                assert t is not None and permutation_of_triple(t) == p
