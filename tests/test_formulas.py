"""Number theory and every closed-form count, cross-checked small."""
from fractions import Fraction
from math import gcd

import pytest

from oracle_ref import ref_count, ref_power

from cycperm.enumeration import list_cyclic_avoiders
from cycperm.errors import NonPositive, TooSmall, UnsupportedPair
from cycperm.formulas import (
    OEIS_SEQUENCES,
    PairFormulaId,
    count_123_132,
    count_123_231,
    count_132_231,
    count_trivial_pair,
    divisors,
    format_bfile,
    mobius,
    pair_count,
    pair_id_from_labels,
    totient,
    upper_bound_123_231,
)
from cycperm.patterns import parse_pattern
from cycperm.perm import Permutation


def test_totient():
    assert totient(1) == 1
    assert totient(5) == 4
    assert totient(12) == 4
    assert [totient(z) for z in range(1, 11)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]
    with pytest.raises(NonPositive):
        totient(0)


def test_mobius():
    assert mobius(1) == 1
    assert mobius(4) == 0
    assert mobius(6) == 1
    assert mobius(30) == -1
    with pytest.raises(NonPositive):
        mobius(-2)


def test_divisor_sum_identities():
    for n in range(1, 2001):
        assert sum(totient(d) for d in divisors(n)) == n
        assert sum(mobius(d) for d in divisors(n)) == (1 if n == 1 else 0)


def test_count_123_231():
    assert count_123_231(1) == 1
    assert count_123_231(2) == 1
    assert count_123_231(8) == 2
    assert count_123_231(9) == 4
    assert count_123_231(26) == 18


def test_count_123_132():
    assert count_123_132(3) == 2
    assert count_123_132(5) == 4
    assert count_123_132(10) == 16
    assert count_123_132(1) == 1 and count_123_132(2) == 1


def test_count_132_231():
    assert count_132_231(1) == 1
    assert count_132_231(3) == 1
    assert count_132_231(6) == 5


def test_count_trivial_pairs():
    assert count_trivial_pair(PairFormulaId.P123_321, 7) == 0
    assert count_trivial_pair(PairFormulaId.P123_321, 3) == 2
    assert count_trivial_pair(PairFormulaId.P132_321, 6) == 2
    assert count_trivial_pair(PairFormulaId.P231_321, 9) == 1
    assert count_trivial_pair(PairFormulaId.P231_312, 2) == 1
    assert count_trivial_pair(PairFormulaId.P231_312, 5) == 0


def test_pair_dispatch():
    assert pair_count(PairFormulaId.P123_231, 9) == 4
    assert pair_count(PairFormulaId.P231_312, 3) == 0
    assert pair_id_from_labels("231", "123") == PairFormulaId.P123_231
    with pytest.raises(UnsupportedPair):
        pair_id_from_labels("132", "213")
    with pytest.raises(UnsupportedPair):
        pair_id_from_labels("123", "312")  # solvable by symmetry, but not housed


def test_every_formula_matches_full_enumeration_small():
    for pair in PairFormulaId:
        pats = [parse_pattern(lbl).entries for lbl in pair.value.split(",")]
        for n in range(1, 8):
            assert pair_count(pair, n) == ref_count(n, pats, cyclic_only=True), (pair, n)


def test_upper_bound():
    assert upper_bound_123_231(26) == 18
    assert upper_bound_123_231(4) == Fraction(3, 2)
    assert upper_bound_123_231(10) == 6
    with pytest.raises(TooSmall):
        upper_bound_123_231(3)


def test_bounds_hold_on_a_sweep():
    for n in range(4, 2001):
        c = count_123_231(n)
        assert c <= upper_bound_123_231(n)
        assert c <= n
    assert count_123_231(26) == upper_bound_123_231(26)


def test_132_321_witnesses_are_long_cycle_powers():
    for n in range(3, 10):
        q = (*range(2, n + 1), 1)
        expected = {Permutation(ref_power(q, i)) for i in range(1, n) if gcd(i, n) == 1}
        got = set(list_cyclic_avoiders(n, [parse_pattern("132"), parse_pattern("321")]))
        assert got == expected
        assert len(got) == totient(n)


def test_oeis_registry():
    assert OEIS_SEQUENCES == {"A309563": ("123", "231"), "A309504": ("123",),
                              "A309505": ("132",), "A309506": ("231",), "A309508": ("321",)}
    assert pair_id_from_labels(*OEIS_SEQUENCES["A309563"]) == PairFormulaId.P123_231


def test_format_bfile():
    text = format_bfile([(1, 1), (2, 1), (3, 1)])
    assert text == "1 1\n2 1\n3 1\n"
    assert not text.endswith("\n\n")
    assert text.encode("ascii")
