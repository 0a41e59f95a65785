"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""
import time
from fractions import Fraction

from cycperm.enumeration import EnumerationRequest, list_cyclic_avoiders, run_enumeration
from cycperm.formulas import (
    PairFormulaId,
    count_123_231,
    divisors,
    mobius,
    pair_count,
    totient,
)
from cycperm.harness import (
    INSERTION_PATTERNS,
    TABLE_ONE,
    TABLE_ONE_COLUMNS,
    check_chain_conjecture,
    check_growth_bounds,
    check_insertion_theorem,
    cyclic_count,
)
from cycperm.layered import (
    classify_triple_formula,
    enumerate_good_triples,
    inversion_count_formula,
    is_good_triple_direct,
    permutation_of_triple,
    triple_of_permutation,
)
from cycperm.patterns import parse_pattern
from cycperm.perm import inversion_count, is_cyclic, is_involution

PAIR_123_231 = (parse_pattern("123"), parse_pattern("231"))


def _report(num, description, ok, t0):
    line = f"[acceptance] criterion {num}: {description}: " \
           f"{'PASS' if ok else 'FAIL'} ({time.perf_counter() - t0:.1f}s)"
    print(line, flush=True)
    assert ok, line


def _direct_inversions(entries):
    # independent O(n^2) count over all pairs i < j
    return sum(a > b for i, a in enumerate(entries) for b in entries[i + 1:])


def test_criterion_1_table_one():
    t0 = time.perf_counter()
    mismatches = []
    for n in range(3, 11):
        for label, expected in zip(TABLE_ONE_COLUMNS, TABLE_ONE[n]):
            got = cyclic_count([parse_pattern(label)], n)
            if got != expected:
                mismatches.append((n, label, got, expected))
    _report(1, "Table 1 reproduction, 48 cells for n = 3..10, exact", not mismatches, t0)


def test_criterion_1_table_one_extended():
    t0 = time.perf_counter()
    ok = all(
        cyclic_count([parse_pattern(label)], n) == expected
        for n in (11, 12)
        for label, expected in zip(TABLE_ONE_COLUMNS, TABLE_ONE[n])
    )
    _report(1, "Table 1 extended range n = 11..12, exact", ok, t0)


def test_criterion_2_formula_vs_oracle():
    t0 = time.perf_counter()
    bad = []
    for pair in PairFormulaId:
        qs = [parse_pattern(lbl) for lbl in pair.value.split(",")]
        for n in range(3, 12):
            if pair_count(pair, n) != cyclic_count(qs, n):
                bad.append((pair.value, n))
    _report(2, "formula equals oracle for all 7 pairs, n = 3..11", not bad, t0)


def test_criterion_3_good_triple_characterization(triples_to_60):
    t0 = time.perf_counter()
    ok = all(
        classify_triple_formula(t).good == is_good_triple_direct(t)
        for n in range(3, 61)
        for t in triples_to_60[n]
    )
    _report(3, "goodness clauses agree with cycle tracing on all triples, n = 3..60", ok, t0)


def test_criterion_4_structural_completeness():
    t0 = time.perf_counter()
    ok = True
    for n in range(3, 12):
        built = {permutation_of_triple(t) for t in enumerate_good_triples(n)}
        oracle = set(list_cyclic_avoiders(n, PAIR_123_231))
        ok = ok and built == oracle
        every = run_enumeration(
            EnumerationRequest(n=n, patterns=PAIR_123_231, cyclic_only=False, collect=True)
        ).witnesses
        for p in every:
            t = triple_of_permutation(p)
            if is_involution(p):
                ok = ok and t is None
            else:
                ok = ok and t is not None and permutation_of_triple(t) == p
    _report(4, "good-triple permutations = oracle witnesses; avoiders split "
               "involution/triple, n = 3..11", ok, t0)


def test_criterion_5_special_values_and_bounds():
    t0 = time.perf_counter()
    ok = count_123_231(2) == 1
    ok = ok and count_123_231(26) == 18 == Fraction(3 * 26 - 6, 4)
    for n in range(1, 10001):
        c = count_123_231(n)
        if c > n or (n >= 4 and c > Fraction(3 * n - 6, 4)):
            ok = False
            break
    _report(5, "C_2 = 1, C_26 = 18 attains (3n-6)/4; both bounds hold to n = 10000", ok, t0)


def test_criterion_6_inversion_formula(triples_to_60):
    t0 = time.perf_counter()
    ok = True
    even_cyclic = []
    for n in range(3, 61):
        for t in triples_to_60[n]:
            p = permutation_of_triple(t)
            if inversion_count_formula(t) != _direct_inversions(p.entries):
                ok = False
            if n % 2 == 0 and is_good_triple_direct(t):
                even_cyclic.append(p)
    for n in (4, 6, 8):
        even_cyclic.extend(list_cyclic_avoiders(n, [parse_pattern("321")]))
    ok = ok and all(inversion_count(p) % 2 == 1 for p in even_cyclic)
    _report(6, "inversion formula matches direct count, n = 3..60; even-length "
               "cycles have odd inversions", ok, t0)


def test_criterion_7_insertion_theorem():
    t0 = time.perf_counter()
    ok = True
    for label in INSERTION_PATTERNS:
        rep = check_insertion_theorem(parse_pattern(label), 9)
        ok = ok and rep.passed and rep.ns == tuple(range(3, 9))
    _report(7, "insertion doubling: S, T sizes, disjointness, membership, "
               "growth for 5 patterns, n = 3..8", ok, t0)


def test_criterion_8_conjecture_evidence():
    t0 = time.perf_counter()
    ok = check_chain_conjecture(10).passed
    for label in TABLE_ONE_COLUMNS:
        ok = ok and check_growth_bounds(parse_pattern(label), 10).passed
    _report(8, "chain conjecture and 2x/4x growth bounds hold for n <= 10", ok, t0)


def test_criterion_9_number_theory_and_export(tmp_path):
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 10001):
        if sum(totient(d) for d in divisors(n)) != n:
            ok = False
            break
        if sum(mobius(d) for d in divisors(n)) != (1 if n == 1 else 0):
            ok = False
            break
    # two full export runs through the real CLI path must agree byte for byte
    from cycperm.cli import main as cli_main

    paths = [tmp_path / "run1.txt", tmp_path / "run2.txt"]
    for path in paths:
        rc = cli_main(["export", "--seq", "A309563", "--n-max", "100",
                       "--offset", "1", "--out", str(path), "--quiet"])
        ok = ok and rc == 0
    blob1, blob2 = (p.read_bytes() for p in paths)
    ok = ok and blob1 == blob2
    lines = blob1.decode("ascii").splitlines()
    ok = ok and len(lines) == 100 and lines[25] == "26 18"
    ok = ok and blob1.endswith(b"\n") and not blob1.endswith(b"\n\n")
    _report(9, "totient/Möbius divisor identities to n = 10000; A309563 "
               "b-file byte-stable", ok, t0)
