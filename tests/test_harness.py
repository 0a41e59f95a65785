"""Conjecture checks, the insertion construction, and table reproduction."""
import itertools
import json
import os
from types import SimpleNamespace

import pytest

from cycperm import harness
from cycperm.errors import LimitExceeded, PreconditionViolated, TooSmall
from cycperm.formulas import PairFormulaId
from cycperm.harness import (
    INSERTION_PATTERNS,
    TABLE_ONE,
    TABLE_ONE_COLUMNS,
    check_chain_conjecture,
    check_formula_vs_oracle,
    check_growth_bounds,
    check_insertion_theorem,
    check_k_minus_one_question,
    check_table_one,
    check_triple_formula,
    insertion_construction,
    reproduce_table_one,
)
from cycperm.patterns import avoids_all, parse_pattern, pattern_label
from cycperm.perm import is_cyclic, make_permutation

EXTENDED = os.environ.get("CYCPERM_EXTENDED", "") == "1"


def test_reproduce_table_one_matches_golden():
    table = reproduce_table_one(8)
    for n in range(3, 9):
        for label, expected in zip(TABLE_ONE_COLUMNS, TABLE_ONE[n]):
            cell = table.get(n, label)
            assert cell.count == expected
            assert cell.provenance == "oracle"


def test_check_table_one():
    rep = check_table_one(8)
    assert rep.passed and rep.kind == "theorem"
    assert rep.ns == tuple(range(3, 9))
    with pytest.raises(LimitExceeded):
        check_table_one(13)  # no reference values that far


def test_chain_conjecture():
    rep = check_chain_conjecture(8)
    assert rep.passed and rep.kind == "evidence"
    assert not rep.counterexamples


def test_growth_bounds():
    rep = check_growth_bounds(parse_pattern("321"), 8)
    assert rep.passed
    assert rep.ns == tuple(range(3, 8))
    with pytest.raises(PreconditionViolated):
        check_growth_bounds(parse_pattern("4321"), 8)


def test_formula_vs_oracle_all_pairs():
    rep = check_formula_vs_oracle(None, n_max=8)
    assert rep.passed and rep.kind == "theorem"
    rep_single = check_formula_vs_oracle([PairFormulaId.P123_231], n_max=9)
    assert rep_single.passed


def test_formula_vs_oracle_at_large_n_on_the_gated_pairs():
    # the pair lookahead keeps these searches to a few thousand nodes
    rep = check_formula_vs_oracle([PairFormulaId.P123_231], n_max=26)
    assert rep.passed and rep.ns == tuple(range(3, 27))
    rep = check_formula_vs_oracle([PairFormulaId.P123_132], n_max=22)
    assert rep.passed and rep.ns == tuple(range(3, 23))


def test_each_label_is_parsed_once_and_the_memo_ignores_order(monkeypatch):
    parsed, searched = [], []
    real_parse, real_search = harness.parse_pattern, harness.run_enumeration

    def parse(text):
        parsed.append(text)
        return real_parse(text)

    def search(req, sink=None):
        searched.append(req)
        return real_search(req, sink)

    monkeypatch.setattr(harness, "parse_pattern", parse)
    monkeypatch.setattr(harness, "run_enumeration", search)
    monkeypatch.setattr(harness, "_COUNT_CACHE", {})
    harness._patterns_of.cache_clear()
    assert check_formula_vs_oracle([PairFormulaId.P123_231], n_max=9).passed
    assert check_chain_conjecture(6).passed and check_table_one(6).passed
    assert sorted(parsed) == sorted(["123", "231", *TABLE_ONE_COLUMNS])
    assert len(searched) == 7 + 6 * 4  # check_table_one reuses the chain's counts
    # the memo is keyed by the set of patterns, whatever their order or repeats
    q, r = parse_pattern("123"), parse_pattern("231")
    assert harness.cyclic_count([r, q, r], 10) == harness.cyclic_count([q, r], 10)
    assert len(searched) == 7 + 6 * 4 + 1


def test_triple_formula_claim():
    rep = check_triple_formula(n_max=40)
    assert rep.passed and rep.kind == "theorem"


def test_triple_formula_counterexample_text(monkeypatch):
    # (2, 1, 2) is good; a formula that says otherwise fails n = 5 alone.
    real = harness.classify_triple_formula

    def wrong_once(t):
        good = real(t).good
        return SimpleNamespace(good=not good if (t.a, t.b, t.c) == (2, 1, 2) else good)

    monkeypatch.setattr(harness, "classify_triple_formula", wrong_once)
    rep = check_triple_formula(n_max=6)
    assert rep.status == {3: True, 4: True, 5: False, 6: True}
    assert rep.counterexamples == [
        (5, "triple (2, 1, 2): formula says False, cycle trace says True")]


def test_triple_formula_checks_the_closed_form(monkeypatch):
    # the good triples are counted by the cycle trace, so only n = 7 fails
    real = harness.count_123_231
    monkeypatch.setattr(harness, "count_123_231", lambda n: real(n) + (n == 7))
    rep = check_triple_formula(n_max=10)
    assert [n for n, ok in rep.status.items() if not ok] == [7]
    assert rep.counterexamples == [(7, "2 good triples, count_123_231(7) = 3")]


def test_insertion_construction_examples():
    assert insertion_construction(
        make_permutation([3, 1, 2]), parse_pattern("321")
    ) == make_permutation([3, 1, 4, 2])
    assert insertion_construction(
        make_permutation([2, 3, 1]), parse_pattern("321")
    ) == make_permutation([2, 3, 4, 1])
    with pytest.raises(PreconditionViolated):
        insertion_construction(make_permutation([3, 2, 1]), parse_pattern("321"))
    with pytest.raises(PreconditionViolated):
        insertion_construction(make_permutation([3, 1, 2]), parse_pattern("123"))
    with pytest.raises(PreconditionViolated):  # 2341 is a 4-cycle, not an involution
        insertion_construction(make_permutation([2, 3, 4, 1]), parse_pattern("2341"))


def test_insertion_output_is_cyclic_avoider():
    q = parse_pattern("321")
    from cycperm.enumeration import list_cyclic_avoiders

    for n in range(3, 8):
        for p in list_cyclic_avoiders(n, [q]):
            built = insertion_construction(p, q)
            assert len(built) == n + 1
            assert built.entries[n - 1] == n + 1  # new entry sits next-to-last
            assert is_cyclic(built)
            assert avoids_all(built, [q])


@pytest.mark.parametrize("label", INSERTION_PATTERNS)
def test_insertion_theorem_small(label):
    rep = check_insertion_theorem(parse_pattern(label), 7)
    assert rep.passed, rep.counterexamples
    assert rep.ns == tuple(range(3, 7))
    assert rep.notes  # records the n = 2 caveat instead of asserting it


def _insertion_family(k):
    """The patterns of length k that the insertion theorem covers, in
    lexicographic order, generated from its hypothesis."""
    return [q for q in map(make_permutation, itertools.permutations(range(1, k + 1)))
            if harness._insertion_hypothesis_failure(q) is None]


def test_insertion_family_sizes():
    assert [len(_insertion_family(k)) for k in range(3, 7)] == [1, 4, 12, 40]
    assert {pattern_label(q) for k in (3, 4) for q in _insertion_family(k)} == set(
        INSERTION_PATTERNS
    )
    assert [pattern_label(q) for q in _insertion_family(5)] == [
        "12543", "14523", "15342", "15432", "21543", "35142",
        "42513", "45312", "52341", "52431", "53241", "54321",
    ]


@pytest.mark.parametrize("q", _insertion_family(5), ids=pattern_label)
def test_insertion_theorem_length_five_family(q):
    rep = check_insertion_theorem(q, 8)
    assert rep.passed, rep.counterexamples
    assert rep.ns == tuple(range(3, 8))


def test_insertion_theorem_length_six_family():
    failed = {}
    for q in _insertion_family(6):
        rep = check_insertion_theorem(q, 8)
        if not rep.passed or rep.ns != tuple(range(3, 8)):
            failed[pattern_label(q)] = rep.counterexamples
    assert not failed


@pytest.mark.skipif(not EXTENDED, reason="extended range gated behind CYCPERM_EXTENDED=1")
def test_insertion_theorem_length_five_family_to_n_max_10():
    # about 3 s per pattern
    failed = {}
    for q in _insertion_family(5):
        rep = check_insertion_theorem(q, 10)
        if not rep.passed or rep.ns != tuple(range(3, 10)):
            failed[pattern_label(q)] = rep.counterexamples
    assert not failed


def test_the_insertion_hypothesis_is_checked_once_per_claim(monkeypatch):
    calls = []
    real = harness._insertion_hypothesis_failure

    def counting(q):
        calls.append(q)
        return real(q)

    monkeypatch.setattr(harness, "_insertion_hypothesis_failure", counting)
    q = parse_pattern("1432")
    rep = check_insertion_theorem(q, 8)
    assert rep.passed
    assert calls == [q]  # not once more per witness
    with pytest.raises(PreconditionViolated):
        check_insertion_theorem(parse_pattern("123"), 8)
    assert calls == [q, parse_pattern("123")]


@pytest.mark.parametrize("label, n, bad", [
    ("321", 4, (4, 3, 1, 2)),
    ("1432", 5, (2, 5, 4, 1, 3)),
])
def test_a_cyclic_oracle_witness_that_contains_q_is_rejected(monkeypatch, label, n, bad):
    # bad is an n-cycle that contains q, slipped into its place among the
    # streamed witnesses at n, so only the avoidance check can catch it
    real = harness.run_enumeration

    def with_bad(req, sink=None):
        if sink is None or req.n != n:
            return real(req, sink)
        found = []
        result = real(req, found)
        for entries in sorted(found + [bad]):
            sink.append(entries)
        return result

    monkeypatch.setattr(harness, "run_enumeration", with_bad)
    assert is_cyclic(make_permutation(bad))
    rep = check_insertion_theorem(parse_pattern(label), n + 2)
    assert [m for m, ok in rep.status.items() if not ok] == [n]
    assert rep.counterexamples == [
        (n, f"oracle witness rejected: permutation {' '.join(map(str, bad))} contains {label}")]


def test_insertion_check_keeps_no_set_of_images(monkeypatch):
    # 200 KiB sits between this check (about 130 KiB) and one that holds the
    # images and their inverses in sets (about 440 KiB)
    import tracemalloc

    monkeypatch.setattr(harness, "_COUNT_CACHE", {})
    tracemalloc.start()
    try:
        rep = check_insertion_theorem(parse_pattern("321"), 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak < 200 * 1024


def test_insertion_check_searches_once_per_n(monkeypatch):
    # one streamed search per n = 3..7, whose witness count is also C_n for
    # the growth check at n - 1, and one count search for C_8
    from cycperm import _kernels

    calls = []
    real = _kernels._count_from_root

    def counting(n, patterns, cyclic_only, sink=None):
        calls.append((n, sink is not None))
        return real(n, patterns, cyclic_only, sink)

    monkeypatch.setattr(_kernels, "_count_from_root", counting)
    monkeypatch.setattr(harness, "_COUNT_CACHE", {})
    rep = check_insertion_theorem(parse_pattern("1432"), 8)
    assert rep.passed
    assert calls == [(3, True), (4, True), (5, True), (6, True), (7, True), (8, False)]


def test_insertion_check_keeps_no_list_of_witnesses(monkeypatch):
    # 512 KiB sits between this check (about 16 KiB) and one that lists the
    # 11,444 witnesses at n = 9 before checking them (about 2,270 KiB)
    import tracemalloc

    monkeypatch.setattr(harness, "_COUNT_CACHE", {})
    tracemalloc.start()
    try:
        rep = check_insertion_theorem(parse_pattern("1432"), 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak < 512 * 1024


def test_k_minus_one_question():
    rep = check_k_minus_one_question(parse_pattern("123"), 8)
    assert rep.passed and rep.kind == "evidence"
    assert rep.ns == tuple(range(3, 8))
    rep4 = check_k_minus_one_question(parse_pattern("1234"), 6)
    assert rep4.ns == tuple(range(4, 6))
    with pytest.raises(PreconditionViolated):
        check_k_minus_one_question(parse_pattern("21"), 8)


def test_checks_run_past_the_cli_cap():
    rep = check_formula_vs_oracle([PairFormulaId.P123_231], n_max=16, n_min=14)
    assert rep.passed and rep.ns == (14, 15, 16)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: check_table_one(2), id="table1"),
    pytest.param(lambda: check_formula_vs_oracle(n_max=2), id="formula-vs-oracle"),
    pytest.param(lambda: check_triple_formula(2), id="triple-formula"),
    pytest.param(lambda: check_chain_conjecture(2), id="chain"),
    pytest.param(lambda: check_growth_bounds(parse_pattern("123"), 3), id="growth"),
    pytest.param(lambda: check_insertion_theorem(parse_pattern("4231"), 3), id="insertion"),
    pytest.param(lambda: check_k_minus_one_question(parse_pattern("1234"), 4),
                 id="k-minus-one"),
])
def test_a_check_over_an_empty_range_is_refused(call):
    with pytest.raises(TooSmall, match="the requested range holds no n to check"):
        call()


def test_report_serialization():
    rep = check_growth_bounds(parse_pattern("123"), 6)
    payload = rep.to_json_dict()
    assert payload["claim"] == "GrowthBounds"
    assert payload["kind"] == "evidence"
    assert payload["passed"] is True
    assert payload["range"] == [3, 4, 5]
    json.dumps(payload)  # JSON-clean
    assert "GrowthBounds: pass" in rep.to_text()


def test_failing_report_shape():
    # feed the checker a wrong reference by monkeypatching a tiny table
    import cycperm.harness as hmod

    original = hmod.TABLE_ONE
    hmod.TABLE_ONE = {**original, 3: (99, 2, 2, 1, 1, 2)}
    try:
        rep = check_table_one(3)
    finally:
        hmod.TABLE_ONE = original
    assert not rep.passed
    assert rep.counterexamples and rep.counterexamples[0][0] == 3
    assert rep.status[3] is False
