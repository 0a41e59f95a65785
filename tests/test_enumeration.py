"""The brute-force oracle against full enumeration and reference counts."""
import gc
import subprocess
import sys
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_ref import ref_count, ref_is_cyclic, ref_list

from cycperm import _kernels, cli
from cycperm.enumeration import (
    EnumerationRequest,
    count_avoiders,
    count_cyclic_avoiders,
    list_cyclic_avoiders,
    run_enumeration,
)
from cycperm.errors import EmptyInput, TooSmall
from cycperm.formulas import count_123_231
from cycperm.patterns import LENGTH3_PATTERNS, avoids_all, parse_pattern
from cycperm.perm import is_cyclic, make_permutation


def _cyclic(n, labels, **kw):
    req = EnumerationRequest(n=n, patterns=tuple(parse_pattern(l) for l in labels), **kw)
    return count_cyclic_avoiders(req)


def _all(n, labels, **kw):
    req = EnumerationRequest(
        n=n, patterns=tuple(parse_pattern(l) for l in labels), cyclic_only=False, **kw
    )
    return count_avoiders(req)


@pytest.mark.parametrize("labels", [("123",), ("132",), ("321",), ("123", "231"),
                                    ("123", "132"), ("132", "231"), ("4321",), ("3412",)])
def test_counts_match_full_enumeration(labels):
    pats = [parse_pattern(l).entries for l in labels]
    for n in range(1, 8):
        assert _cyclic(n, labels).count == ref_count(n, pats, cyclic_only=True)
        assert _all(n, labels).count == ref_count(n, pats, cyclic_only=False)


def test_reference_table_cells():
    assert _cyclic(8, ("123",)).count == 188
    assert _cyclic(9, ("231",)).count == 253
    assert _cyclic(3, ("123", "231")).count == 1


def test_all_avoider_examples():
    assert _all(6, ("123", "231")).count == 16  # 1 + C(6,2)
    assert _all(1, ("123", "231")).count == 1
    assert _all(5, ("123", "321")).count == 0  # no long enough monotone-free words


def test_avoiding_both_123_231_counts_1_plus_choose2():
    for n in range(1, 11):
        assert _all(n, ("123", "231")).count == 1 + comb(n, 2)


def test_erdos_szekeres_kills_123_321():
    for n in (5, 6):
        assert _all(n, ("123", "321")).count == 0
        assert list_cyclic_avoiders(n, [parse_pattern("123"), parse_pattern("321")]) == []


def test_cyclic_counts_bounded_by_all_counts():
    for n in range(1, 8):
        for q in LENGTH3_PATTERNS:
            lbl = ("".join(map(str, q.entries)),)
            assert _cyclic(n, lbl).count <= _all(n, lbl).count


def test_single_pattern_symmetries():
    # reverse complement swaps 132/213, inversion swaps 231/312
    for n in range(3, 11):
        assert _cyclic(n, ("132",)).count == _cyclic(n, ("213",)).count
        assert _cyclic(n, ("231",)).count == _cyclic(n, ("312",)).count


def test_list_cyclic_avoiders():
    both = [parse_pattern("123"), parse_pattern("231")]
    assert [p.entries for p in list_cyclic_avoiders(3, both)] == [(3, 1, 2)]
    assert [p.entries for p in list_cyclic_avoiders(2, both)] == [(2, 1)]


def test_witnesses_verified_independently_and_ordered():
    for labels in (("123",), ("321",), ("123", "231")):
        qs = [parse_pattern(l) for l in labels]
        for n in range(1, 8):
            got = list_cyclic_avoiders(n, qs)
            assert [p.entries for p in got] == sorted(p.entries for p in got)
            for p in got:
                assert is_cyclic(p) and avoids_all(p, qs)
            ref = ref_list(n, [q.entries for q in qs], cyclic_only=True)
            assert [p.entries for p in got] == ref


def test_a_sink_receives_the_listed_witnesses_as_they_are_found():
    qs = (parse_pattern("1432"),)

    class Sink:  # any object with an append method
        def __init__(self):
            self.seen = []

        def append(self, entries):
            self.seen.append(entries)

    sink = Sink()
    result = run_enumeration(EnumerationRequest(n=7, patterns=qs, collect=True), sink)
    assert result.witnesses is None
    assert sink.seen == [p.entries for p in list_cyclic_avoiders(7, qs)]
    assert result.count == len(sink.seen) > 0
    with pytest.raises(ValueError, match="collect=True"):
        run_enumeration(EnumerationRequest(n=7, patterns=qs), Sink())


def test_witness_count_matches_counting_path():
    qs = [parse_pattern("132")]
    for n in range(1, 9):
        assert len(list_cyclic_avoiders(n, qs)) == _cyclic(n, ("132",)).count


def test_deterministic_across_parallelism():
    for workers in (1, 2, 5):
        res = _cyclic(8, ("123",), parallelism=workers)
        assert res.count == 188
        assert res.nodes_visited == _cyclic(8, ("123",), parallelism=1).nodes_visited


def test_nodes_and_elapsed_populated():
    res = _cyclic(6, ("321",))
    assert res.nodes_visited > res.count > 0
    assert res.elapsed >= 0.0


def test_library_runs_past_the_cli_cap():
    # The cap is the CLI's rule; the oracle itself refuses no n.
    req = EnumerationRequest(n=14, patterns=(parse_pattern("123"), parse_pattern("231")))
    assert count_cyclic_avoiders(req).count == count_123_231(14) == 8


def test_cap_env_override(monkeypatch, capsys):
    # Only the CLI reads CYCPERM_ORACLE_CAP; a library call takes no cap.
    monkeypatch.setenv("CYCPERM_ORACLE_CAP", "5")
    assert _cyclic(6, ("123",)).count == 24
    assert cli.main(["count", "--n", "6", "--avoid", "123"]) == 64
    assert "exceeds the oracle cap 5" in capsys.readouterr().err


def test_request_validation():
    with pytest.raises(TooSmall):
        EnumerationRequest(n=0, patterns=(parse_pattern("123"),))
    with pytest.raises(EmptyInput):
        EnumerationRequest(n=3, patterns=())
    with pytest.raises(TooSmall):
        EnumerationRequest(n=3, patterns=(parse_pattern("123"),), parallelism=0)
    with pytest.raises(ValueError):
        count_avoiders(EnumerationRequest(n=3, patterns=(parse_pattern("123"),)))


def test_short_patterns_are_legal():
    # avoiding the single-entry pattern leaves nothing; avoiding 12 leaves
    # only the decreasing permutation
    assert _all(4, ("1",)).count == 0
    assert _all(4, ("12",)).count == 1
    assert _cyclic(2, ("12",)).count == 1
    assert _cyclic(4, ("12",)).count == 0


_PATTERN = st.integers(1, 5).flatmap(lambda k: st.permutations(range(1, k + 1)))


@settings(max_examples=200, deadline=None)
@given(pats=st.lists(_PATTERN, min_size=1, max_size=3), n=st.integers(1, 7))
def test_search_matches_full_enumeration(pats, n):
    pats = [tuple(p) for p in pats]
    qs = tuple(make_permutation(p) for p in pats)
    every = ref_list(n, pats, cyclic_only=False)
    cyclic = [p for p in every if ref_is_cyclic(p)]
    assert [p.entries for p in list_cyclic_avoiders(n, qs)] == cyclic
    for cyclic_only, want in ((True, len(cyclic)), (False, len(every))):
        results = [
            run_enumeration(EnumerationRequest(
                n=n, patterns=qs, cyclic_only=cyclic_only, parallelism=workers))
            for workers in (1, 2, 5)
        ]
        for r in results:
            assert (r.count, r.nodes_visited) == (want, results[0].nodes_visited)


def test_import_leaves_numpy_out():
    # ... and every cycperm submodule: the package resolves its names lazily.
    code = ("import sys, cycperm; print([m for m in sys.modules if m.startswith('cycperm.')"
            " or m in ('numpy', 'concurrent.futures')])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_search_leaves_no_reference_cycles():
    # State that only the cyclic collector frees would make every oracle
    # call pay for collections later.
    gc.collect()
    gc.disable()
    try:
        _kernels._count_from_root(7, [(1, 2, 3), (2, 3, 1)], True, [])
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_one_kernel_call_per_request(monkeypatch):
    # so a trace's kernel.calls counts oracle requests
    calls = []
    real = _kernels._count_from_root

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(_kernels, "_count_from_root", counting)
    for n in (1, 5, 8):
        for collect in (False, True):
            req = EnumerationRequest(n=n, patterns=(parse_pattern("123"), parse_pattern("231")),
                                     collect=collect)
            before = len(calls)
            run_enumeration(req)
            assert len(calls) == before + 1


def test_node_totals_of_the_table_one_and_pair_sweeps():
    from cycperm.formulas import PairFormulaId

    table_one = [(n, (label,)) for n in range(3, 9) for label in
                 ("123", "132", "213", "231", "312", "321")]
    pairs = [(n, tuple(pair.value.split(","))) for n in range(3, 10) for pair in PairFormulaId]
    assert (len(table_one), len(pairs)) == (36, 49)
    assert sum(_cyclic(n, labels).nodes_visited for n, labels in table_one) == 8836
    assert sum(_cyclic(n, labels).nodes_visited for n, labels in pairs) == 3070
