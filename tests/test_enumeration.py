"""The brute-force oracle against full enumeration and reference counts."""
import gc
import subprocess
import sys
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_ref import ref_count, ref_is_cyclic, ref_list

from cycperm import _kernels
from cycperm.enumeration import (
    EnumerationRequest,
    count_avoiders,
    count_cyclic_avoiders,
    list_cyclic_avoiders,
    run_enumeration,
)
from cycperm.errors import EmptyInput, LimitExceeded, TooSmall
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


def test_cap_enforced():
    with pytest.raises(LimitExceeded):
        _cyclic(99, ("123",))
    with pytest.raises(LimitExceeded):
        count_cyclic_avoiders(
            EnumerationRequest(n=7, patterns=(parse_pattern("123"),)), cap=6
        )
    # explicit cap also relaxes
    assert count_cyclic_avoiders(
        EnumerationRequest(n=4, patterns=(parse_pattern("123"),)), cap=4
    ).count == 4


def test_cap_env_override(monkeypatch):
    monkeypatch.setenv("CYCPERM_ORACLE_CAP", "5")
    with pytest.raises(LimitExceeded):
        _cyclic(6, ("123",))
    assert _cyclic(5, ("123",)).count == 10


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
    code = ("import sys, cycperm; "
            "print([m for m in ('numpy', 'concurrent.futures') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_search_leaves_no_reference_cycles():
    # Each oracle call searches n subtrees; state that only the cyclic
    # collector frees would make every call pay for collections later.
    plans = _kernels.compile_patterns([(1, 2, 3), (2, 3, 1)])
    gc.collect()
    gc.disable()
    try:
        _kernels._count_from_root(7, 1, plans, True, [])
        assert gc.collect() == 0
    finally:
        gc.enable()
