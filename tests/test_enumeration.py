"""The brute-force oracle against full enumeration and reference counts."""
import gc
import subprocess
import sys
from itertools import combinations, permutations
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle_ref import (
    ref_avoids,
    ref_count,
    ref_inverse,
    ref_is_cyclic,
    ref_list,
    ref_reverse_complement,
)

from cycperm import _kernels, cli
from cycperm.enumeration import (
    EnumerationRequest,
    count_avoiders,
    count_cyclic_avoiders,
    list_cyclic_avoiders,
    run_enumeration,
)
from cycperm.errors import EmptyInput, TooSmall, UsageError
from cycperm.formulas import count_123_231
from cycperm.patterns import avoids_all, parse_pattern
from cycperm.perm import is_cyclic, make_permutation


def _cyclic(n, labels, **kw):
    req = EnumerationRequest(n=n, patterns=tuple(parse_pattern(l) for l in labels), **kw)
    return count_cyclic_avoiders(req)


def _entries(labels):
    return [tuple(map(int, label)) for label in labels]


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
        for q in permutations((1, 2, 3)):
            lbl = ("".join(map(str, q)),)
            assert _cyclic(n, lbl).count <= _all(n, lbl).count


def test_single_pattern_symmetries():
    # reverse complement swaps 132/213, inversion swaps 231/312
    for n in range(3, 11):
        assert _cyclic(n, ("132",)).count == _cyclic(n, ("213",)).count
        assert _cyclic(n, ("231",)).count == _cyclic(n, ("312",)).count


def _skew_sum_of_runs(parts):
    """The skew sum of increasing runs of consecutive values, highest run
    first: (1, 2) gives 3 1 2."""
    top, word = sum(parts), []
    for size in parts:
        word.extend(range(top - size + 1, top + 1))
        top -= size
    return word


def test_open_pair_132_213_matches_the_composition_route():
    # The avoiders of 132 and 213 are the skew sums of increasing runs, one
    # per composition of n. No formula for their cyclic count is known.
    pinned = [2, 4, 6, 12, 14, 32, 30, 76, 62, 170, 122, 370]
    for n, want in zip(range(3, 15), pinned):
        route = 0
        for cuts in (c for k in range(n) for c in combinations(range(1, n), k)):
            parts = [b - a for a, b in zip((0, *cuts), (*cuts, n))]
            route += ref_is_cyclic(_skew_sum_of_runs(parts))
        assert _cyclic(n, ("132", "213")).count == route == want, n


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
    class Sink:  # any object with an append method
        def __init__(self):
            self.seen = []

        def append(self, entries):
            self.seen.append(entries)

    # a walked pattern, a pair the lookahead tests, and pairs searched
    # through an image
    for labels in (("1432",), ("123", "132"), ("123", "231"), ("213", "321")):
        qs = tuple(parse_pattern(l) for l in labels)
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
    with pytest.raises(UsageError, match="a witness sink requires a request with collect=True"):
        run_enumeration(EnumerationRequest(n=3, patterns=(parse_pattern("123"),)), [])


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
# sets where the length-3 mask and the per-candidate walk run in one search
@example(pats=[[1, 2, 3], [1, 4, 3, 2]], n=7)
@example(pats=[[1, 3, 2], [2, 1, 3], [4, 2, 3, 1]], n=7)
@example(pats=[[2, 1], [2, 3, 1]], n=7)
# a set where the pair lookahead runs, and sets searched through an image
# beside the walk
@example(pats=[[1, 2, 3], [1, 3, 2]], n=7)
@example(pats=[[1, 2, 3], [2, 3, 1], [1, 4, 3, 2]], n=7)
@example(pats=[[3, 1, 2], [3, 2, 1], [2, 1, 4, 3]], n=7)
# the walk's innermost slot, settled in the loop over the slot before it, with
# the interval it forbids bounded by the innermost slot (4231), by the new
# value (4321) or by the loop's own slot (3412); below one recursive level
# (52341); and a length-2 plan beside a length-4 one
@example(pats=[[4, 2, 3, 1]], n=7)
@example(pats=[[4, 3, 2, 1]], n=7)
@example(pats=[[3, 4, 1, 2]], n=7)
@example(pats=[[5, 2, 3, 4, 1]], n=7)
@example(pats=[[1, 2], [4, 3, 2, 1]], n=7)
# mixed sets, where the guarded walk loop and the extremes each node inherits
# from its parent run in one search, and the first placement or an unused
# extreme is often the placed value
@example(pats=[[1, 2, 3], [4, 3, 2, 1]], n=7)
@example(pats=[[3, 2, 1], [1, 2]], n=7)
@example(pats=[[2, 3, 1], [1, 4, 3, 2]], n=7)
# a walk skipped when no unused value lies on the side of the new value that
# the plan forbids: below it (1243, 13254) or above it (2134, 21534); and the
# slotless length-2 plans, decided by that side test alone, beside a walked
# plan and beside a masked one
@example(pats=[[1, 2, 4, 3]], n=7)
@example(pats=[[2, 1, 3, 4]], n=7)
@example(pats=[[1, 3, 2, 5, 4]], n=7)
@example(pats=[[2, 1, 5, 3, 4]], n=7)
@example(pats=[[1, 2, 4, 3], [1, 2]], n=7)
@example(pats=[[1, 3, 2], [1, 2]], n=7)
@example(pats=[[2, 1, 3, 4], [2, 1]], n=7)
@example(pats=[[3, 1, 2], [2, 1]], n=7)
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


def _images(pats):
    """The four symmetric images Q, Q^-1, rc(Q) and rc(Q^-1) of a set."""
    inverse = [ref_inverse(q) for q in pats]
    return (list(pats), inverse, [ref_reverse_complement(q) for q in pats],
            [ref_reverse_complement(q) for q in inverse])


@settings(max_examples=100, deadline=None)
@given(pats=st.lists(st.integers(2, 5).flatmap(lambda k: st.permutations(range(1, k + 1))),
                     min_size=1, max_size=3),
       n=st.integers(1, 8))
# an image that turns the pair lookahead on, beside one that turns it off
@example(pats=[[1, 3, 2], [2, 3, 1]], n=8)
@example(pats=[[1, 2, 3], [2, 3, 1]], n=8)
@example(pats=[[1, 3, 2], [2, 3, 1], [3, 2, 1]], n=8)
# a walked pattern beside the masked ones
@example(pats=[[1, 3, 2], [2, 3, 1], [4, 3, 2, 1]], n=8)
@example(pats=[[2, 1], [3, 4, 1, 2]], n=8)
def test_the_four_symmetric_images_have_equal_counts(pats, n):
    # The inverse and the reverse-complement map n-cycles to n-cycles, and p
    # avoids q exactly when p^-1 avoids q^-1 and rc(p) avoids rc(q). The
    # images are built here, not by the rule that picks one to search.
    images = _images([tuple(q) for q in pats])
    for cyclic_only in (True, False):
        counts = [_kernels._count_from_root(n, qs, cyclic_only)[0] for qs in images]
        assert counts == [counts[0]] * 4, (images, cyclic_only)


# One set per combination of an ascending-ending and a descending-ending
# length-3 pattern: the two the pair lookahead tests (LL, MM), the four that
# fire but are not tested (LM, LH, MH, HH), then the three that never fire
# (ML, HL, HM). The tests below take these from the pattern pairs, never
# from the kernel's flags or its rule.
_COMBINATIONS = [((1, 2, 3), (1, 3, 2)), ((1, 2, 3), (2, 3, 1)), ((1, 2, 3), (3, 2, 1)),
                 ((2, 1, 3), (2, 3, 1)), ((2, 1, 3), (3, 2, 1)), ((3, 1, 2), (3, 2, 1)),
                 ((1, 3, 2), (2, 1, 3)), ((1, 3, 2), (3, 1, 2)), ((2, 3, 1), (3, 1, 2))]
_TESTED = [_COMBINATIONS[0], _COMBINATIONS[3]]
_UNTESTED = [_COMBINATIONS[1], _COMBINATIONS[2], _COMBINATIONS[4], _COMBINATIONS[5]]


def _meets(qs, combinations):
    """How many of the combinations the set's patterns meet."""
    return sum(a in qs and b in qs for a, b in combinations)


@pytest.mark.parametrize("gated, ungated, n, count", [
    # Every class of length-3 sets in which one image meets a combination
    # that fires and another meets none. For LL and MM, the search with the
    # lookahead against the search without it, at an n the reference
    # enumeration cannot reach. LM, MH and HH are not tested, and a set that
    # meets one of them takes about 2^(n-1) nodes as given ((312, 321) takes
    # 524,288 at n = 20), so those pairs are checked at n = 19, the largest n
    # at which both searches finish in about 0.5 s.
    (("123", "132"), ("123", "213"), 22, 1024),
    (("123", "231"), ("123", "312"), 19, 4),
    (("213", "231"), ("132", "231"), 16, 2048),
    (("213", "321"), ("132", "321"), 19, 18),
    (("312", "321"), ("231", "321"), 19, 1),
    (("123", "132", "231"), ("123", "213", "312"), 40, 1),
    (("132", "213", "231"), ("132", "213", "312"), 40, 2),
    (("213", "231", "312"), ("132", "231", "312"), 40, 0),
    (("213", "231", "321"), ("132", "231", "321"), 40, 1),
])
def test_a_gated_set_and_its_ungated_image_agree_at_large_n(gated, ungated, n, count):
    firing = _TESTED + _UNTESTED
    assert _meets(_entries(gated), firing) and not _meets(_entries(ungated), firing)
    assert _entries(ungated) in _images(_entries(gated))
    assert _kernels._count_from_root(n, _entries(gated), True)[0] == count
    assert _kernels._count_from_root(n, _entries(ungated), True)[0] == count


_LENGTH3_SETS = [qs for r in (1, 2, 3)
                 for qs in combinations(permutations((1, 2, 3)), r)]


def test_every_set_of_length3_patterns_matches_full_enumeration():
    # Length-3 patterns are refused by a per-node mask, not matched per
    # candidate, and the hypothesis test seldom draws a set of them alone.
    assert len(_LENGTH3_SETS) == 41
    for qs in _LENGTH3_SETS:
        pats = tuple(make_permutation(q) for q in qs)
        for n in range(1, 7):
            every = ref_list(n, qs, cyclic_only=False)
            for cyclic_only in (True, False):
                want = [p for p in every if ref_is_cyclic(p)] if cyclic_only else every
                got = run_enumeration(EnumerationRequest(
                    n=n, patterns=pats, cyclic_only=cyclic_only, collect=True)).witnesses
                assert [p.entries for p in got] == want, (qs, n, cyclic_only)


def test_a_listing_through_an_image_matches_the_search_of_the_set_as_given():
    # A request searches an image of its set, maps the image's witnesses back
    # and sorts them; the kernel called directly on the set as given is the
    # reference, so the reference never goes through the rule.
    sets = [*_LENGTH3_SETS, ((1, 2, 3), (2, 3, 1), (1, 4, 3, 2)),
            ((2, 1, 3), (3, 2, 1), (4, 3, 2, 1)), ((1, 2), (2, 3, 1))]
    for qs in sets:
        pats = tuple(make_permutation(q) for q in qs)
        for n in range(1, 11):
            for cyclic_only in (True, False):
                want = []
                _kernels._count_from_root(n, qs, cyclic_only, want)
                req = EnumerationRequest(n=n, patterns=pats, cyclic_only=cyclic_only,
                                         collect=True)
                listed = run_enumeration(req).witnesses
                assert [p.entries for p in listed] == want, (qs, n, cyclic_only)
                sink = []
                assert run_enumeration(req, sink).witnesses is None
                assert sink == want, (qs, n, cyclic_only)


def test_a_set_that_is_its_own_image_streams_to_the_callers_sink(monkeypatch):
    sinks = []
    real = _kernels._count_from_root

    def recording(n, patterns, cyclic_only, sink=None):
        sinks.append(sink)
        return real(n, patterns, cyclic_only, sink)

    monkeypatch.setattr(_kernels, "_count_from_root", recording)
    for labels, streams in ((("123",), True), (("1432",), True), (("123", "132"), True),
                            (("123", "231"), False)):
        sink = []
        req = EnumerationRequest(n=7, patterns=tuple(parse_pattern(l) for l in labels),
                                 collect=True)
        run_enumeration(req, sink)
        assert (sinks[-1] is sink) == streams, labels
        assert sink == [p.entries for p in list_cyclic_avoiders(7, req.patterns)]


@pytest.mark.parametrize("cyclic_only, count, nodes", [(True, 2906, 21958),
                                                       (False, 32116, 115706)])
def test_totals_over_the_length3_sets_at_n9(cyclic_only, count, nodes):
    # A cached count names the kernel by KERNEL_VERSION, so any change to
    # these pins bumps it.
    assert _kernels.KERNEL_VERSION == 3
    found = [_kernels._count_from_root(9, qs, cyclic_only) for qs in _LENGTH3_SETS]
    assert sum(c for c, _ in found) == count
    assert sum(v for _, v in found) == nodes
    # A request searches its set's most gated image instead.
    results = [run_enumeration(EnumerationRequest(
        n=9, patterns=tuple(make_permutation(q) for q in qs), cyclic_only=cyclic_only))
        for qs in _LENGTH3_SETS]
    assert sum(r.count for r in results) == count
    assert sum(r.nodes_visited for r in results) == (20086 if cyclic_only else 111822)


def test_count_only_requests_search_the_most_gated_image():
    # Every request, counting or listing, searches the first of the four
    # images with the most tested combinations less the untested ones, so
    # the set itself on a tie.
    def gain(qs):
        return _meets(qs, _TESTED) - _meets(qs, _UNTESTED)

    for qs in _LENGTH3_SETS:
        picked, back = _kernels._most_gated_image(qs)
        assert list(picked) == max(_images(qs), key=gain)
        assert (back is None) == (picked == qs)
        for cyclic_only in (True, False):
            want = _kernels._count_from_root(8, picked, cyclic_only)
            for collect in (False, True):
                res = run_enumeration(EnumerationRequest(
                    n=8, patterns=tuple(make_permutation(q) for q in qs),
                    cyclic_only=cyclic_only, collect=collect))
                assert (res.count, res.nodes_visited) == want
    for qs, image in [
        (((1, 2, 3), (2, 3, 1)), ((1, 2, 3), (3, 1, 2))),
        (((2, 1, 3), (3, 2, 1)), ((1, 3, 2), (3, 2, 1))),
        (((3, 1, 2), (3, 2, 1)), ((2, 3, 1), (3, 2, 1))),
        (((1, 2, 3), (1, 3, 2)), ((1, 2, 3), (1, 3, 2))),
        (((1, 3, 2), (2, 3, 1)), ((2, 1, 3), (2, 3, 1))),
    ]:
        assert _kernels._most_gated_image(qs)[0] == image


@pytest.mark.parametrize("pats", _COMBINATIONS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_the_pair_lookahead_refuses_exactly_the_dead_placements(pats, data):
    # From a prefix that forbids no unused value, the mask of LL and MM holds
    # a candidate v exactly when some unused a < b make both prefix+v+(a, b)
    # and prefix+v+(b, a) contain a pattern; the other seven have no mask.
    n = data.draw(st.integers(3, 8), label="n")
    prefix, free = [], set(range(1, n + 1))

    def fits(v):  # placing v forbids no unused value: the length-3 mask leaves v
        return all(ref_avoids([*prefix, v, a], pats) for a in free - {v})

    for _ in range(data.draw(st.integers(0, n - 1), label="length")):
        choices = [v for v in sorted(free) if fits(v)]
        if not choices:  # a dead end, such as the lookahead refuses
            break
        v = data.draw(st.sampled_from(choices), label="v")
        prefix.append(v)
        free.discard(v)
    gates = _kernels._compile_patterns(pats)[2]
    assert any(gates) == (pats in _TESTED)
    mask = _kernels._doomed(sum(1 << f for f in free), min(prefix, default=n + 1),
                            min(free), max(free), *gates, _kernels._spans(n))
    if pats not in _TESTED:  # the search leaves LM, LH, MH and HH to the image
        assert mask == 0
        return
    for v in sorted(free):
        if not fits(v):
            continue
        dead = any(not ref_avoids([*prefix, v, a, b], pats)
                   and not ref_avoids([*prefix, v, b, a], pats)
                   for a, b in combinations(sorted(free - {v}), 2))
        assert bool(mask >> v & 1) == dead, (prefix, v)


@pytest.mark.parametrize("pats, cyclic, every", [
    (_COMBINATIONS[0], (32, 286), (2048, 6142)),  # LL
    (_COMBINATIONS[1], (2, 2078), (67, 4381)),  # LM, not tested
    (_COMBINATIONS[2], (0, 49), (0, 54)),  # LH, not tested
    (_COMBINATIONS[3], (170, 846), (2048, 6142)),  # MM
    (_COMBINATIONS[4], (4, 2089), (67, 4381)),  # MH, not tested
    (_COMBINATIONS[5], (1, 2048), (2048, 15359)),  # HH, not tested
])
def test_count_and_nodes_of_each_lookahead_combination_at_n12(pats, cyclic, every):
    # A cached count names the kernel by KERNEL_VERSION, so any change to
    # these pins bumps it.
    assert _kernels.KERNEL_VERSION == 3
    assert _kernels._count_from_root(12, pats, True) == cyclic
    assert _kernels._count_from_root(12, pats, False) == every


@pytest.mark.parametrize("labels, n, count, nodes", [
    (("4321",), 9, 8686, 40869),
    (("4231",), 9, 10512, 47193),
    (("3412",), 9, 7068, 34011),
    (("1432",), 9, 11444, 50761),
    (("2143",), 9, 11240, 49585),
    (("52341",), 9, 29914, 117592),
    (("123", "1432"), 10, 374, 4837),
])
def test_count_and_nodes_of_walked_searches(labels, n, count, nodes):
    # A cached count names the kernel by KERNEL_VERSION, so any change to
    # these pins bumps it; a cheaper walk keeps them.
    assert _kernels.KERNEL_VERSION == 3
    assert _kernels._count_from_root(n, _entries(labels), True) == (count, nodes)


@pytest.mark.parametrize("label, cyclic, every", [
    ("1234", (2312, 9929), (15767, 46254)),
    ("1243", (2256, 9619), (15767, 46254)),
    ("1324", (2508, 10566), (15793, 46311)),
    ("1342", (1955, 8603), (15485, 45594)),
    ("1423", (1955, 8831), (15485, 45594)),
    ("1432", (2174, 9314), (15767, 46254)),
    ("2134", (2256, 9690), (15767, 46254)),
    ("2143", (2128, 9096), (15767, 46254)),
    ("2314", (1955, 8356), (15485, 45594)),
    ("2341", (1674, 7354), (15767, 46254)),
    ("2413", (1556, 7084), (15485, 45594)),
    ("2431", (1886, 8174), (15485, 45594)),
    ("3124", (1955, 8637), (15485, 45594)),
    ("3142", (1556, 7169), (15485, 45594)),
    ("3214", (2174, 9329), (15767, 46254)),
    ("3241", (1886, 8282), (15485, 45594)),
    ("3412", (1458, 6759), (15767, 46254)),
    ("3421", (1350, 6562), (15767, 46254)),
    ("4123", (1674, 7778), (15767, 46254)),
    ("4132", (1886, 8352), (15485, 45594)),
    ("4213", (1886, 8473), (15485, 45594)),
    ("4231", (2012, 8758), (15793, 46311)),
    ("4312", (1350, 6345), (15767, 46254)),
    ("4321", (1718, 7807), (15767, 46254)),
])
def test_count_and_nodes_of_every_length4_pattern_at_n8(label, cyclic, every):
    # A cached count names the kernel by KERNEL_VERSION, so any change to
    # these pins bumps it; skipping a walk that cannot refuse keeps them.
    assert _kernels.KERNEL_VERSION == 3
    assert _kernels._count_from_root(8, _entries([label]), True) == cyclic
    assert _kernels._count_from_root(8, _entries([label]), False) == every


@pytest.mark.parametrize("n", [1, 2])
def test_the_shortest_searches_match_full_enumeration(n):
    for pats in (*_COMBINATIONS[:6], [(1, 2, 3)], [(2, 1)], [(1, 2), (2, 3, 1)],
                 [(1, 4, 3, 2)], [(1,)]):
        qs = tuple(make_permutation(p) for p in pats)
        for cyclic_only in (True, False):
            got = run_enumeration(EnumerationRequest(
                n=n, patterns=qs, cyclic_only=cyclic_only, collect=True))
            want = ref_list(n, pats, cyclic_only)
            assert [p.entries for p in got.witnesses] == want, (pats, cyclic_only)
            assert got.count == len(want)


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
        for pats in (*_COMBINATIONS[:6], [(1, 2, 3), (1, 4, 3, 2)], [(2, 1), (2, 3, 1)]):
            for cyclic_only in (True, False):
                _kernels._count_from_root(7, pats, cyclic_only, [])
                assert gc.collect() == 0, (pats, cyclic_only)
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
    assert sum(_kernels._count_from_root(n, _entries(labels), True)[1]
               for n, labels in table_one) == 8836
    assert _kernels.KERNEL_VERSION == 3
    assert sum(_kernels._count_from_root(n, _entries(labels), True)[1]
               for n, labels in pairs) == 2362
    # A request searches its set's most gated image: single patterns are
    # searched as given, and (123,231) and (132,231) go to (123,312) and
    # (213,231).
    assert sum(_cyclic(n, labels).nodes_visited for n, labels in table_one) == 8836
    assert sum(_cyclic(n, labels).nodes_visited for n, labels in pairs) == 1445


def test_the_hardest_pair_attains_its_bound_at_n26():
    from cycperm.formulas import upper_bound_123_231

    # searched through its inverse image, (123, 312)
    assert _kernels.KERNEL_VERSION == 3
    res = _cyclic(26, ("123", "231"))
    assert res.count == upper_bound_123_231(26) == 18
    assert res.nodes_visited == 1942


@pytest.mark.parametrize("labels, nodes", [
    # None of these sets tests LL or MM: their ascending and descending
    # patterns meet only in combinations that never fire, or in LM and MH
    # for (123, 231, 312) and (132, 213, 321), which pruned nothing for them
    # while the search still tested those two.
    (("132", "213"), 720),
    (("132", "312"), 431),
    (("231", "312"), 25),
    (("123", "231", "312"), 25),
    (("132", "213", "312"), 62),
    (("132", "213", "321"), 77),
    (("132", "231", "312"), 25),
])
def test_sets_the_lookahead_cannot_prune_keep_their_nodes(labels, nodes):
    assert _kernels._count_from_root(10, _entries(labels), True)[1] == nodes
    # A request searches the most gated image instead, which for these three
    # sets turns on MM.
    routed = {("132", "312"): 249, ("132", "213", "312"): 32, ("132", "231", "312"): 5}
    assert _cyclic(10, labels).nodes_visited == routed.get(labels, nodes)


def test_pattern_sets_compile_once():
    pats = ((1, 3, 2), (2, 1, 3))
    assert _kernels._compile_patterns(pats) is _kernels._compile_patterns(pats)
    assert _kernels._compile_patterns(pats)[1:] == (
        (False, True, True, False, False, False), (False, False))
