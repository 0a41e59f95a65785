"""What a caller sees of the package's records: constructor parameters and
defaults, validation errors, repr text, equality, hash and (im)mutability.

The hash of a frozen record equals the hash of the tuple of its fields, so
sets of records iterate in the same order whatever the records are built on.
"""
import copy
import pickle

import pytest

from cycperm.enumeration import EnumerationRequest, EnumerationResult
from cycperm.errors import EmptyInput, NotABijection, TooSmall
from cycperm.harness import VerificationReport
from cycperm.layered import Triple, TripleClassification, TripleReason
from cycperm.perm import Permutation
from cycperm.tables import Cell, CountTable

P123 = Permutation((1, 2, 3))
P231 = Permutation((2, 3, 1))

# (record, its fields in order, its repr)
FROZEN = [
    (Permutation((2, 4, 1, 3)), ((2, 4, 1, 3),), "Permutation(entries=(2, 4, 1, 3))"),
    (Triple(4, 2, 3), (4, 2, 3), "Triple(a=4, b=2, c=3)"),
    (TripleClassification(True, TripleReason.GOOD_ODD_CASE),
     (True, TripleReason.GOOD_ODD_CASE),
     "TripleClassification(good=True, reason=<TripleReason.GOOD_ODD_CASE: 'GoodOddCase'>)"),
    (Cell(10, "oracle"), (10, "oracle"), "Cell(count=10, provenance='oracle')"),
    (EnumerationRequest(5, (P231, P123)), (5, (P123, P231), True, False, 1),
     "EnumerationRequest(n=5, patterns=(Permutation(entries=(1, 2, 3)), "
     "Permutation(entries=(2, 3, 1))), cyclic_only=True, collect=False, parallelism=1)"),
]
FROZEN_IDS = [type(record).__name__ for record, _, _ in FROZEN]


@pytest.mark.parametrize("record, fields, text", FROZEN, ids=FROZEN_IDS)
def test_frozen_record_repr_eq_hash(record, fields, text):
    assert repr(record) == text
    assert hash(record) == hash(fields)
    twin = type(record)(*fields)
    assert twin == record and not twin != record
    assert twin is not record
    assert record != fields  # a record equals only a record of its own class
    assert len({record, twin}) == 1
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.deepcopy(record) == record


@pytest.mark.parametrize("record, fields, text", FROZEN, ids=FROZEN_IDS)
def test_frozen_record_refuses_assignment(record, fields, text):
    name = text[text.index("(") + 1:text.index("=")]
    with pytest.raises(AttributeError):
        setattr(record, name, fields[0])
    with pytest.raises(AttributeError):
        setattr(record, "extra", 1)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) == fields[0]


def test_records_differ_field_by_field():
    assert Triple(1, 2, 3) != Triple(1, 3, 2)
    assert Cell(1, "oracle") != Cell(1, "formula")
    assert Permutation((2, 1)) != Permutation((1, 2))
    assert EnumerationRequest(5, (P123,)) != EnumerationRequest(5, (P123,), cyclic_only=False)
    # set iteration order follows the tuple hashes
    perms = [Permutation(t) for t in ((3, 1, 2), (2, 3, 1), (1, 3, 2), (2, 1, 3))]
    assert [(p.entries,) for p in set(perms)] == list({(p.entries,) for p in perms})


def test_keyword_construction_and_defaults():
    assert Permutation(entries=(1,)).entries == (1,)
    assert Triple(a=1, b=2, c=3).n == 6
    assert TripleClassification(good=False, reason=TripleReason.GCD_VIOLATION).good is False
    assert Cell(count=3, provenance="golden").count == 3
    req = EnumerationRequest(n=4, patterns=(P123,), cyclic_only=False, collect=True,
                             parallelism=2)
    assert (req.n, req.cyclic_only, req.collect, req.parallelism) == (4, False, True, 2)


@pytest.mark.parametrize("build, error, message", [
    (lambda: Permutation(()), EmptyInput, "a permutation must have length at least 1"),
    (lambda: Permutation((1, 1)), NotABijection, r"not a rearrangement of 1..2: \(1, 1\)"),
    (lambda: Triple(0, 1, 2), ValueError, r"layer lengths must be positive: \(0, 1, 2\)"),
    (lambda: Cell(1, "guess"), ValueError, "unknown provenance 'guess'"),
    (lambda: EnumerationRequest(0, (P123,)), TooSmall, "n must be at least 1, got 0"),
    (lambda: EnumerationRequest(3, ()), EmptyInput, "the pattern set must be nonempty"),
    (lambda: EnumerationRequest(3, (P123,), parallelism=0), TooSmall,
     "parallelism must be at least 1, got 0"),
], ids=["empty-perm", "not-bijection", "triple", "cell", "request-n", "request-empty",
        "request-parallelism"])
def test_validation_errors(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_count_table_repr_equality_and_mutability():
    table = CountTable(columns=("123", "231"))
    table.set(5, "123", 10, "oracle")
    table.set(5, "231", 5, "golden")
    table.set(6, "123", 24, "formula")
    assert repr(table) == (
        "CountTable(columns=('123', '231'), rows={5: {'123': Cell(count=10, "
        "provenance='oracle'), '231': Cell(count=5, provenance='golden')}, "
        "6: {'123': Cell(count=24, provenance='formula')}})")
    assert CountTable(("123", "231"), dict(table.rows)) == table
    assert CountTable(("123",)) != table
    assert CountTable(("123",)).rows == {}
    assert CountTable(("1",)).rows is not CountTable(("1",)).rows
    table.columns = ("123",)
    assert table.columns == ("123",)
    with pytest.raises(TypeError):
        hash(table)


def test_enumeration_result_is_a_mutable_record():
    result = EnumerationResult(3)
    assert repr(result) == "EnumerationResult(count=3, witnesses=None, nodes_visited=0, elapsed=0.0)"
    assert result == EnumerationResult(count=3, witnesses=None, nodes_visited=0, elapsed=0.0)
    assert result != EnumerationResult(3, nodes_visited=1)
    result.count += 1
    assert result.count == 4
    with pytest.raises(TypeError):
        hash(result)


def test_verification_report_is_a_mutable_record():
    report = VerificationReport("TableOne")
    assert repr(report) == ("VerificationReport(claim='TableOne', status={}, "
                            "counterexamples=[], elapsed=0.0, notes=[])")
    # equal fields make equal reports, whatever their start times
    twin = VerificationReport(claim="TableOne", status={}, counterexamples=[], elapsed=0.0,
                              notes=[])
    assert twin == report
    twin.record(3, False, "x")
    assert twin != report
    assert VerificationReport("TableOne").status is not report.status
    with pytest.raises(TypeError):
        hash(report)
