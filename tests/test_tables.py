"""CountTable formats: TSV, text, provenance discipline."""
import pytest

from cycperm.errors import UsageError
from cycperm.tables import Cell, CountTable


def _sample():
    table = CountTable(columns=("123", "321"))
    table.set(3, "123", 2, "oracle")
    table.set(3, "321", 2, "golden")
    table.set(4, "123", 4, "formula")
    table.set(4, "321", 4, "oracle")
    return table


def test_tsv():
    assert _sample().to_tsv() == "n\t123\t321\n3\t2\t2\n4\t4\t4\n"


def test_text_renders():
    text = _sample().to_text()
    assert "123" in text and text.splitlines()[1].split() == ["3", "2", "2"]


def test_provenance_required():
    with pytest.raises(ValueError):
        Cell(1, "guess")
    with pytest.raises(KeyError):
        _sample().set(5, "999", 1, "oracle")
    with pytest.raises(UsageError, match="unknown provenance 'guess'"):
        _sample().set(5, "123", 1, "guess")


def test_rows_ascending():
    table = _sample()
    with pytest.raises(ValueError):
        table.set(2, "123", 1, "oracle")
    table.set(3, "123", 2, "oracle")  # updating an existing row is fine
