"""Cyclic permutations avoiding short patterns.

Brute-force oracle counts, closed-form formulas for the solved pattern
pairs of length three, the layer-triple structure theory behind the
(123,231) count, and a verification harness for the open conjectures.

Each public name is imported from its submodule on first use (PEP 562),
so ``import cycperm`` loads none of them and a command pays only for the
modules it runs.
"""
import importlib

#: Each public name and the submodule that defines it.
_SUBMODULE_OF = {
    name: module
    for module, names in {
        "enumeration": (
            "EnumerationRequest", "EnumerationResult", "count_avoiders",
            "count_cyclic_avoiders", "list_cyclic_avoiders",
        ),
        "formulas": (
            "PairFormulaId", "count_123_132", "count_123_231", "count_132_231",
            "count_trivial_pair", "mobius", "pair_count", "totient", "upper_bound_123_231",
        ),
        "harness": (
            "TABLE_ONE", "VerificationReport", "check_chain_conjecture", "check_growth_bounds",
            "check_insertion_theorem", "check_k_minus_one_question", "insertion_construction",
            "reproduce_table_one",
        ),
        "layered": (
            "Triple", "TripleClassification", "TripleReason", "classify_triple_formula",
            "enumerate_good_triples", "inversion_count_formula", "is_good_triple_direct",
            "permutation_of_triple", "triple_of_permutation",
        ),
        "patterns": ("Pattern", "avoids_all", "contains", "parse_pattern"),
        "perm": (
            "Permutation", "compose", "cycle_type", "inverse", "inversion_count", "is_cyclic",
            "is_involution", "make_permutation", "parse_permutation", "reverse_complement",
        ),
    }.items()
    for name in names
}

__all__ = list(_SUBMODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _SUBMODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
