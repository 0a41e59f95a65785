"""Cyclic permutations avoiding short patterns.

Brute-force oracle counts, closed-form formulas for the solved pattern
pairs of length three, the layer-triple structure theory behind the
(123,231) count, and a verification harness for the open conjectures.
"""

from .enumeration import (
    EnumerationRequest,
    EnumerationResult,
    count_avoiders,
    count_cyclic_avoiders,
    list_cyclic_avoiders,
)
from .formulas import (
    PairFormulaId,
    count_123_132,
    count_123_231,
    count_132_231,
    count_trivial_pair,
    mobius,
    pair_count,
    totient,
    upper_bound_123_231,
)
from .harness import (
    TABLE_ONE,
    VerificationReport,
    check_chain_conjecture,
    check_growth_bounds,
    check_insertion_theorem,
    check_k_minus_one_question,
    insertion_construction,
    reproduce_table_one,
)
from .layered import (
    Triple,
    TripleClassification,
    TripleReason,
    classify_triple_formula,
    enumerate_good_triples,
    inversion_count_formula,
    is_good_triple_direct,
    permutation_of_triple,
    triple_of_permutation,
)
from .patterns import (
    Pattern,
    avoids_all,
    contains,
    parse_pattern,
)
from .perm import (
    Permutation,
    compose,
    cycle_type,
    inverse,
    inversion_count,
    is_cyclic,
    is_involution,
    make_permutation,
    parse_permutation,
    reverse_complement,
)

__version__ = "0.1.0"
