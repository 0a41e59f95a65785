"""Machine-checkable verification of the enumeration claims.

Three kinds of claims are distinguished, because they fail differently:

* golden/theorem claims (embedded reference table, formula-vs-oracle
  agreement, the triple characterization, the insertion construction):
  a failure here is a bug in this package or its reference data;
* conjecture evidence (the ordering chain among single-pattern counts,
  the 2x/4x growth bounds): a failure beyond the reference range is a
  reportable finding, not a build failure;
* open questions (the (k-1)-growth question): outcomes are recorded
  either way.

The CLI maps these kinds onto distinct exit codes.
"""
from __future__ import annotations

import time
from functools import lru_cache
from typing import Iterable, Optional

from ._record import Record
from .enumeration import EnumerationRequest, run_enumeration
from .errors import LimitExceeded, PreconditionViolated, TooSmall
from .formulas import PairFormulaId, count_123_231, pair_count
from .layered import all_triples, classify_triple_formula, is_good_triple_direct
from .patterns import Pattern, avoids_all, parse_pattern, pattern_label
from .perm import Permutation, inverse, is_cyclic, is_involution

#: Reference counts of cyclic permutations avoiding one length-3 pattern,
#: columns in lexicographic pattern order, rows n = 3..12.
TABLE_ONE_COLUMNS = ("123", "132", "213", "231", "312", "321")
TABLE_ONE = {
    3: (2, 2, 2, 1, 1, 2),
    4: (4, 4, 4, 2, 2, 4),
    5: (10, 10, 10, 5, 5, 10),
    6: (24, 24, 24, 12, 12, 24),
    7: (68, 68, 68, 30, 30, 66),
    8: (188, 182, 182, 86, 86, 178),
    9: (586, 544, 544, 253, 253, 512),
    10: (1722, 1574, 1574, 748, 748, 1486),
    11: (5492, 4888, 4888, 2274, 2274, 4446),
    12: (16924, 14864, 14864, 7152, 7152, 13468),
}

#: The patterns for which the doubling construction is proved: involutions
#: of length > 2 whose maximum entry sits at position <= k - 2.
INSERTION_PATTERNS = ("321", "4321", "4231", "3412", "1432")

CLAIM_KINDS = {
    "TableOne": "theorem",
    "FormulaVsOracle": "theorem",
    "TripleFormula": "theorem",
    "InsertionTheorem": "theorem",
    "ChainConjecture": "evidence",
    "GrowthBounds": "evidence",
    "KMinusOneQuestion": "evidence",
}


class VerificationReport(Record):
    """One claim's outcome per n; check functions fill it with ``record``
    and stamp its run time with ``done``, counted from construction."""

    _fields = ("claim", "status", "counterexamples", "elapsed", "notes")

    def __init__(self, claim: str, status: dict[int, bool] | None = None,
                 counterexamples: list[tuple[int, str]] | None = None,
                 elapsed: float = 0.0, notes: list[str] | None = None):
        self.claim = claim
        self.status = {} if status is None else status
        self.counterexamples = [] if counterexamples is None else counterexamples
        self.elapsed = elapsed
        self.notes = [] if notes is None else notes
        self._t0 = time.perf_counter()

    @property
    def ns(self) -> tuple[int, ...]:
        return tuple(sorted(self.status))

    @property
    def passed(self) -> bool:
        return all(self.status.values())

    @property
    def kind(self) -> str:
        return CLAIM_KINDS[self.claim]

    def record(self, n: int, ok: bool, detail: str = "") -> None:
        self.status[n] = self.status.get(n, True) and ok
        if not ok:
            self.counterexamples.append((n, detail))

    def done(self) -> VerificationReport:
        """Stamp the run time; a report that checked no n is refused, since
        it would pass without evidence."""
        if not self.status:
            raise TooSmall(f"{self.claim}: the requested range holds no n to check")
        self.elapsed = time.perf_counter() - self._t0
        return self

    def to_json_dict(self) -> dict:
        return {
            "claim": self.claim,
            "kind": self.kind,
            "range": list(self.ns),
            "status": {str(n): ok for n, ok in self.status.items()},
            "counterexamples": [[n, detail] for n, detail in self.counterexamples],
            "elapsed": self.elapsed,
            "notes": list(self.notes),
            "passed": self.passed,
        }

    def to_text(self) -> str:
        head = f"{self.claim}: {'pass' if self.passed else 'FAIL'}"
        if self.ns:
            head += f" (n = {min(self.ns)}..{max(self.ns)}, {self.elapsed:.2f}s)"
        lines = [head]
        for n, detail in self.counterexamples:
            lines.append(f"  n={n}: {detail}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines) + "\n"


_COUNT_CACHE: dict[tuple, int] = {}


def cyclic_count(patterns: Iterable[Pattern], n: int) -> int:
    """Oracle count with an in-process memo, at any n (the cap is the
    CLI's rule). The memo is keyed by the set of the patterns' entries, so
    their order and repeats do not matter; the request orders them."""
    patterns = tuple(patterns)
    key = (frozenset(q.entries for q in patterns), n)
    count = _COUNT_CACHE.get(key)
    if count is None:
        req = EnumerationRequest(n=n, patterns=patterns, cyclic_only=True)
        count = _COUNT_CACHE[key] = run_enumeration(req).count
    return count


@lru_cache(maxsize=None)
def _patterns_of(labels: str) -> tuple[Pattern, ...]:
    """The patterns named by comma-separated labels ("123" or a pair's
    "123,231"), parsed once per label string. Callers pass only Table 1's
    labels and the pairs' values, so the cache stays small."""
    return tuple(parse_pattern(label) for label in labels.split(","))


# check_formula_vs_oracle, check_chain_conjecture, check_growth_bounds,
# check_insertion_theorem and check_k_minus_one_question take ``workers``
# for compatibility only, since perfbench/ops.py passes workers=1 to them;
# the oracle runs on one thread.


def reproduce_table_one(n_max: int):
    """Oracle counts for the six single patterns, n = 3..n_max, as a table."""
    from .tables import CountTable

    table = CountTable(columns=TABLE_ONE_COLUMNS)
    for n in range(3, n_max + 1):
        for label in TABLE_ONE_COLUMNS:
            table.set(n, label, cyclic_count(_patterns_of(label), n), "oracle")
    return table


def check_table_one(n_max: int) -> VerificationReport:
    """Oracle vs the embedded reference table, cell for cell."""
    if n_max > max(TABLE_ONE):
        raise LimitExceeded(f"reference values are embedded only through n = {max(TABLE_ONE)}")
    rep = VerificationReport("TableOne")
    for n in range(3, n_max + 1):
        for label, expected in zip(TABLE_ONE_COLUMNS, TABLE_ONE[n]):
            got = cyclic_count(_patterns_of(label), n)
            rep.record(n, got == expected, f"C_{n}({label}) = {got}, reference says {expected}")
    return rep.done()


def check_formula_vs_oracle(
    pairs: Optional[Iterable[PairFormulaId]] = None,
    n_max: int = 11,
    n_min: int = 3,
    workers: int = 1,
) -> VerificationReport:
    """Closed forms against the oracle for every supported pair."""
    rep = VerificationReport("FormulaVsOracle")
    pair_list = list(pairs) if pairs is not None else list(PairFormulaId)
    for n in range(n_min, n_max + 1):
        for pair in pair_list:
            formula = pair_count(pair, n)
            oracle = cyclic_count(_patterns_of(pair.value), n)
            rep.record(n, formula == oracle,
                       f"pair ({pair.value}): formula {formula} != oracle {oracle}")
    return rep.done()


def check_triple_formula(n_max: int = 60) -> VerificationReport:
    """Arithmetic goodness clauses against direct cycle tracing, for every
    triple with 3 <= a+b+c <= n_max; and per n, the number of triples the
    cycle trace finds good against the closed form count_123_231(n)."""
    rep = VerificationReport("TripleFormula")
    for n in range(3, n_max + 1):
        good = 0
        for t in all_triples(n):
            by_formula = classify_triple_formula(t).good
            by_direct = is_good_triple_direct(t)
            good += by_direct
            ok = by_formula == by_direct
            rep.record(n, ok, "" if ok else (
                f"triple {(t.a, t.b, t.c)}: formula says {by_formula}, "
                f"cycle trace says {by_direct}"
            ))
        closed = count_123_231(n)
        rep.record(n, good == closed, f"{good} good triples, count_123_231({n}) = {closed}")
    return rep.done()


def check_chain_conjecture(n_max: int, workers: int = 1) -> VerificationReport:
    """The conjectured ordering among the six single-pattern counts."""
    rep = VerificationReport("ChainConjecture")
    for n in range(3, n_max + 1):
        c = {label: cyclic_count(_patterns_of(label), n) for label in TABLE_ONE_COLUMNS}
        ok = c["123"] >= c["132"] == c["213"] >= c["321"] >= c["231"] == c["312"]
        rep.record(n, ok, "chain broken: "
                   + " ".join(f"C({lbl})={c[lbl]}" for lbl in TABLE_ONE_COLUMNS))
    return rep.done()


def check_growth_bounds(q: Pattern, n_max: int, workers: int = 1) -> VerificationReport:
    """Conjectured bounds 2*C_n <= C_{n+1} <= 4*C_n for a single pattern."""
    if len(q) != 3:
        raise PreconditionViolated("growth bounds are stated for patterns of length 3")
    rep = VerificationReport("GrowthBounds")
    label = pattern_label(q)
    prev = cyclic_count([q], 3)
    for n in range(3, n_max):
        nxt = cyclic_count([q], n + 1)
        ok = 2 * prev <= nxt <= 4 * prev
        rep.record(n, ok, f"C_{n}({label}) = {prev}, C_{n + 1}({label}) = {nxt} "
                          f"violates 2x..4x growth")
        prev = nxt
    return rep.done()


def _insertion_hypothesis_failure(q: Pattern) -> Optional[str]:
    k = len(q)
    if k <= 2:
        return f"pattern length must exceed 2, got {k}"
    if not is_involution(q):
        return f"pattern {pattern_label(q)} is not an involution"
    max_pos = q.entries.index(k) + 1
    if max_pos > k - 2:
        return (
            f"maximum entry of {pattern_label(q)} sits at position {max_pos}, "
            f"needs position <= {k - 2}"
        )
    return None


def insertion_construction(p: Permutation, q: Pattern) -> Permutation:
    """Insert n+1 into the next-to-last position of a cyclic q-avoider.

    The new entry lands at position n of the length-(n+1) word, pushing the
    old last entry right; the result is again cyclic and q-avoiding when q
    is an involution of length > 2 with its maximum at position <= k - 2.
    The hypothesis on q is checked here on each call; check_insertion_theorem
    checks it once per claim and then builds each image with _insert.
    """
    failure = _insertion_hypothesis_failure(q)
    if failure is not None:
        raise PreconditionViolated(failure)
    return _insert(p, q)


def _insert(p: Permutation, q: Pattern) -> Permutation:
    """The construction for a q already known to meet the hypothesis; p is
    still checked to be cyclic and q-avoiding."""
    if not is_cyclic(p):
        raise PreconditionViolated(f"permutation {p} is not cyclic")
    if not avoids_all(p, [q]):
        raise PreconditionViolated(f"permutation {p} contains {pattern_label(q)}")
    n = len(p)
    return Permutation(p.entries[: n - 1] + (n + 1,) + (p.entries[n - 1],))


class _InsertionWitnesses:
    """The sink of one n's witness stream: each oracle witness p of length
    n is checked as the search yields it, then dropped; only the count, the
    last witness and the problems found are kept."""

    def __init__(self, q: Pattern, n: int):
        self.q = q
        self.n = n
        self.count = 0
        self.prev: tuple[int, ...] = ()
        self.problems: list[str] = []

    def append(self, entries: tuple[int, ...]) -> None:
        q, n, problems = self.q, self.n, self.problems
        p = Permutation(entries)
        self.count += 1
        if entries <= self.prev:
            problems.append(f"oracle witness {p} repeats or breaks the ascending order")
        self.prev = entries
        try:
            s = _insert(p, q)
        except PreconditionViolated as exc:  # q meets the hypothesis, so the oracle erred
            problems.append(f"oracle witness rejected: {exc}")
            return
        if s(n) != n + 1 or s.entries[: n - 1] + s.entries[n:] != entries:
            problems.append(f"constructed permutation {s} is not {p} with {n + 1} "
                            f"at position {n}")
        for member in (s, inverse(s)):
            if not (is_cyclic(member) and avoids_all(member, [q])):
                problems.append(f"constructed permutation {member} fails re-verification")


def check_insertion_theorem(q: Pattern, n_max: int, workers: int = 1) -> VerificationReport:
    """The doubling construction, end to end, for 3 <= n < n_max.

    For each n, one oracle search streams the witnesses of length n, and
    each witness p is checked as the search yields it; no list of
    witnesses and no set of images is kept. For each n:

    * the witnesses are strictly ascending, so none repeats; s = the
      insertion image of p has n+1 at position n, and deleting it gives p
      back, so the images S and their inverses T number C_n(q) each;
    * s and t = s^-1 are each re-verified: cyclic and q-avoiding;
    * 2 C_n(q) <= C_{n+1}(q), with C_n(q) the number of witnesses streamed
      at n and C_{n+1}(q) the number streamed at n+1; only C_{n_max}(q) is
      a count of its own, from the memo or one count search.

    S and T are disjoint without a test of their own: a t in S would have
    n+1 at position n, so s(n+1) = n; with s(n) = n+1 that is the 2-cycle
    (n n+1), which the cyclicity check of s rules out. An oracle witness
    the construction rejects is a counterexample at its n.

    The hypothesis on q (an involution of length > 2 with its maximum at
    position <= k - 2) is checked once per call, before any search; a q
    that fails it raises PreconditionViolated. The witnesses are then
    checked without it.
    """
    failure = _insertion_hypothesis_failure(q)
    if failure is not None:
        raise PreconditionViolated(failure)
    rep = VerificationReport("InsertionTheorem")
    rep.notes.append(
        "checks start at n = 3; at n = 2 the next-to-last position is the "
        "front of the word, so that case is noted rather than asserted"
    )
    label = pattern_label(q)

    def record(checked: _InsertionWitnesses, c_next: int) -> None:
        n, c_n, problems = checked.n, checked.count, checked.problems
        if 2 * c_n > c_next:
            problems.append(f"2*C_{n}({label})={2 * c_n} > C_{n + 1}({label})={c_next}")
        rep.record(n, not problems, "; ".join(problems))

    pending = None  # the last n's witnesses, whose growth check needs C_{n+1}
    for n in range(3, n_max):
        checked = _InsertionWitnesses(q, n)
        run_enumeration(EnumerationRequest(n, (q,), cyclic_only=True, collect=True), checked)
        if pending is not None:
            record(pending, checked.count)
        pending = checked
    if pending is not None:
        record(pending, cyclic_count([q], n_max))
    return rep.done()


def check_k_minus_one_question(q: Pattern, n_max: int, workers: int = 1) -> VerificationReport:
    """Recorded evidence for (k-1) C_n(q) <= C_{n+1}(q), k <= n < n_max."""
    k = len(q)
    if k < 3:
        raise PreconditionViolated(
            f"the growth question is stated for patterns of length >= 3, got {k}"
        )
    rep = VerificationReport("KMinusOneQuestion")
    label = pattern_label(q)
    for n in range(k, n_max):
        c_n = cyclic_count([q], n)
        c_next = cyclic_count([q], n + 1)
        rep.record(n, (k - 1) * c_n <= c_next,
                   f"({k}-1)*C_{n}({label}) = {(k - 1) * c_n} > C_{n + 1}({label}) = {c_next}")
    return rep.done()
