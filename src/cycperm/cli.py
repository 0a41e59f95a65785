"""Command-line front end.

Subcommands: count (oracle), formula (closed forms), verify (one claim),
conjectures (all open-problem claims), triples (good layer triples),
export (OEIS b-files). Exit codes are a stable contract for CI:

    0   success
    1   theorem/golden mismatch or internal error
    2   conjecture-evidence failure (a finding, not a build failure)
    64  usage error (bad flags, unparseable pattern, above the cap, ...)
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from typing import Optional

from . import harness
from .enumeration import (
    DEFAULT_CAP,
    EnumerationRequest,
    _env_int,
    check_cap,
    configured_cap,
    run_enumeration,
)
from .errors import (
    BadPattern,
    BadSetting,
    CycpermError,
    UnknownSequence,
    UnsupportedPair,
    UsageError,
)
from .formulas import OEIS_SEQUENCES, PairFormulaId, format_bfile, pair_count, pair_id_from_labels
from .layered import enumerate_good_triples, permutation_of_triple
from .patterns import Pattern, parse_pattern, parse_pattern_set, pattern_label, pattern_set_label
from .tables import CountTable

#: Without --extended the oracle stays in the fast range; --extended
#: unlocks n = 11..DEFAULT_CAP (and prints a runtime warning). An explicit
#: --cap always wins, then the CYCPERM_ORACLE_CAP environment variable.
CLI_DEFAULT_CAP = 10

#: Accepted, like --workers, for compatibility only; the search runs on one
#: thread. A value that is not an integer is still a usage error.
_ENV_WORKERS = "CYCPERM_WORKERS"

#: The claims ``verify --claim`` accepts, each with its default --n-max.
_DEFAULT_N_MAX = {
    "table1": 10,
    "formula-vs-oracle": 11,
    "triple-formula": 60,
    "chain": 10,
    "growth": 10,
    "insertion": 9,
    "k-minus-one": 10,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; the contract is 64
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _warn(args: argparse.Namespace, message: str) -> None:
    if not args.quiet:
        print(f"cycperm: {message}", file=sys.stderr)


def build_parser() -> _Parser:
    parser = _Parser(prog="cycperm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("tsv", "text", "json")):
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--workers", type=int, default=None,
                       help="accepted for compatibility; no effect")
        p.add_argument("--cap", type=int, default=None, help="oracle n cap override")
        p.add_argument("--extended", action="store_true", help="unlock n = 11..13 oracle runs")
        p.add_argument("--quiet", action="store_true", help="suppress warnings on stderr")

    p = sub.add_parser("count", help="brute-force avoider counts")
    p.set_defaults(run=cmd_count)
    p.add_argument("--n", type=int)
    p.add_argument("--n-max", type=int)
    p.add_argument("--avoid", action="append", required=True, metavar="PATTERN")
    p.add_argument("--all", action="store_true", help="count all avoiders, not only cyclic ones")
    p.add_argument("--cache", metavar="PATH", help="JSON-lines oracle result cache")
    common(p)

    p = sub.add_parser("formula", help="closed-form pair counts")
    p.set_defaults(run=cmd_formula)
    p.add_argument("--pair", required=True, metavar="Q1,Q2")
    p.add_argument("--n", type=int)
    p.add_argument("--n-max", type=int)
    common(p)

    p = sub.add_parser("verify", help="check one claim over a range")
    p.set_defaults(run=cmd_verify)
    p.add_argument("--claim", required=True, choices=sorted(_DEFAULT_N_MAX))
    p.add_argument("--n-max", type=int)
    p.add_argument("--pair", metavar="Q1,Q2", help="restrict formula-vs-oracle to one pair")
    p.add_argument("--avoid", action="append", metavar="PATTERN",
                   help="pattern for growth/insertion/k-minus-one claims")
    common(p, formats=("text", "json"))

    p = sub.add_parser("conjectures", help="verify every open-problem claim")
    p.set_defaults(run=cmd_conjectures)
    p.add_argument("--n-max", type=int, default=10)
    common(p, formats=("text", "json"))

    p = sub.add_parser("triples", help="good layer triples for one n")
    p.set_defaults(run=cmd_triples)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--with-perms", action="store_true", help="attach the layered permutation")
    common(p, formats=("tsv", "json"))

    p = sub.add_parser("export", help="write an OEIS b-file")
    p.set_defaults(run=cmd_export)
    p.add_argument("--seq", required=True, metavar="AXXXXXX")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--offset", type=int, required=True, help="first index to emit")
    p.add_argument("--out", metavar="PATH", help="output path (default b<digits>.txt)")
    common(p, formats=("bfile",))
    return parser


def _require_parent_dir(flag: str, path: Optional[str]) -> None:
    """An output path must name a file in an existing directory."""
    if not path:
        return
    if os.path.isdir(path):
        raise BadSetting(f"{flag} {path}: is a directory, not a file")
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise BadSetting(f"{flag} {path}: directory {parent} does not exist")


def _resolve_cap(args: argparse.Namespace) -> int:
    """Raise the usage errors argparse cannot see, then resolve the oracle
    cap once, before any subcommand runs: --cap, then CYCPERM_ORACLE_CAP,
    then the default (DEFAULT_CAP with --extended, else CLI_DEFAULT_CAP).
    For verify the default also covers the claim's default range, since
    formula-vs-oracle reaches n = 11 and pair-avoider search trees are tiny."""
    if args.workers is None:
        _env_int(_ENV_WORKERS)
    _require_parent_dir("--cache", getattr(args, "cache", None))
    _require_parent_dir("--out", getattr(args, "out", None))
    default = DEFAULT_CAP if args.extended else CLI_DEFAULT_CAP
    if args.command == "verify":
        default = max(default, _DEFAULT_N_MAX[args.claim])
    return configured_cap(args.cap, default=default)


# --- oracle result cache -----------------------------------------------------
# One JSON object per line, append-only; concurrent writers rely on whole-line
# records and any torn/corrupt/non-UTF-8 line, or a record whose count is not
# a non-negative integer, is simply treated as a miss.


def _cache_key(n: int, labels: tuple[str, ...], cyclic: bool) -> str:
    blob = json.dumps({"n": n, "patterns": list(labels), "cyclic": cyclic}, sort_keys=True)
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def cache_lookup(path: str, key: str) -> Optional[dict]:
    """The last valid record for ``key``, or None. Lines are streamed as
    bytes and only those that contain the key are parsed. A record is valid
    when its ``"count"`` is a non-negative integer (``true`` is not)."""
    needle = key.encode("ascii")
    hit = None
    try:
        with open(path, "rb") as fh:
            for line in fh:
                if needle not in line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if not isinstance(record, dict) or record.get("key") != key:
                    continue
                if type(record.get("count")) is int and record["count"] >= 0:
                    hit = record
    except OSError:
        return None
    return hit


def cache_append(path: str, record: dict) -> None:
    """Append ``record`` as one line. After a torn last line that lacks its
    newline the record starts on a new line, so it is not glued onto it."""
    line = json.dumps(record, sort_keys=True).encode("ascii") + b"\n"
    with open(path, "ab+") as fh:
        if fh.seek(0, os.SEEK_END):
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) != b"\n":
                line = b"\n" + line
        fh.write(line)


def _oracle_count(
    n: int, patterns: tuple[Pattern, ...], cyclic: bool, cap: int, cache_path: Optional[str]
) -> int:
    labels = tuple(pattern_label(q) for q in patterns)
    key = _cache_key(n, labels, cyclic)
    if cache_path:
        hit = cache_lookup(cache_path, key)
        if hit is not None:
            return hit["count"]
    req = EnumerationRequest(n=n, patterns=patterns, cyclic_only=cyclic)
    result = run_enumeration(req, cap=cap)
    if cache_path:
        cache_append(
            cache_path,
            {
                "key": key,
                "n": n,
                "patterns": list(labels),
                "cyclic": cyclic,
                "count": result.count,
                "nodes": result.nodes_visited,
            },
        )
    return result.count


# --- subcommands: each prints its output and returns its exit code -----------


def _print_table(table: CountTable, fmt: str) -> int:
    if fmt == "json":
        sys.stdout.write(table.to_json() + "\n")
    elif fmt == "text":
        sys.stdout.write(table.to_text())
    else:
        sys.stdout.write(table.to_tsv())
    return 0


def _print_reports(reports: list[harness.VerificationReport], fmt: str) -> int:
    """Print the reports. The exit code is 1 if a theorem failed, else 2 if
    conjecture evidence failed, else 0."""
    if fmt == "json":
        sys.stdout.write(json.dumps([r.to_json_dict() for r in reports], indent=2) + "\n")
    else:
        sys.stdout.write("".join(r.to_text() for r in reports))
    failed = {r.kind for r in reports if not r.passed}
    if "theorem" in failed:
        return 1
    return 2 if "evidence" in failed else 0


def _n_range(args: argparse.Namespace) -> list[int]:
    if args.n is not None and args.n_max is not None:
        return list(range(args.n, args.n_max + 1))
    if args.n is not None:
        return [args.n]
    if args.n_max is not None:
        return list(range(1, args.n_max + 1))
    raise BadPattern("one of --n / --n-max is required")


def _pair(text: Optional[str]) -> PairFormulaId:
    first, _, second = (text or "").partition(",")
    if not second:
        raise UnsupportedPair(f"--pair wants the form Q1,Q2, got {text!r}")
    return pair_id_from_labels(first, second)


def cmd_count(args: argparse.Namespace, cap: int) -> int:
    qs = parse_pattern_set(args.avoid)
    label = pattern_set_label(qs)
    ns = _n_range(args)
    if ns:  # refuse the whole range before any cache lookup or search
        check_cap(max(ns), cap)
    if any(n > CLI_DEFAULT_CAP for n in ns):
        _warn(args, f"oracle runs above n = {CLI_DEFAULT_CAP} can take minutes (cap {cap})")
    table = CountTable(columns=(label,))
    for n in ns:
        table.set(n, label, _oracle_count(n, qs, not args.all, cap, args.cache), "oracle")
    return _print_table(table, args.format)


def cmd_formula(args: argparse.Namespace, cap: int) -> int:
    pair = _pair(args.pair)
    table = CountTable(columns=(pair.value,))
    for n in _n_range(args):
        table.set(n, pair.value, pair_count(pair, n), "formula")
    return _print_table(table, args.format)


def _run_claim(
    claim: str, n_max: int, cap: int, pair: Optional[str] = None, avoid: Optional[list] = None
) -> list[harness.VerificationReport]:
    """One claim over n <= n_max. ``pair`` restricts formula-vs-oracle to one
    pair; ``avoid`` replaces the default patterns of the per-pattern claims."""
    if claim == "table1":
        return [harness.check_table_one(n_max, cap=cap)]
    if claim == "formula-vs-oracle":
        pairs = [_pair(pair)] if pair else None
        return [harness.check_formula_vs_oracle(pairs, n_max, cap=cap)]
    if claim == "triple-formula":
        return [harness.check_triple_formula(n_max)]
    if claim == "chain":
        return [harness.check_chain_conjecture(n_max, cap=cap)]
    check = {
        "growth": harness.check_growth_bounds,
        "insertion": harness.check_insertion_theorem,
        "k-minus-one": harness.check_k_minus_one_question,
    }[claim]
    default = harness.INSERTION_PATTERNS if claim == "insertion" else harness.TABLE_ONE_COLUMNS
    qs = [parse_pattern(a) for a in avoid or default]
    return [check(q, n_max, cap=cap) for q in qs]


def cmd_verify(args: argparse.Namespace, cap: int) -> int:
    n_max = args.n_max if args.n_max is not None else _DEFAULT_N_MAX[args.claim]
    if n_max > CLI_DEFAULT_CAP and args.claim != "triple-formula":
        _warn(args, f"oracle-backed verification up to n = {n_max} can take minutes")
    return _print_reports(_run_claim(args.claim, n_max, cap, args.pair, args.avoid), args.format)


def cmd_conjectures(args: argparse.Namespace, cap: int) -> int:
    n_max = args.n_max
    reports = _run_claim("chain", n_max, cap)
    reports += _run_claim("growth", n_max, cap)
    reports += _run_claim("insertion", min(n_max, 9), cap)
    reports += _run_claim("k-minus-one", n_max, cap)
    return _print_reports(reports, args.format)


def cmd_triples(args: argparse.Namespace, cap: int) -> int:
    rows = []
    for t in enumerate_good_triples(args.n):
        row = {"n": t.n, "a": t.a, "b": t.b, "c": t.c}
        if args.with_perms:
            row["permutation"] = str(permutation_of_triple(t))
        rows.append(row)
    if args.format == "json":
        sys.stdout.write(json.dumps(rows, indent=2) + "\n")
    else:  # tsv
        sys.stdout.write("".join("\t".join(map(str, row.values())) + "\n" for row in rows))
    return 0


def _write_whole(path: str, text: str) -> None:
    """Write ``text`` to ``path`` so that a reader sees the old content or
    all of the new, never part of it: a file beside the target (through any
    symlink) is written, then renamed over it. The file is not fsynced, so
    after a crash the target may still be empty or short. A target that is
    neither a regular file nor missing, such as /dev/stdout or a FIFO,
    cannot be renamed over and is written in place."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
        return
    target = os.path.realpath(path)
    tmp_path = f"{target}.{os.getpid()}.tmp"
    try:
        with open(tmp_path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
        os.replace(tmp_path, target)
    except BaseException:
        try:
            os.remove(tmp_path)
        except OSError:
            pass
        raise


def cmd_export(args: argparse.Namespace, cap: int) -> int:
    seq = OEIS_SEQUENCES.get(args.seq)
    if seq is None:
        known = ", ".join(sorted(OEIS_SEQUENCES))
        raise UnknownSequence(f"unknown sequence {args.seq!r} (supported: {known})")
    ns = range(args.offset, args.n_max + 1)
    if seq.kind == "formula":
        pairs = [(n, seq.formula(n)) for n in ns]
    else:
        check_cap(args.n_max, cap)
        qs = tuple(parse_pattern(lbl) for lbl in seq.pattern_labels)
        pairs = [(n, _oracle_count(n, qs, True, cap, None)) for n in ns]
    text = format_bfile(pairs)
    out_path = args.out or f"b{args.seq[1:]}.txt"
    _write_whole(out_path, text)
    _warn(args, f"wrote {len(pairs)} lines to {out_path}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Exact counts can pass the int-to-str digit limit of Python >= 3.10.7;
    # lift it for this call and put it back, since main may run in process.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return args.run(args, _resolve_cap(args))
    except UsageError as exc:
        print(f"cycperm: error: {exc}", file=sys.stderr)
        return 64
    except CycpermError as exc:
        print(f"cycperm: internal error: {exc}", file=sys.stderr)
        return 1
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
