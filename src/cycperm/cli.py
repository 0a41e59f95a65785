"""Command-line front end.

Subcommands: count (oracle), formula (closed forms), verify (one claim),
conjectures (all open-problem claims), triples (good layer triples),
export (OEIS b-files). Exit codes are a stable contract for CI:

    0   success
    1   theorem/golden mismatch or internal error
    2   conjecture-evidence failure (a finding, not a build failure)
    64  usage error (bad flags, unparseable pattern, above the cap, ...)

Each handler imports the modules it runs, so a command loads only those;
annotations that name their classes are never evaluated.
"""
from __future__ import annotations

import argparse
import os
import sys

from .errors import (
    BadSetting,
    CycpermError,
    LimitExceeded,
    TooSmall,
    UnknownSequence,
    UnsupportedPair,
    UsageError,
)

#: Without --extended the oracle stays in the fast range; --extended
#: unlocks n = 11..DEFAULT_CAP (and prints a runtime warning). An explicit
#: --cap always wins, then the CYCPERM_ORACLE_CAP environment variable.
#: The cap is this module's rule: library calls take none and refuse no n.
CLI_DEFAULT_CAP = 10
DEFAULT_CAP = 13

_ENV_CAP = "CYCPERM_ORACLE_CAP"

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


def _require_parent_dir(flag: str, path: str | None) -> None:
    """An output path must name a file in an existing directory."""
    if not path:
        return
    if os.path.isdir(path):
        raise BadSetting(f"{flag} {path}: is a directory, not a file")
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise BadSetting(f"{flag} {path}: directory {parent} does not exist")


def check_cap(n: int, cap: int) -> None:
    """Refuse an n above the oracle cap, before any search; every cap
    refusal reads this way."""
    if n > cap:
        raise LimitExceeded(
            f"n={n} exceeds the oracle cap {cap}; raise it with --cap/CYCPERM_ORACLE_CAP "
            "or --extended if you accept the runtime"
        )


def _env_int(name: str) -> int | None:
    raw = os.environ.get(name)
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise BadSetting(f"{name} must be an integer, got {raw!r}") from None


def _resolve_cap(args: argparse.Namespace) -> int:
    """Raise the usage errors argparse cannot see, then resolve the oracle
    cap once, before any subcommand runs: --cap, then CYCPERM_ORACLE_CAP,
    then the default (DEFAULT_CAP with --extended, else CLI_DEFAULT_CAP).
    For verify the default also covers the claim's default range, since
    formula-vs-oracle reaches n = 11 and pair-avoider search trees are tiny.
    This is the only code that reads the environment; the handlers enforce
    the cap it returns with check_cap, and no library call sees it."""
    if args.workers is None:
        _env_int(_ENV_WORKERS)
    cache = getattr(args, "cache", None)
    _require_parent_dir("--cache", cache)
    if cache and os.path.exists(cache) and not os.path.isfile(cache):
        # a FIFO would block the lookup's open; a device reads as empty
        raise BadSetting(f"--cache {cache}: not a regular file")
    _require_parent_dir("--out", getattr(args, "out", None))
    default = DEFAULT_CAP if args.extended else CLI_DEFAULT_CAP
    if args.command == "verify":
        default = max(default, _DEFAULT_N_MAX[args.claim])
    if args.cap is not None:
        return args.cap
    env = _env_int(_ENV_CAP)
    return default if env is None else env


# --- oracle result cache -----------------------------------------------------
# One JSON object per line, append-only; concurrent writers rely on whole-line
# records and any torn/corrupt/non-UTF-8 line, or a record whose count is not
# a non-negative integer, is simply treated as a miss.


def _cache_key(n: int, labels: list[str], cyclic: bool) -> str:
    """The record key: a hash of the request and of the kernel version, so
    a count from a replaced kernel is a miss."""
    import json

    # CPython's own SHA-256 module gives the same digest as hashlib, whose
    # import maps OpenSSL's libcrypto and adds megabytes to a cached count.
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10, 3.11
        except ImportError:
            from hashlib import sha256

    from ._kernels import KERNEL_VERSION

    blob = json.dumps({"n": n, "patterns": labels, "cyclic": cyclic, "kernel": KERNEL_VERSION},
                      sort_keys=True)
    return sha256(blob.encode("ascii")).hexdigest()


#: A lookup reads the cache file from its end this many bytes at a time.
_CACHE_BLOCK = 1 << 16


def cache_lookup(path: str, key: str) -> dict | None:
    """The last valid record for ``key``, or None. The file is read from
    its end in blocks, and only the lines that contain the key are parsed,
    last first, until one is valid; memory holds one block and one line. A
    record is valid when its ``"count"`` is a non-negative integer (``true``
    is not)."""
    import json

    needle = key.encode("ascii")
    try:
        with open(path, "rb") as fh:
            pos = fh.seek(0, os.SEEK_END)
            head = b""  # the end of a line whose start is not read yet
            while pos:
                start = max(0, pos - _CACHE_BLOCK)
                fh.seek(start)
                buf = fh.read(pos - start) + head
                pos = start
                # every line that starts in buf[lo:] also ends in buf
                lo = (buf.find(b"\n") + 1 or len(buf)) if start else 0
                head, hi = buf[:lo], len(buf)
                while (at := buf.rfind(needle, lo, hi)) >= 0:
                    hi = buf.rfind(b"\n", 0, at) + 1
                    try:
                        record = json.loads(buf[hi:buf.find(b"\n", at) + 1 or len(buf)])
                    except ValueError:
                        continue
                    if (isinstance(record, dict) and record.get("key") == key
                            and type(record.get("count")) is int and record["count"] >= 0):
                        return record
    except OSError:
        pass
    return None


def cache_append(path: str, record: dict) -> None:
    """Append ``record`` as one line. After a torn last line that lacks its
    newline the record starts on a new line, so it is not glued onto it."""
    import json

    line = json.dumps(record, sort_keys=True).encode("ascii") + b"\n"
    with open(path, "ab+") as fh:
        if fh.seek(0, os.SEEK_END):
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) != b"\n":
                line = b"\n" + line
        fh.write(line)


def _oracle_count(
    n: int, patterns: tuple[Pattern, ...], cyclic: bool, cache_path: str | None
) -> int:
    from .enumeration import EnumerationRequest, run_enumeration
    from .patterns import pattern_label

    if not cache_path:
        return run_enumeration(EnumerationRequest(n, patterns, cyclic)).count
    labels = [pattern_label(q) for q in patterns]
    key = _cache_key(n, labels, cyclic)
    hit = cache_lookup(cache_path, key)
    if hit is not None:
        return hit["count"]
    # A cache that cannot be written is refused before the search; an
    # OSError, such as a name too long, is a usage error.
    try:
        open(cache_path, "ab").close()
        result = run_enumeration(EnumerationRequest(n, patterns, cyclic))
        cache_append(cache_path, {"key": key, "n": n, "patterns": labels, "cyclic": cyclic,
                                  "count": result.count, "nodes": result.nodes_visited})
    except OSError as exc:
        raise BadSetting(f"--cache {cache_path}: {exc.strerror or exc}") from None
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


def _print_reports(reports: list[VerificationReport], fmt: str) -> int:
    """Print the reports. The exit code is 1 if a theorem failed, else 2 if
    conjecture evidence failed, else 0."""
    if fmt == "json":
        import json

        sys.stdout.write(json.dumps([r.to_json_dict() for r in reports], indent=2) + "\n")
    else:
        sys.stdout.write("".join(r.to_text() for r in reports))
    failed = {r.kind for r in reports if not r.passed}
    if "theorem" in failed:
        return 1
    return 2 if "evidence" in failed else 0


def _some_n(args: argparse.Namespace, ns: range) -> range:
    """Refuse a range that holds no n: its table or b-file would be empty."""
    if not ns:
        raise TooSmall(f"{args.command}: the requested range holds no n")
    return ns


def _n_range(args: argparse.Namespace) -> range:
    if args.n is None and args.n_max is None:
        raise BadSetting("one of --n / --n-max is required")
    first = 1 if args.n is None else args.n
    last = args.n if args.n_max is None else args.n_max
    return _some_n(args, range(first, last + 1))


def _pair(text: str | None) -> PairFormulaId:
    from .formulas import pair_id_from_labels

    first, _, second = (text or "").partition(",")
    if not second:
        raise UnsupportedPair(f"--pair wants the form Q1,Q2, got {text!r}")
    return pair_id_from_labels(first, second)


def cmd_count(args: argparse.Namespace, cap: int) -> int:
    from .patterns import parse_pattern_set, pattern_set_label
    from .tables import CountTable

    qs = parse_pattern_set(args.avoid)
    label = pattern_set_label(qs)
    ns = _n_range(args)
    check_cap(ns[-1], cap)  # refuse the whole range before any cache lookup or search
    if any(n > CLI_DEFAULT_CAP for n in ns):
        _warn(args, f"oracle runs above n = {CLI_DEFAULT_CAP} can take minutes (cap {cap})")
    table = CountTable(columns=(label,))
    for n in ns:
        table.set(n, label, _oracle_count(n, qs, not args.all, args.cache), "oracle")
    return _print_table(table, args.format)


def cmd_formula(args: argparse.Namespace, cap: int) -> int:
    from .formulas import pair_count
    from .tables import CountTable

    pair = _pair(args.pair)
    table = CountTable(columns=(pair.value,))
    for n in _n_range(args):
        table.set(n, pair.value, pair_count(pair, n), "formula")
    return _print_table(table, args.format)


def _claim_calls(
    claim: str, n_max: int, cap: int, pair: str | None = None, avoid: list | None = None
) -> list[tuple]:
    """The checks one claim runs over n <= n_max, each with its arguments.
    ``pair`` restricts formula-vs-oracle to one pair; ``avoid`` replaces the
    default patterns of the per-pattern claims. The arguments are parsed
    first, then every oracle claim is refused above the cap."""
    from . import harness
    from .patterns import parse_pattern

    if claim == "triple-formula":
        return [(harness.check_triple_formula, n_max)]
    # each call is a check and its arguments before n_max
    if claim == "formula-vs-oracle":
        calls = [(harness.check_formula_vs_oracle, [_pair(pair)] if pair else None)]
    elif claim == "table1":
        calls = [(harness.check_table_one,)]
    elif claim == "chain":
        calls = [(harness.check_chain_conjecture,)]
    else:
        check = {
            "growth": harness.check_growth_bounds,
            "insertion": harness.check_insertion_theorem,
            "k-minus-one": harness.check_k_minus_one_question,
        }[claim]
        default = harness.INSERTION_PATTERNS if claim == "insertion" else harness.TABLE_ONE_COLUMNS
        calls = [(check, parse_pattern(a)) for a in avoid or default]
    check_cap(n_max, cap)
    return [(*call, n_max) for call in calls]


def cmd_verify(args: argparse.Namespace, cap: int) -> int:
    n_max = args.n_max if args.n_max is not None else _DEFAULT_N_MAX[args.claim]
    calls = _claim_calls(args.claim, n_max, cap, args.pair, args.avoid)
    if n_max > CLI_DEFAULT_CAP and args.claim != "triple-formula":
        _warn(args, f"oracle-backed verification up to n = {n_max} can take minutes")
    return _print_reports([run(*rest) for run, *rest in calls], args.format)


def cmd_conjectures(args: argparse.Namespace, cap: int) -> int:
    n_max = args.n_max
    calls = _claim_calls("chain", n_max, cap)
    calls += _claim_calls("growth", n_max, cap)
    calls += _claim_calls("insertion", min(n_max, _DEFAULT_N_MAX["insertion"]), cap)
    calls += _claim_calls("k-minus-one", n_max, cap)
    return _print_reports([run(*rest) for run, *rest in calls], args.format)


def cmd_triples(args: argparse.Namespace, cap: int) -> int:
    from .layered import enumerate_good_triples, permutation_of_triple

    rows = []
    for t in enumerate_good_triples(args.n):
        row = {"n": t.n, "a": t.a, "b": t.b, "c": t.c}
        if args.with_perms:
            row["permutation"] = str(permutation_of_triple(t))
        rows.append(row)
    if args.format == "json":
        import json

        sys.stdout.write(json.dumps(rows, indent=2) + "\n")
    else:  # tsv
        sys.stdout.write("".join("\t".join(map(str, row.values())) + "\n" for row in rows))
    return 0


def _write_whole(path: str, text: str) -> None:
    """Write ``text`` to ``path`` so that a reader sees the old content or
    all of the new, never part of it: ``.cycperm-<pid>.tmp`` beside the
    target (through any symlink) is written, then renamed over it; that
    name is short, so it fits wherever the target's does. It is not
    fsynced, so after a crash the target may still be empty or short. A
    target that is neither a regular file nor missing, such as /dev/stdout
    or a FIFO, cannot be renamed over and is written in place."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
        return
    target = os.path.realpath(path)
    tmp_path = os.path.join(os.path.dirname(target), f".cycperm-{os.getpid()}.tmp")
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
    from .formulas import OEIS_SEQUENCES, format_bfile

    labels = OEIS_SEQUENCES.get(args.seq)
    if labels is None:
        known = ", ".join(sorted(OEIS_SEQUENCES))
        raise UnknownSequence(f"unknown sequence {args.seq!r} (supported: {known})")
    if len(labels) == 1:
        check_cap(args.n_max, cap)
    ns = _some_n(args, range(args.offset, args.n_max + 1))
    if len(labels) == 2:
        from .formulas import pair_count, pair_id_from_labels

        pair = pair_id_from_labels(*labels)
        rows = [(n, pair_count(pair, n)) for n in ns]
    else:
        from .patterns import parse_pattern

        qs = (parse_pattern(labels[0]),)
        rows = [(n, _oracle_count(n, qs, True, None)) for n in ns]
    out_path = args.out or f"b{args.seq[1:]}.txt"
    try:
        _write_whole(out_path, format_bfile(rows))
    except OSError as exc:
        raise BadSetting(f"--out {out_path}: {exc.strerror or exc}") from None
    _warn(args, f"wrote {len(rows)} lines to {out_path}")
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
