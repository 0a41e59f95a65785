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
from dataclasses import dataclass
from typing import Optional

from . import harness
from .enumeration import (
    DEFAULT_CAP,
    EnumerationRequest,
    _env_int,
    configured_cap,
    run_enumeration,
)
from .errors import (
    BadPattern,
    BadSetting,
    CycpermError,
    LimitExceeded,
    UnknownSequence,
    UnsupportedPair,
    UsageError,
)
from .formulas import OEIS_SEQUENCES, PairFormulaId, format_bfile, pair_count, pair_id_from_labels
from .layered import enumerate_good_triples, permutation_of_triple
from .patterns import parse_pattern, parse_pattern_set, pattern_set_label
from .tables import CountTable

#: Without --extended the oracle stays in the fast range; --extended
#: unlocks n = 11..DEFAULT_CAP (and prints a runtime warning). An explicit
#: --cap always wins, then the CYCPERM_ORACLE_CAP environment variable.
CLI_DEFAULT_CAP = 10

#: Accepted, like --workers, for compatibility only; the search runs on one
#: thread. A value that is not an integer is still a usage error.
_ENV_WORKERS = "CYCPERM_WORKERS"

_CLAIMS = {
    "table1": "TableOne",
    "formula-vs-oracle": "FormulaVsOracle",
    "triple-formula": "TripleFormula",
    "chain": "ChainConjecture",
    "growth": "GrowthBounds",
    "insertion": "InsertionTheorem",
    "k-minus-one": "KMinusOneQuestion",
}

_DEFAULT_N_MAX = {
    "table1": 10,
    "formula-vs-oracle": 11,
    "triple-formula": 60,
    "chain": 10,
    "growth": 10,
    "insertion": 9,
    "k-minus-one": 10,
}

#: A claim's default range always runs, cap or not, unless --cap was given
#: explicitly (formula-vs-oracle reaches n = 11, but pair-avoider search
#: trees are tiny, so the factorial-cost rationale for the cap is moot).
_ORACLE_CLAIMS = ("table1", "formula-vs-oracle", "chain", "growth", "insertion", "k-minus-one")


@dataclass
class RunConfig:
    """Resolved invocation settings shared by the subcommand handlers."""

    command: str
    n: Optional[int] = None
    n_max: Optional[int] = None
    avoid: tuple[str, ...] = ()
    pair: Optional[str] = None
    count_all: bool = False
    claim: Optional[str] = None
    seq: Optional[str] = None
    offset: Optional[int] = None
    out: Optional[str] = None
    output_format: str = "tsv"
    oracle_cap: int = CLI_DEFAULT_CAP
    cap_explicit: bool = False
    cache_path: Optional[str] = None
    extended: bool = False
    quiet: bool = False
    with_perms: bool = False


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; the contract is 64
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _warn(cfg: RunConfig, message: str) -> None:
    if not cfg.quiet:
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
    p.add_argument("--n", type=int)
    p.add_argument("--n-max", type=int)
    p.add_argument("--avoid", action="append", required=True, metavar="PATTERN")
    p.add_argument("--all", action="store_true", help="count all avoiders, not only cyclic ones")
    p.add_argument("--cache", metavar="PATH", help="JSON-lines oracle result cache")
    common(p)

    p = sub.add_parser("formula", help="closed-form pair counts")
    p.add_argument("--pair", required=True, metavar="Q1,Q2")
    p.add_argument("--n", type=int)
    p.add_argument("--n-max", type=int)
    common(p)

    p = sub.add_parser("verify", help="check one claim over a range")
    p.add_argument("--claim", required=True, choices=sorted(_CLAIMS))
    p.add_argument("--n-max", type=int)
    p.add_argument("--pair", metavar="Q1,Q2", help="restrict formula-vs-oracle to one pair")
    p.add_argument("--avoid", action="append", metavar="PATTERN",
                   help="pattern for growth/insertion/k-minus-one claims")
    common(p, formats=("text", "json"))

    p = sub.add_parser("conjectures", help="verify every open-problem claim")
    p.add_argument("--n-max", type=int, default=10)
    common(p, formats=("text", "json"))

    p = sub.add_parser("triples", help="good layer triples for one n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--with-perms", action="store_true", help="attach the layered permutation")
    common(p, formats=("tsv", "json"))

    p = sub.add_parser("export", help="write an OEIS b-file")
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


def _config_from_args(args) -> RunConfig:
    if args.workers is None:
        _env_int(_ENV_WORKERS)
    _require_parent_dir("--cache", getattr(args, "cache", None))
    _require_parent_dir("--out", getattr(args, "out", None))
    return RunConfig(
        command=args.command,
        n=getattr(args, "n", None),
        n_max=getattr(args, "n_max", None),
        avoid=tuple(getattr(args, "avoid", None) or ()),
        pair=getattr(args, "pair", None),
        count_all=getattr(args, "all", False),
        claim=getattr(args, "claim", None),
        seq=getattr(args, "seq", None),
        offset=getattr(args, "offset", None),
        out=getattr(args, "out", None),
        output_format=args.format,
        oracle_cap=configured_cap(
            args.cap, default=DEFAULT_CAP if args.extended else CLI_DEFAULT_CAP
        ),
        cap_explicit=args.cap is not None,
        cache_path=getattr(args, "cache", None),
        extended=args.extended,
        quiet=args.quiet,
        with_perms=getattr(args, "with_perms", False),
    )


# --- oracle result cache -----------------------------------------------------
# One JSON object per line, append-only; concurrent writers rely on whole-line
# records and any torn/corrupt/non-UTF-8 line is simply treated as a miss.


def _cache_key(n: int, labels: tuple[str, ...], cyclic: bool) -> str:
    blob = json.dumps({"n": n, "patterns": list(labels), "cyclic": cyclic}, sort_keys=True)
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def cache_lookup(path: str, key: str) -> Optional[dict]:
    """The last valid record for ``key``, or None. Lines are streamed as
    bytes and only those that contain the key are parsed."""
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
                if isinstance(record, dict) and record.get("key") == key:
                    hit = record
    except OSError:
        return None
    return hit


def cache_append(path: str, record: dict) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def _oracle_count(cfg: RunConfig, n: int, labels: tuple[str, ...], cyclic: bool) -> int:
    key = _cache_key(n, labels, cyclic)
    if cfg.cache_path:
        hit = cache_lookup(cfg.cache_path, key)
        if hit is not None:
            return int(hit["count"])
    req = EnumerationRequest(
        n=n,
        patterns=tuple(parse_pattern(lbl) for lbl in labels),
        cyclic_only=cyclic,
    )
    result = run_enumeration(req, cap=cfg.oracle_cap)
    if cfg.cache_path:
        cache_append(
            cfg.cache_path,
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


# --- subcommands -------------------------------------------------------------


def _n_range(cfg: RunConfig, lowest: int = 1) -> list[int]:
    if cfg.n is not None and cfg.n_max is not None:
        return list(range(cfg.n, cfg.n_max + 1))
    if cfg.n is not None:
        return [cfg.n]
    if cfg.n_max is not None:
        return list(range(lowest, cfg.n_max + 1))
    raise BadPattern("one of --n / --n-max is required")


def cmd_count(cfg: RunConfig) -> CountTable:
    qs = parse_pattern_set(cfg.avoid)
    label = pattern_set_label(qs)
    labels = tuple(label.split(","))
    ns = _n_range(cfg)
    if any(n > 10 for n in ns):
        _warn(cfg, f"oracle runs above n = 10 can take minutes (cap {cfg.oracle_cap})")
    table = CountTable(columns=(label,))
    for n in ns:
        table.set(n, label, _oracle_count(cfg, n, labels, not cfg.count_all), "oracle")
    return table


def cmd_formula(cfg: RunConfig) -> CountTable:
    first, _, second = (cfg.pair or "").partition(",")
    if not second:
        raise UnsupportedPair(f"--pair wants the form Q1,Q2, got {cfg.pair!r}")
    pair = pair_id_from_labels(first, second)
    table = CountTable(columns=(pair.value,))
    for n in _n_range(cfg):
        table.set(n, pair.value, pair_count(pair, n), "formula")
    return table


def _claim_patterns(cfg: RunConfig, claim_key: str) -> list:
    if cfg.avoid:
        return [parse_pattern(a) for a in cfg.avoid]
    if claim_key == "insertion":
        return [parse_pattern(lbl) for lbl in harness.INSERTION_PATTERNS]
    return [parse_pattern(lbl) for lbl in harness.TABLE_ONE_COLUMNS]


def cmd_verify(cfg: RunConfig) -> list[harness.VerificationReport]:
    claim_key = cfg.claim
    n_max = cfg.n_max if cfg.n_max is not None else _DEFAULT_N_MAX[claim_key]
    if n_max > 10 and claim_key != "triple-formula":
        _warn(cfg, f"oracle-backed verification up to n = {n_max} can take minutes")
    cap = cfg.oracle_cap
    if not cfg.cap_explicit and claim_key in _ORACLE_CLAIMS:
        cap = max(cap, _DEFAULT_N_MAX[claim_key])
    kwargs = {"cap": cap}
    if claim_key == "table1":
        return [harness.check_table_one(n_max, **kwargs)]
    if claim_key == "formula-vs-oracle":
        pairs = None
        if cfg.pair:
            first, _, second = cfg.pair.partition(",")
            pairs = [pair_id_from_labels(first, second)]
        return [harness.check_formula_vs_oracle(pairs, n_max, **kwargs)]
    if claim_key == "triple-formula":
        return [harness.check_triple_formula(n_max)]
    if claim_key == "chain":
        return [harness.check_chain_conjecture(n_max, **kwargs)]
    if claim_key == "growth":
        return [harness.check_growth_bounds(q, n_max, **kwargs) for q in _claim_patterns(cfg, claim_key)]
    if claim_key == "insertion":
        return [harness.check_insertion_theorem(q, n_max, **kwargs) for q in _claim_patterns(cfg, claim_key)]
    if claim_key == "k-minus-one":
        return [
            harness.check_k_minus_one_question(q, n_max, **kwargs)
            for q in _claim_patterns(cfg, claim_key)
        ]
    raise BadPattern(f"unknown claim {claim_key!r}")


def cmd_conjectures(cfg: RunConfig) -> list[harness.VerificationReport]:
    n_max = cfg.n_max if cfg.n_max is not None else 10
    kwargs = {"cap": cfg.oracle_cap}
    reports = [harness.check_chain_conjecture(n_max, **kwargs)]
    for lbl in harness.TABLE_ONE_COLUMNS:
        reports.append(harness.check_growth_bounds(parse_pattern(lbl), n_max, **kwargs))
    for lbl in harness.INSERTION_PATTERNS:
        reports.append(
            harness.check_insertion_theorem(parse_pattern(lbl), min(n_max, 9), **kwargs)
        )
    for lbl in harness.TABLE_ONE_COLUMNS:
        reports.append(harness.check_k_minus_one_question(parse_pattern(lbl), n_max, **kwargs))
    return reports


def cmd_triples(cfg: RunConfig) -> list:
    return enumerate_good_triples(cfg.n)


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


def cmd_export(cfg: RunConfig) -> str:
    seq = OEIS_SEQUENCES.get(cfg.seq)
    if seq is None:
        known = ", ".join(sorted(OEIS_SEQUENCES))
        raise UnknownSequence(f"unknown sequence {cfg.seq!r} (supported: {known})")
    ns = range(cfg.offset, cfg.n_max + 1)
    if seq.kind == "formula":
        pairs = [(n, seq.formula(n)) for n in ns]
    else:
        if cfg.n_max > cfg.oracle_cap:
            raise LimitExceeded(
                f"sequence {seq.ident} is oracle-backed; n_max={cfg.n_max} exceeds "
                f"the cap {cfg.oracle_cap}"
            )
        pairs = [(n, _oracle_count(cfg, n, seq.pattern_labels, True)) for n in ns]
    text = format_bfile(pairs)
    out_path = cfg.out or f"b{cfg.seq[1:]}.txt"
    _write_whole(out_path, text)
    _warn(cfg, f"wrote {len(pairs)} lines to {out_path}")
    return out_path


# --- rendering and dispatch --------------------------------------------------


def _render_table(table: CountTable, fmt: str) -> str:
    if fmt == "json":
        return table.to_json() + "\n"
    if fmt == "text":
        return table.to_text()
    return table.to_tsv()


def _render_reports(reports, fmt: str) -> str:
    if fmt == "json":
        return json.dumps([r.to_json_dict() for r in reports], indent=2) + "\n"
    return "".join(r.to_text() for r in reports)


def _render_triples(cfg: RunConfig, triples) -> str:
    if cfg.output_format == "json":
        payload = []
        for t in triples:
            item = {"n": t.n, "a": t.a, "b": t.b, "c": t.c}
            if cfg.with_perms:
                item["permutation"] = str(permutation_of_triple(t))
            payload.append(item)
        return json.dumps(payload, indent=2) + "\n"
    lines = []
    for t in triples:
        row = f"{t.n}\t{t.a}\t{t.b}\t{t.c}"
        if cfg.with_perms:
            row += f"\t{permutation_of_triple(t)}"
        lines.append(row)
    return "\n".join(lines) + "\n" if lines else ""


def _exit_code_for(reports) -> int:
    theorem_fail = any(r.kind == "theorem" and not r.passed for r in reports)
    evidence_fail = any(r.kind == "evidence" and not r.passed for r in reports)
    if theorem_fail:
        return 1
    if evidence_fail:
        return 2
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if cfg.command == "count":
            sys.stdout.write(_render_table(cmd_count(cfg), cfg.output_format))
            return 0
        if cfg.command == "formula":
            sys.stdout.write(_render_table(cmd_formula(cfg), cfg.output_format))
            return 0
        if cfg.command in ("verify", "conjectures"):
            runner = cmd_verify if cfg.command == "verify" else cmd_conjectures
            reports = runner(cfg)
            sys.stdout.write(_render_reports(reports, cfg.output_format))
            return _exit_code_for(reports)
        if cfg.command == "triples":
            sys.stdout.write(_render_triples(cfg, cmd_triples(cfg)))
            return 0
        if cfg.command == "export":
            cmd_export(cfg)
            return 0
        raise AssertionError(f"unhandled command {cfg.command}")
    except UsageError as exc:
        print(f"cycperm: error: {exc}", file=sys.stderr)
        return 64
    except CycpermError as exc:
        print(f"cycperm: internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
