"""End-to-end CLI behaviour: formats, exit codes, cache, env overrides."""
import contextlib
import decimal
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cycperm import cli
from cycperm.errors import BadSetting


def run_cli(*args, env_extra=None, cwd=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "cycperm", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


# Each subcommand imports only what it runs. The child reports the modules
# that running the command added, so what the interpreter loads at start-up
# on a given machine does not count.
_MODULES_ADDED = """
import runpy, sys
before = set(sys.modules)
sys.argv = ["cycperm", *sys.argv[1:]]
try:
    runpy.run_module("cycperm", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    print(exc.code, *sorted(set(sys.modules) - before))
"""
# no command builds its records with the standard library's generator, and
# none loads hashlib, whose _hashlib maps OpenSSL's libcrypto
_NOT_FOR_ANY = ("dataclasses", "inspect", "hashlib", "_hashlib")
_NOT_FOR_CLOSED_FORMS = ("cycperm.enumeration", "cycperm._kernels", "cycperm.harness",
                         "cycperm.layered", "fractions")
_NOT_FOR_COUNTS = ("cycperm.harness", "cycperm.formulas", "cycperm.layered")


@pytest.mark.parametrize("args, runs, absent", [
    (("formula", "--pair", "123,231", "--n", "5"), "cycperm.formulas", _NOT_FOR_CLOSED_FORMS),
    (("export", "--seq", "A309563", "--n-max", "9", "--offset", "1", "--out", "{out}"),
     "cycperm.formulas", _NOT_FOR_CLOSED_FORMS),
    (("count", "--n", "6", "--avoid", "123"), "cycperm.enumeration", _NOT_FOR_COUNTS),
    # the cache holds no record for this count, so it searches
    (("count", "--n", "6", "--avoid", "123", "--cache", "{cache}"), "cycperm.enumeration",
     _NOT_FOR_COUNTS),
    (("triples", "--n", "9"), "cycperm.layered",
     ("cycperm.enumeration", "cycperm._kernels", "cycperm.harness", "cycperm.formulas")),
    (("verify", "--claim", "triple-formula", "--n-max", "12"), "cycperm.harness", ()),
    (("conjectures", "--n-max", "5"), "cycperm.harness", ()),
], ids=["formula", "export", "count", "count-cache", "triples", "verify", "conjectures"])
def test_subcommand_loads_only_what_it_runs(tmp_path, args, runs, absent):
    (tmp_path / "c.jsonl").write_text(json.dumps({"key": "ab" * 32, "count": 1}) + "\n")
    argv = [a.replace("{out}", str(tmp_path / "b.txt")).replace("{cache}", str(tmp_path / "c.jsonl"))
            for a in args]
    proc = subprocess.run([sys.executable, "-c", _MODULES_ADDED, *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, *added = proc.stdout.splitlines()[-1].split()
    assert code == "0", proc.stderr
    assert runs in added
    assert sorted(set(absent + _NOT_FOR_ANY) & set(added)) == []


def test_count_single_cell():
    proc = run_cli("count", "--n", "8", "--avoid", "123")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "n\t123\n8\t188\n"


def test_count_all_avoiders_flag():
    proc = run_cli("count", "--n", "6", "--avoid", "123", "--avoid", "231", "--all")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "6\t16"


_EXPORT_A309504 = ("export", "--seq", "A309504", "--n-max", "12", "--out", "{out}")


# every command refuses an n above the cap with the same text; the empty
# export range (offset 13) pins that the refusal comes before any search
@pytest.mark.parametrize("args", [
    pytest.param(("count", "--n", "99", "--avoid", "123"), id="count"),
    pytest.param(("verify", "--claim", "chain", "--n-max", "12"), id="verify"),
    pytest.param(_EXPORT_A309504 + ("--offset", "3"), id="export"),
    pytest.param(_EXPORT_A309504 + ("--offset", "13"), id="export-empty-range"),
])
def test_count_above_cap_is_usage_error(tmp_path, args):
    out = str(tmp_path / "b309504.txt")
    proc = run_cli(*(a.replace("{out}", out) for a in args))
    assert proc.returncode == 64
    assert "exceeds the oracle cap" in proc.stderr
    assert "raise it with" in proc.stderr


def test_cached_count_above_cap_is_refused(tmp_path):
    cache = tmp_path / "c.jsonl"
    key = cli._cache_key(11, ("231",), True)
    cli.cache_append(str(cache), {"key": key, "n": 11, "patterns": ["231"],
                                  "cyclic": True, "count": 2274})
    proc = run_cli("count", "--n", "11", "--avoid", "231", "--cache", str(cache))
    assert proc.returncode == 64
    assert "exceeds the oracle cap" in proc.stderr
    assert proc.stdout == ""


def test_count_refuses_whole_range_before_searching(tmp_path):
    cache = tmp_path / "c.jsonl"
    proc = run_cli("count", "--n", "8", "--n-max", "11", "--avoid", "231", "--cache", str(cache))
    assert proc.returncode == 64
    assert "exceeds the oracle cap" in proc.stderr
    assert not cache.exists()  # n = 8..10 were not searched and cached first


@pytest.mark.parametrize("text", ["1,2", "12a"])
def test_an_unparseable_pattern_is_named_once(text):
    proc = run_cli("count", "--n", "3", "--avoid", text)
    assert (proc.returncode, proc.stdout) == (64, "")
    assert proc.stderr == f"cycperm: error: cannot parse pattern {text!r}\n"


def test_env_cap_binds_verify():
    args = ("verify", "--claim", "chain", "--n-max", "8")
    proc = run_cli(*args, env_extra={"CYCPERM_ORACLE_CAP": "5"})
    assert proc.returncode == 64
    assert proc.stderr.startswith("cycperm: error:")
    flag_wins = run_cli(*args, "--cap", "8", env_extra={"CYCPERM_ORACLE_CAP": "5"})
    assert flag_wins.returncode == 0, flag_wins.stderr


def test_count_range_json_round_trips():
    proc = run_cli("count", "--n", "3", "--n-max", "6", "--avoid", "321", "--format", "json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["columns"] == ["321"]
    assert [(row["n"], row["cells"]["321"]) for row in payload["rows"]] == [
        (n, {"count": count, "provenance": "oracle"})
        for n, count in ((3, 2), (4, 4), (5, 10), (6, 24))]


def test_formula_command():
    proc = run_cli("formula", "--pair", "123,231", "--n", "26")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1] == "26\t18"
    proc = run_cli("formula", "--pair", "123,132", "--n", "9")
    assert proc.stdout.splitlines()[1] == "9\t16"


def test_formula_prints_large_counts(capsys):
    # both counts pass Python's default 4,300-digit int-to-str limit; Decimal
    # checks them without that limit, and main puts the limit back on return
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    with decimal.localcontext() as ctx:
        ctx.prec = 10_000  # exact for both
        two = decimal.Decimal(2)
        want_123_132 = str(two ** 14999)
        # odd divisors of 20000: 1, 5, and 25, 125, 625 where mu is 0
        want_132_231 = (two ** 20000 - two ** 4000) / 40000
    assert len(want_123_132) == 4516
    assert cli.main(["formula", "--pair", "123,132", "--n", "30000"]) == 0
    assert capsys.readouterr().out == f"n\t123,132\n30000\t{want_123_132}\n"
    assert cli.main(["formula", "--pair", "132,231", "--n", "20000", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out, parse_int=decimal.Decimal)
    assert payload["rows"][0]["cells"]["132,231"]["count"] == want_132_231
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit


def test_formula_unsupported_pair():
    proc = run_cli("formula", "--pair", "132,213", "--n", "9")
    assert proc.returncode == 64
    assert "132,213" in proc.stderr


def test_bad_pattern_is_usage_error():
    proc = run_cli("count", "--n", "4", "--avoid", "1x3")
    assert proc.returncode == 64


def test_missing_subcommand_is_usage_error():
    proc = run_cli()
    assert proc.returncode == 64


def test_verify_table1():
    proc = run_cli("verify", "--claim", "table1", "--n-max", "10")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("TableOne: pass")


def test_verify_json_format():
    proc = run_cli("verify", "--claim", "growth", "--avoid", "321", "--n-max", "7",
                   "--format", "json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload[0]["claim"] == "GrowthBounds"
    assert payload[0]["passed"] is True


def test_verify_formula_vs_oracle_single_pair():
    # the claim's default range reaches n = 11 even without --extended;
    # pair-restricted search trees stay tiny
    proc = run_cli("verify", "--claim", "formula-vs-oracle", "--pair", "123,231",
                   "--n-max", "11")
    assert proc.returncode == 0, proc.stderr
    assert "FormulaVsOracle: pass" in proc.stdout


def test_verify_explicit_cap_is_binding():
    proc = run_cli("verify", "--claim", "formula-vs-oracle", "--pair", "123,231",
                   "--n-max", "11", "--cap", "8")
    assert proc.returncode == 64


_ORACLE_CLAIMS = sorted(set(cli._DEFAULT_N_MAX) - {"triple-formula"})
_CAP_REFUSAL = ("cycperm: error: n={n} exceeds the oracle cap {cap}; raise it with "
                "--cap/CYCPERM_ORACLE_CAP or --extended if you accept the runtime\n")


# the CLI alone enforces the cap, so it must refuse before the library runs
@pytest.mark.parametrize("argv", [
    *(["verify", "--claim", claim, "--n-max", "6", "--cap", "5"] for claim in _ORACLE_CLAIMS),
    ["conjectures", "--n-max", "6", "--cap", "5"],
], ids=[*_ORACLE_CLAIMS, "conjectures"])
def test_oracle_claims_are_refused_above_the_cap_before_any_search(monkeypatch, capsys, argv):
    from cycperm import enumeration, harness

    def no_search(*args, **kwargs):
        raise AssertionError("searched above the cap")

    for module, name in ((harness, "cyclic_count"), (harness, "run_enumeration"),
                         (enumeration, "run_enumeration")):
        monkeypatch.setattr(module, name, no_search)
    assert cli.main(argv) == 64
    assert capsys.readouterr() == ("", _CAP_REFUSAL.format(n=6, cap=5))


# with two usage errors the cap is reported first, ahead of the claim's own
# limit (Table 1's reference data ends at n = 12) or precondition
@pytest.mark.parametrize("argv", [
    ["verify", "--claim", "table1", "--n-max", "13"],
    ["verify", "--claim", "growth", "--avoid", "4321", "--n-max", "13"],
], ids=["table1", "growth"])
def test_the_cap_is_the_first_of_two_usage_errors(capsys, argv):
    assert cli.main([*argv, "--quiet"]) == 64
    assert capsys.readouterr() == ("", _CAP_REFUSAL.format(n=13, cap=10))


# a claim whose range holds no n would pass without evidence
@pytest.mark.parametrize("argv, claim", [
    (["verify", "--claim", "insertion", "--avoid", "4231", "--n-max", "3"], "InsertionTheorem"),
    (["verify", "--claim", "table1", "--n-max", "2"], "TableOne"),
    (["verify", "--claim", "triple-formula", "--n-max", "2"], "TripleFormula"),
    (["conjectures", "--n-max", "3"], "GrowthBounds"),
], ids=["insertion", "table1", "triple-formula", "conjectures"])
def test_a_claim_over_an_empty_range_is_refused(capsys, argv, claim):
    assert cli.main(argv) == 64
    assert capsys.readouterr() == (
        "", f"cycperm: error: {claim}: the requested range holds no n to check\n")


# a count, formula or export whose range holds no n would print a bare
# header, or replace the b-file with an empty one
@pytest.mark.parametrize("argv", [
    ["count", "--n", "3", "--n-max", "2", "--avoid", "123"],
    ["formula", "--pair", "123,231", "--n-max", "0"],
    ["export", "--seq", "A309563", "--n-max", "3", "--offset", "5", "--out", "{out}"],
], ids=["count", "formula", "export"])
def test_a_command_over_an_empty_range_is_refused(tmp_path, capsys, argv):
    out = tmp_path / "b309563.txt"
    out.write_text("old\n")
    assert cli.main([a.replace("{out}", str(out)) for a in argv]) == 64
    assert capsys.readouterr() == (
        "", f"cycperm: error: {argv[0]}: the requested range holds no n\n")
    assert out.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == [out.name]


@pytest.mark.parametrize("argv", [["count", "--avoid", "123"], ["formula", "--pair", "123,231"]],
                         ids=["count", "formula"])
def test_count_and_formula_need_an_n(capsys, argv):
    assert cli.main(argv) == 64
    assert capsys.readouterr() == ("", "cycperm: error: one of --n / --n-max is required\n")
    with pytest.raises(BadSetting):
        cli._n_range(cli.build_parser().parse_args(argv))


def test_conjectures_from_the_smallest_nonempty_range_pass(capsys):
    assert cli.main(["conjectures", "--n-max", "4"]) == 0
    out = capsys.readouterr().out
    assert out.count(": pass") == 18 and "FAIL" not in out


def test_verify_triple_formula():
    proc = run_cli("verify", "--claim", "triple-formula", "--n-max", "30")
    assert proc.returncode == 0


def test_triples_listing():
    proc = run_cli("triples", "--n", "14")
    assert proc.returncode == 0
    rows = proc.stdout.splitlines()
    assert "14\t7\t3\t4" in rows
    proc17 = run_cli("triples", "--n", "17")
    assert "17\t7\t3\t7" not in proc17.stdout.splitlines()


def test_triples_too_small():
    proc = run_cli("triples", "--n", "2")
    assert proc.returncode == 64


def test_triples_with_perms_json():
    proc = run_cli("triples", "--n", "9", "--with-perms", "--format", "json")
    items = json.loads(proc.stdout)
    assert {"n": 9, "a": 4, "b": 2, "c": 3, "permutation": "9 8 7 6 2 1 5 4 3"} in items


def test_export_bfile_byte_stable(tmp_path):
    out = tmp_path / "b309563.txt"
    first = run_cli("export", "--seq", "A309563", "--n-max", "100", "--offset", "1",
                    "--out", str(out))
    assert first.returncode == 0, first.stderr
    blob1 = out.read_bytes()
    second = run_cli("export", "--seq", "A309563", "--n-max", "100", "--offset", "1",
                     "--out", str(out))
    assert second.returncode == 0
    assert out.read_bytes() == blob1
    lines = blob1.decode("ascii").splitlines()
    assert len(lines) == 100
    assert lines[0] == "1 1"
    assert lines[25] == "26 18"
    assert blob1.endswith(b"\n") and not blob1.endswith(b"\n\n")


def test_export_oracle_backed(tmp_path):
    out = tmp_path / "b309504.txt"
    proc = run_cli("export", "--seq", "A309504", "--n-max", "8", "--offset", "3",
                   "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert out.read_text() == "3 2\n4 4\n5 10\n6 24\n7 68\n8 188\n"


def test_export_replaces_existing_file_whole(tmp_path):
    out = tmp_path / "b309563.txt"
    out.write_text("stale\n" * 1000)
    proc = run_cli("export", "--seq", "A309563", "--n-max", "5", "--offset", "1",
                   "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert out.read_text() == "1 1\n2 1\n3 1\n4 1\n5 2\n"
    assert [p.name for p in tmp_path.iterdir()] == [out.name]


def test_export_failed_rename_keeps_old_file(tmp_path, monkeypatch, capsys):
    out = tmp_path / "b309563.txt"
    out.write_text("old\n")

    def fail(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(cli.os, "replace", fail)
    assert cli.main(["export", "--seq", "A309563", "--n-max", "5", "--offset", "1",
                     "--quiet", "--out", str(out)]) == 64
    assert capsys.readouterr() == ("", f"cycperm: error: --out {out}: rename refused\n")
    assert out.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == [out.name]


def test_export_to_a_long_name_fits_its_temporary_file(tmp_path):
    out = tmp_path / ("b" * 254)  # a valid name; with a suffix it would not be
    proc = run_cli("export", "--seq", "A309563", "--n-max", "5", "--offset", "1",
                   "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert out.read_text() == "1 1\n2 1\n3 1\n4 1\n5 2\n"
    assert [p.name for p in tmp_path.iterdir()] == [out.name]


@pytest.mark.parametrize("argv", [
    ("export", "--seq", "A309563", "--n-max", "5", "--offset", "1", "--out"),
    ("count", "--n", "5", "--avoid", "123", "--cache"),
], ids=["out", "cache"])
def test_a_write_the_os_refuses_exits_64(tmp_path, argv):
    path = str(tmp_path / ("x" * 300))  # longer than any file name may be
    proc = run_cli(*argv, path)
    assert proc.returncode == 64
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"cycperm: error: {argv[-1]} {path}: ")
    assert proc.stderr.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_unwritable_cache_is_refused_before_the_search(tmp_path, monkeypatch, capsys):
    from cycperm import enumeration

    def no_search(*args, **kwargs):
        raise AssertionError("searched before refusing the cache")

    monkeypatch.setattr(enumeration, "run_enumeration", no_search)
    path = str(tmp_path / ("x" * 300))
    assert cli.main(["count", "--n", "5", "--avoid", "123", "--cache", path]) == 64
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"cycperm: error: --cache {path}: ")


@pytest.mark.skipif(hasattr(os, "geteuid") and os.geteuid() == 0,
                    reason="root ignores the mode bits")
def test_read_only_cache_still_serves_its_hits(tmp_path, capsys):
    cache = tmp_path / "c.jsonl"
    argv = ["count", "--n", "5", "--avoid", "123", "--cache", str(cache)]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    cache.chmod(0o444)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == first == "n\t123\n5\t10\n"


@pytest.mark.parametrize("seq, argv", [
    ("A309563", ("formula", "--pair", "123,231")),
    ("A309504", ("count", "--avoid", "123")),
    ("A309505", ("count", "--avoid", "132")),
    ("A309506", ("count", "--avoid", "231")),
    ("A309508", ("count", "--avoid", "321")),
])
def test_export_writes_what_formula_or_count_prints(tmp_path, capsys, seq, argv):
    out = tmp_path / "b.txt"
    assert cli.main(["export", "--seq", seq, "--n-max", "8", "--offset", "1", "--quiet",
                     "--out", str(out)]) == 0
    assert cli.main([*argv, "--n-max", "8"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]  # below the header
    assert out.read_text() == "".join(row.replace("\t", " ") + "\n" for row in rows)


def test_export_through_symlink_keeps_link(tmp_path):
    real = tmp_path / "real.txt"
    real.write_text("old\n")
    link = tmp_path / "link.txt"
    link.symlink_to(real)
    proc = run_cli("export", "--seq", "A309563", "--n-max", "5", "--offset", "1",
                   "--out", str(link))
    assert proc.returncode == 0, proc.stderr
    assert link.is_symlink()
    assert real.read_text() == "1 1\n2 1\n3 1\n4 1\n5 2\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "real.txt"]


def test_export_to_a_pipe_writes_in_place(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = subprocess.Popen(["cat", str(fifo)], stdout=subprocess.PIPE, text=True)
    try:
        proc = run_cli("export", "--seq", "A309563", "--n-max", "5", "--offset", "1",
                       "--out", str(fifo))
        out, _ = reader.communicate(timeout=30)
    finally:
        reader.kill()
        reader.wait()
    assert proc.returncode == 0, proc.stderr
    assert out == "1 1\n2 1\n3 1\n4 1\n5 2\n"
    assert fifo.is_fifo()


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_export_to_piped_stdout_writes_in_place():
    proc = run_cli("export", "--seq", "A309563", "--n-max", "5", "--offset", "1",
                   "--out", "/dev/stdout")
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == "1 1\n2 1\n3 1\n4 1\n5 2\n"


def test_export_unknown_sequence(tmp_path):
    proc = run_cli("export", "--seq", "A000001", "--n-max", "5", "--offset", "1",
                   "--out", str(tmp_path / "x.txt"))
    assert proc.returncode == 64


def test_export_oracle_backed_respects_cap(tmp_path):
    proc = run_cli("export", "--seq", "A309504", "--n-max", "12", "--offset", "3",
                   "--out", str(tmp_path / "x.txt"))
    assert proc.returncode == 64


def test_cache_hits_and_torn_lines(tmp_path):
    cache = tmp_path / "oracle.jsonl"
    args = ("count", "--n", "7", "--avoid", "321", "--cache", str(cache))
    first = run_cli(*args)
    assert first.returncode == 0
    records = [json.loads(line) for line in cache.read_text().splitlines()]
    assert records and records[0]["count"] == 66
    # poison the cache with a torn line; the valid record must still be found
    with cache.open("a") as fh:
        fh.write('{"key": "truncated...\n')
    second = run_cli(*args)
    assert second.returncode == 0
    assert second.stdout == first.stdout
    # the torn line is ignored, not an error, and no recompute row is added
    # for the cached request
    assert cache.read_text().count('"n": 7') == 1


def test_cache_skips_non_utf8_bytes(tmp_path):
    cache = tmp_path / "oracle.jsonl"
    args = ("count", "--n", "7", "--avoid", "321", "--cache", str(cache))
    first = run_cli(*args)
    assert first.returncode == 0
    cache.write_bytes(b"\xff\xfe garbage\n" + cache.read_bytes())
    second = run_cli(*args)
    assert second.returncode == 0, second.stderr
    assert "Traceback" not in second.stderr
    assert second.stdout == first.stdout
    assert cache.read_bytes().count(b'"n": 7') == 1


KEY = "ab" * 32
OTHER = "cd" * 32


def _write_lines(path, *lines):
    path.write_text("".join(line + "\n" for line in lines))
    return str(path)


def test_cache_lookup_missing_file_is_miss(tmp_path):
    assert cli.cache_lookup(str(tmp_path / "absent.jsonl"), KEY) is None


def test_cache_lookup_last_record_wins(tmp_path):
    path = _write_lines(
        tmp_path / "c.jsonl",
        json.dumps({"key": KEY, "count": 1}),
        json.dumps({"key": OTHER, "count": 2}),
        json.dumps({"key": KEY, "count": 3}),
    )
    assert cli.cache_lookup(path, KEY) == {"key": KEY, "count": 3}


def test_cache_lookup_skips_torn_line_with_key(tmp_path):
    path = _write_lines(
        tmp_path / "c.jsonl",
        json.dumps({"key": KEY, "count": 5}),
        '{"count": 6, "key": "' + KEY + '"',
    )
    assert cli.cache_lookup(path, KEY) == {"key": KEY, "count": 5}


def test_cache_lookup_key_elsewhere_in_record_is_miss(tmp_path):
    path = _write_lines(
        tmp_path / "c.jsonl",
        json.dumps({"key": OTHER, "count": 7, "note": KEY}),
    )
    assert cli.cache_lookup(path, KEY) is None


def test_cache_append_after_torn_last_line(tmp_path):
    cache = tmp_path / "oracle.jsonl"
    cache.write_text('{"key": "tru')  # a torn record without its newline
    args = ("count", "--n", "6", "--avoid", "321", "--cache", str(cache))
    runs = [run_cli(*args) for _ in range(3)]
    assert [proc.returncode for proc in runs] == [0, 0, 0]
    assert [proc.stdout for proc in runs] == ["n\t321\n6\t24\n"] * 3
    torn, *rest = cache.read_text().splitlines()
    assert torn == '{"key": "tru'
    # one parseable record: runs 2 and 3 found it and appended nothing
    assert [json.loads(line)["count"] for line in rest] == [24]


@pytest.mark.parametrize("extra", [{"count": "x"}, {}, {"count": True}],
                         ids=["string", "missing", "bool"])
def test_cache_record_with_unusable_count_is_miss(tmp_path, extra):
    cache = tmp_path / "oracle.jsonl"
    key = cli._cache_key(5, ("123",), True)
    cache.write_text(json.dumps({"key": key, **extra}) + "\n")
    assert cli.cache_lookup(str(cache), key) is None
    proc = run_cli("count", "--n", "5", "--avoid", "123", "--cache", str(cache))
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == "n\t123\n5\t10\n"
    # the search ran again and appended a good record, which now wins
    assert cli.cache_lookup(str(cache), key)["count"] == 10


def _forward_lookup(path, key):
    """Reference lookup: scan every line from the start; the last line that
    contains the key and parses to a dict with that key and a non-negative
    int count wins."""
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
                if (isinstance(record, dict) and record.get("key") == key
                        and type(record.get("count")) is int and record["count"] >= 0):
                    hit = record
    except OSError:
        return None
    return hit


_COUNTS = st.one_of(st.integers(-2, 10**30), st.sampled_from(["7", True, False, None, 1.0]))


def _record_line(key, count, pad):
    record = {"key": key, "pad": "x" * pad}
    if count != "missing":
        record["count"] = count
    return json.dumps(record, sort_keys=True).encode("ascii")


_CACHE_LINE = st.one_of(
    st.builds(_record_line, st.sampled_from([KEY, KEY, OTHER]),
              st.one_of(_COUNTS, st.just("missing")), st.integers(0, 40)),
    st.builds(lambda c: json.dumps({"key": OTHER, "count": c, "note": KEY}).encode(), _COUNTS),
    st.sampled_from([json.dumps([KEY, 3]), json.dumps(KEY), "3", "null"]).map(str.encode),
    # torn records, non-UTF-8 bytes next to the key, and arbitrary bytes
    st.builds(lambda line, cut: line[:cut], st.builds(_record_line, st.just(KEY), _COUNTS,
                                                      st.just(0)), st.integers(0, 80)),
    st.builds(lambda line, at: line[:at] + b"\xff" + line[at:],
              st.builds(_record_line, st.just(KEY), st.integers(0, 9), st.just(3)),
              st.integers(1, 30)),
    st.binary(max_size=12).filter(lambda b: b"\n" not in b),
)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(_CACHE_LINE, max_size=12), newline_at_end=st.booleans(),
       block=st.sampled_from([1, 2, 3, 5, 8, 13, 64, 1 << 16]))
def test_cache_lookup_matches_forward_scan(tmp_path, monkeypatch, lines, newline_at_end, block):
    """Reading from the end in blocks finds what a forward scan finds, with
    blocks small enough that records straddle them."""
    monkeypatch.setattr(cli, "_CACHE_BLOCK", block)
    path = tmp_path / "c.jsonl"
    path.write_bytes(b"\n".join(lines) + (b"\n" if newline_at_end and lines else b""))
    assert cli.cache_lookup(str(path), KEY) == _forward_lookup(str(path), KEY)
    assert cli.cache_lookup(str(path), OTHER) == _forward_lookup(str(path), OTHER)


@pytest.mark.parametrize("block", [1, 7, 1 << 16])
def test_cache_lookup_empty_or_missing_file_is_miss(tmp_path, monkeypatch, block):
    monkeypatch.setattr(cli, "_CACHE_BLOCK", block)
    (tmp_path / "empty.jsonl").write_bytes(b"")
    assert cli.cache_lookup(str(tmp_path / "empty.jsonl"), KEY) is None
    assert cli.cache_lookup(str(tmp_path / "absent.jsonl"), KEY) is None


def test_cache_distinguishes_cyclic_flag(tmp_path):
    cache = tmp_path / "oracle.jsonl"
    run_cli("count", "--n", "6", "--avoid", "321", "--cache", str(cache))
    run_cli("count", "--n", "6", "--avoid", "321", "--all", "--cache", str(cache))
    records = [json.loads(line) for line in cache.read_text().splitlines()]
    assert len(records) == 2
    assert {r["cyclic"] for r in records} == {True, False}


def test_env_cap_override_and_flag_precedence():
    low = run_cli("count", "--n", "6", "--avoid", "123",
                  env_extra={"CYCPERM_ORACLE_CAP": "5"})
    assert low.returncode == 64
    flag_wins = run_cli("count", "--n", "6", "--avoid", "123", "--cap", "6",
                        env_extra={"CYCPERM_ORACLE_CAP": "5"})
    assert flag_wins.returncode == 0
    assert flag_wins.stdout.splitlines()[-1] == "6\t24"


def test_workers_flag_gives_identical_counts():
    one = run_cli("count", "--n", "8", "--avoid", "132", "--workers", "1")
    four = run_cli("count", "--n", "8", "--avoid", "132", "--workers", "4")
    assert one.stdout == four.stdout == "n\t132\n8\t182\n"


def test_extended_flag_unlocks_and_warns():
    proc = run_cli("count", "--n", "11", "--avoid", "231", "--extended")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "11\t2274"
    assert "n = 10" in proc.stderr  # runtime warning present
    quiet = run_cli("count", "--n", "11", "--avoid", "231", "--extended", "--quiet")
    assert quiet.stderr == ""


def test_conjectures_alias():
    proc = run_cli("conjectures", "--n-max", "6")
    assert proc.returncode == 0, proc.stderr
    assert "ChainConjecture" in proc.stdout
    assert "InsertionTheorem" in proc.stdout
    assert "KMinusOneQuestion" in proc.stdout


def test_count_n_zero_is_usage_error():
    proc = run_cli("count", "--n", "0", "--avoid", "123")
    assert proc.returncode == 64
    assert proc.stderr.startswith("cycperm: error:")
    assert "Traceback" not in proc.stderr


_COUNT = ("count", "--n", "5", "--avoid", "123")
_FORMULA = ("formula", "--pair", "123,231", "--n", "5")
_TRIPLES = ("triples", "--n", "9")


# formula and triples never run the oracle, so these cases also pin that both
# variables are read before any subcommand runs
@pytest.mark.parametrize("name, value, args", [
    pytest.param("CYCPERM_WORKERS", "x", _COUNT, id="CYCPERM_WORKERS-x"),
    pytest.param("CYCPERM_ORACLE_CAP", "abc", _COUNT, id="CYCPERM_ORACLE_CAP-abc"),
    pytest.param("CYCPERM_WORKERS", "x", _FORMULA, id="CYCPERM_WORKERS-x-formula"),
    pytest.param("CYCPERM_ORACLE_CAP", "abc", _FORMULA, id="CYCPERM_ORACLE_CAP-abc-formula"),
    pytest.param("CYCPERM_WORKERS", "x", _TRIPLES, id="CYCPERM_WORKERS-x-triples"),
    pytest.param("CYCPERM_ORACLE_CAP", "abc", _TRIPLES, id="CYCPERM_ORACLE_CAP-abc-triples"),
])
def test_bad_environment_value_is_usage_error(name, value, args):
    proc = run_cli(*args, env_extra={name: value})
    assert proc.returncode == 64
    assert proc.stderr.startswith("cycperm: error:")
    assert name in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("flag, args", [
    ("--cache", ("count", "--n", "5", "--avoid", "123")),
    ("--out", ("export", "--seq", "A309563", "--n-max", "5", "--offset", "1")),
])
def test_missing_output_directory_is_usage_error(tmp_path, flag, args):
    target = tmp_path / "missing" / "x.txt"
    proc = run_cli(*args, flag, str(target))
    assert proc.returncode == 64
    assert proc.stderr.startswith("cycperm: error:")
    assert str(target) in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert not target.parent.exists()


@pytest.mark.parametrize("flag, args", [
    ("--cache", ("count", "--n", "5", "--avoid", "123")),
    ("--out", ("export", "--seq", "A309563", "--n-max", "5", "--offset", "1")),
])
def test_directory_as_output_path_is_usage_error(tmp_path, flag, args):
    proc = run_cli(*args, flag, str(tmp_path))
    assert proc.returncode == 64
    assert proc.stderr.startswith("cycperm: error:")
    assert str(tmp_path) in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("make", ["fifo", "devnull"])
def test_cache_that_is_not_a_regular_file_is_usage_error(tmp_path, make):
    # a FIFO would block the lookup's open forever; the timeout catches a hang
    if make == "fifo":
        path = tmp_path / "c.fifo"
        os.mkfifo(path)
    else:
        path = os.devnull
    proc = subprocess.run([sys.executable, "-m", "cycperm", "count", "--n", "5", "--avoid",
                           "123", "--cache", str(path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 64
    assert proc.stderr.startswith("cycperm: error:")
    assert "not a regular file" in proc.stderr
    assert proc.stdout == ""


# Keys of records already in users' caches: a change to how the key is
# computed must not re-key them. The pins were taken under kernel version 2,
# and a new kernel version re-keys every record.
def test_cache_key_is_pinned(monkeypatch):
    from cycperm import _kernels

    def keys():
        return cli._cache_key(5, ["123"], True), cli._cache_key(8, ["123", "231"], True)

    assert _kernels.KERNEL_VERSION == 3
    current = keys()
    monkeypatch.setattr(_kernels, "KERNEL_VERSION", 2)
    assert keys() == ("2aff19f37a6a36b06b4ae148c11af1db9192ecdde716bcded514b8a14e004232",
                      "788d30fd6a358273851fbed6791250a370f44ab6926c7e549af1c1252c224a96")
    assert all(new != old for new, old in zip(current, keys()))


@pytest.mark.parametrize("n, labels, cyclic", [
    (3, ["123"], True), (10, ["4321"], True), (13, ["231"], True),
    (7, ["123", "132"], True), (6, ["123", "231"], False),
])
def test_cache_key_is_the_sha256_of_the_canonical_request(n, labels, cyclic):
    import hashlib

    from cycperm._kernels import KERNEL_VERSION

    blob = json.dumps({"n": n, "patterns": labels, "cyclic": cyclic, "kernel": KERNEL_VERSION},
                      sort_keys=True)
    assert cli._cache_key(n, labels, cyclic) == hashlib.sha256(blob.encode("ascii")).hexdigest()


def test_cache_record_keyed_without_kernel_version_is_miss(tmp_path):
    import hashlib

    cache = tmp_path / "c.jsonl"
    blob = json.dumps({"n": 5, "patterns": ["123"], "cyclic": True}, sort_keys=True)
    old_key = hashlib.sha256(blob.encode("ascii")).hexdigest()
    assert old_key != cli._cache_key(5, ["123"], True)
    cli.cache_append(str(cache), {"key": old_key, "n": 5, "patterns": ["123"],
                                  "cyclic": True, "count": 999})
    proc = run_cli("count", "--n", "5", "--avoid", "123", "--cache", str(cache))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "n\t123\n5\t10\n"


def test_cache_misses_after_kernel_version_changes(tmp_path, monkeypatch, capsys):
    from cycperm import _kernels

    cache = str(tmp_path / "c.jsonl")
    args = ["count", "--n", "5", "--avoid", "123", "--cache", cache]
    key = cli._cache_key(5, ["123"], True)
    cli.cache_append(cache, {"key": key, "n": 5, "patterns": ["123"], "cyclic": True,
                             "count": 999})
    assert cli.main(args) == 0
    assert capsys.readouterr().out == "n\t123\n5\t999\n"  # served from the cache
    monkeypatch.setattr(_kernels, "KERNEL_VERSION", _kernels.KERNEL_VERSION + 1)
    assert cli.main(args) == 0
    assert capsys.readouterr().out == "n\t123\n5\t10\n"  # searched again


def test_bad_oracle_witness_fails_insertion_check(monkeypatch, capsys):
    from cycperm import harness

    real = harness.run_enumeration

    def with_identity(req, sink=None):
        result = real(req, sink)
        if sink is not None:  # the streamed search of the insertion check
            sink.append(tuple(range(1, req.n + 1)))
        return result

    monkeypatch.setattr(harness, "run_enumeration", with_identity)
    code = cli.main(["verify", "--claim", "insertion", "--avoid", "321", "--n-max", "5"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("InsertionTheorem: FAIL")
    assert "oracle witness rejected: permutation 1 2 3 is not cyclic" in out


def test_repeated_oracle_witness_fails_insertion_check(monkeypatch, capsys):
    from cycperm import harness
    from cycperm.enumeration import list_cyclic_avoiders
    from cycperm.patterns import parse_pattern

    real = harness.run_enumeration

    class FirstTwice:
        def __init__(self, sink):
            self.sink, self.first = sink, True

        def append(self, entries):
            if self.first:
                self.first = False
                self.sink.append(entries)
            self.sink.append(entries)

    def first_twice(req, sink=None):
        return real(req, None if sink is None else FirstTwice(sink))

    monkeypatch.setattr(harness, "run_enumeration", first_twice)
    code = cli.main(["verify", "--claim", "insertion", "--avoid", "321", "--n-max", "5"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("InsertionTheorem: FAIL")
    for n in (3, 4):
        first = list_cyclic_avoiders(n, [parse_pattern("321")])[0]
        assert f"n={n}: oracle witness {first} repeats or breaks the ascending order" in out


def test_a_refused_verify_does_not_warn_of_its_runtime():
    proc = run_cli("verify", "--claim", "table1", "--n-max", "13")
    assert (proc.returncode, proc.stdout) == (64, "")
    assert proc.stderr == _CAP_REFUSAL.format(n=13, cap=10)


def test_a_verify_above_the_default_cap_warns_of_its_runtime():
    argv = ["verify", "--claim", "formula-vs-oracle", "--pair", "123,231", "--n-max", "11"]
    proc = run_cli(*argv, "--cap", "11")
    quiet = run_cli(*argv, "--cap", "11", "--quiet")
    assert proc.returncode == quiet.returncode == 0
    assert proc.stdout.startswith("FormulaVsOracle: pass (n = 3..11, ")
    assert proc.stderr == "cycperm: oracle-backed verification up to n = 11 can take minutes\n"
    assert quiet.stderr == ""


_LABELS = st.sampled_from(["123", "231", "321", "12", "1", "4321", "1432", "1x3", "", "11", "0"])
_PAIRS = st.sampled_from(["123,231", "123,132", "132,213", "123", "x,y", ",", ""])
# a file, a directory and a file in a missing directory, relative to tmp_path
_PATHS = st.sampled_from(["c.jsonl", "b.txt", "dir", "missing/x.txt"])
_FORMATS = {"count": ["tsv", "text", "json"], "formula": ["tsv", "text", "json"],
            "verify": ["text", "json"], "conjectures": ["text", "json"],
            "triples": ["tsv", "json"], "export": ["bfile"]}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(
        ["count", "formula", "verify", "conjectures", "triples", "export"]))
    argv = [command]

    def maybe(flag, values):
        if draw(st.booleans()):
            argv.extend([flag, str(draw(values))])

    def required(flag, values):  # left out now and then
        if draw(st.integers(0, 9)):
            argv.extend([flag, str(draw(values))])

    if command == "count":
        maybe("--n", st.integers(-1, 8))
        maybe("--n-max", st.integers(-1, 8))
        for label in draw(st.lists(_LABELS, min_size=1, max_size=2)):
            argv.extend(["--avoid", label])
        maybe("--cache", _PATHS)
        if draw(st.booleans()):
            argv.append("--all")
    elif command == "formula":
        required("--pair", _PAIRS)
        maybe("--n", st.integers(-1, 8) | st.just(30000))
        maybe("--n-max", st.integers(-1, 8))
    elif command == "verify":
        required("--claim", st.sampled_from(sorted(cli._DEFAULT_N_MAX) + ["bogus"]))
        argv.extend(["--n-max", str(draw(st.integers(-1, 7)))])
        maybe("--pair", _PAIRS)
        maybe("--avoid", _LABELS)
    elif command == "conjectures":
        argv.extend(["--n-max", str(draw(st.integers(-1, 7)))])
    elif command == "triples":
        required("--n", st.integers(-1, 8))
        if draw(st.booleans()):
            argv.append("--with-perms")
    else:
        required("--seq", st.sampled_from(["A309563", "A309504", "A000001"]))
        required("--n-max", st.integers(-1, 8))
        required("--offset", st.integers(-1, 4))
        maybe("--out", _PATHS)
    maybe("--cap", st.sampled_from(["-1", "0", "5", "8", "x"]))
    maybe("--format", st.sampled_from(_FORMATS[command] + ["xml"]))
    maybe("--workers", st.sampled_from(["1", "4", "0", "x"]))
    for flag in ("--extended", "--quiet"):
        if draw(st.booleans()):
            argv.append(flag)
    return argv


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv(), env_cap=st.sampled_from([None, "5", "12", "abc"]))
def test_fuzzed_argv_gives_an_exit_code_not_a_traceback(tmp_path, monkeypatch, argv, env_cap):
    for name in [k for k in os.environ if k.startswith("CYCPERM_")]:
        monkeypatch.delenv(name)
    if env_cap is not None:
        monkeypatch.setenv("CYCPERM_ORACLE_CAP", env_cap)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dir").mkdir(exist_ok=True)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse reports usage errors this way
            assert exc.code in (0, 64), argv
            return
    assert code in (0, 1, 2, 64), argv
