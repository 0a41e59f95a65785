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
from cycperm.tables import CountTable


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
    table = CountTable.from_json(proc.stdout)
    assert [table.get(n, "321").count for n in (3, 4, 5, 6)] == [2, 4, 10, 24]
    assert table.get(5, "321").provenance == "oracle"


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


def test_export_failed_rename_keeps_old_file(tmp_path, monkeypatch):
    out = tmp_path / "b309563.txt"
    out.write_text("old\n")

    def fail(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(cli.os, "replace", fail)
    with pytest.raises(OSError):
        cli.main(["export", "--seq", "A309563", "--n-max", "5", "--offset", "1",
                  "--quiet", "--out", str(out)])
    assert out.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == [out.name]


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
