"""Smoke tests of the benchmark itself, at toy size.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from tracer import Span, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--seed", "3", "--seconds", "1",
         "--toy", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_reported_with_its_unit(workload, trace, group):
    """Every metric of the group is in the result line with its unit, and
    none is printed as missing."""
    proc = bench("--workload", workload, "--trace", str(trace))
    result = last_json(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[group]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert not [line for line in proc.stdout.splitlines() if " missing " in line]
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_injected_wrong_count_is_a_failure(workload):
    proc = bench("--workload", workload, "--trace", "0", "--inject-wrong-count")
    result = last_json(proc)
    assert not result["correct"]
    assert 1 <= result["failed"] <= result["attempted"]
    ratio_line = next(line for line in proc.stdout.splitlines() if "fail_ratio" in line)
    assert float(ratio_line.split()[1]) > 0


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "table1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_seed_fixes_the_operations():
    for workload in workloads.WORKLOADS:
        assert workloads.build_ops(workload, 7) == workloads.build_ops(workload, 7)
    assert workloads.build_ops("cli-session", 7) != workloads.build_ops("cli-session", 8)
    assert workloads.build_ops("table1", 7) != workloads.build_ops("table1", 8)
    kinds = [op["kind"] for op in workloads.build_ops("cli-session", 7)]
    assert {"formula", "triples", "verify", "export", "usage", "count"} == set(kinds)


def test_golden_counts_agree_with_independent_references():
    sys.path.insert(0, str(ROOT / "src"))
    from cycperm import formulas, harness

    for n, row in workloads.TABLE_ONE.items():
        assert harness.TABLE_ONE[n] == row
    golden = workloads.load_golden()
    for n, labels in workloads.COUNT_CELLS:
        _, row = golden["count"][f"{n}:{labels}"].splitlines()
        if "," in labels:
            pair = formulas.pair_id_from_labels(*labels.split(","))
            want = formulas.pair_count(pair, n)
        else:
            want = workloads.TABLE_ONE[n][workloads.SIX.index(labels)]
        assert row == f"{n}\t{want}", (labels, n)
    for pair, stdout in golden["formula"].items():
        rows = stdout.splitlines()[1:]
        pid = formulas.pair_id_from_labels(*pair.split(","))
        assert rows == [f"{n}\t{formulas.pair_count(pid, n)}" for n in range(1, len(rows) + 1)]
    assert all(report["passed"] for key in ("claims_n5", "claims_n7") for report in golden[key])


def _span(sid, name, start, end, parent=None, info=None):
    return Span(sid, name, name.split(".", 1)[0], start, end, parent, 0, info)


def test_self_time_subtracts_overlapping_children_once():
    spans = [
        _span(1, "enumeration.run_enumeration", 0.0, 10.0, info={"collect": False, "nodes": 30}),
        # two kernel threads that overlap: together they cover 2..8
        _span(2, "kernel._count_from_root", 2.0, 6.0, 1, {"nodes": 10}),
        _span(3, "kernel._count_from_root", 4.0, 8.0, 1, {"nodes": 20}),
    ]
    out, gaps = layer_metrics(spans, {})
    assert not gaps
    assert out["enumeration.self_s"] == pytest.approx(4.0)
    assert out["kernel.busy_s"] == pytest.approx(6.0)
    assert out["kernel.nodes"] == 30 and out["kernel.calls"] == 2
    assert out["kernel.us_per_node"] == pytest.approx(6.0 / 30 * 1e6)


def test_memo_hit_is_a_lookup_without_an_oracle_call():
    spans = [
        _span(1, "harness.check_growth_bounds", 0.0, 5.0),
        _span(2, "harness.cyclic_count", 0.0, 3.0, 1),
        _span(3, "enumeration.run_enumeration", 0.5, 2.5, 2, {"collect": False, "nodes": 1}),
        _span(4, "harness.cyclic_count", 3.0, 3.5, 1),
    ]
    out, _ = layer_metrics(spans, {})
    assert (out["harness.memo_hits"], out["harness.memo_misses"]) == (1, 1)
    assert out["harness.claim_self_s"] == pytest.approx(3.0)


def test_renamed_kernel_entry_is_reported_missing():
    missing = {"kernel._count_from_root": "cycperm._kernels._count_from_root not found"}
    spans = [_span(1, "enumeration.run_enumeration", 0.0, 1.0, info={"collect": False, "nodes": 5})]
    out, gaps = layer_metrics(spans, missing)
    assert "enumeration.self_s" in gaps and "enumeration.self_s" not in out
    assert "kernel.us_per_node" in gaps
    assert out["kernel.nodes"] == 5


def test_oracle_call_that_raised_counts_no_nodes():
    from tracer import _observe_enumeration

    class Request:
        collect = False

    assert _observe_enumeration((Request(),), {}, None, None) == {"collect": False, "nodes": 0}
