#!/usr/bin/env python3
"""Record the golden outputs the benchmark checks against.

    python3 perfbench/record_golden.py

Runs the ``cycperm`` command of this checkout over the whole cli-session
menu, and the conjecture claims in process, and writes golden.json. Record
only from a commit whose outputs are known good: the benchmark treats any
later difference as a failed operation.
"""
from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads
from run import ROOT, child_env


def _cli(*argv: str, cwd: str) -> str:
    proc = subprocess.run([sys.executable, "-m", "cycperm", *argv], capture_output=True,
                          text=True, env=child_env(), cwd=cwd, check=True)
    return proc.stdout


def main() -> int:
    golden: dict = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        golden["formula"] = {
            pair: _cli("formula", "--pair", pair, "--n-max", str(workloads.FORMULA_N_MAX), cwd=tmp)
            for pair in workloads.PAIRS
        }
        golden["triples"] = {}
        for n in range(10, 41):
            golden["triples"][str(n)] = _cli("triples", "--n", str(n), cwd=tmp)
            golden["triples"][f"{n}+perms"] = _cli("triples", "--n", str(n), "--with-perms", cwd=tmp)
        golden["verify"] = {
            "triple-formula": workloads.mask_elapsed(_cli(*workloads.VERIFY_ARGV, cwd=tmp))
        }
        out = str(Path(tmp) / "b.txt")
        _cli("export", "--seq", "A309563", "--n-max", str(workloads.EXPORT_N_MAX),
             "--offset", "1", "--out", out, cwd=tmp)
        golden["export"] = {"A309563": Path(out).read_text(encoding="ascii")}
        golden["count"] = {}
        for n, labels in workloads.COUNT_CELLS:
            golden["count"][f"{n}:{labels}"] = _cli(*workloads.count_argv(n, labels), cwd=tmp)

    sys.path.insert(0, str(ROOT / "src"))
    import ops

    for toy in (False, True):
        reports = [ops.report_fields(ops.run_claim(op))
                   for op in workloads.build_ops("claims", 0, toy)]
        golden[workloads.claims_golden_key(toy)] = reports

    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                                     encoding="utf-8")
    print(f"wrote {workloads.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
