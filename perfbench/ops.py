"""Run and check one operation of a workload.

Each runner returns None when the operation's output is correct, and a
one-line description of what was wrong otherwise. The oracle workloads call
``cycperm`` in this process; ``cli-session`` runs the ``cycperm`` command,
either as a subprocess (through a Launcher) or, for the traced replay,
through ``cli.main``.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Optional

from cycperm import harness
from cycperm.enumeration import EnumerationRequest, count_cyclic_avoiders
from cycperm.formulas import PairFormulaId
from cycperm.patterns import parse_pattern

import workloads


def table1_cell(op: dict, nproc: int) -> Optional[str]:
    n, label = op["n"], op["label"]
    req = EnumerationRequest(n=n, patterns=(parse_pattern(label),), parallelism=nproc)
    got = count_cyclic_avoiders(req).count
    want = workloads.TABLE_ONE[n][workloads.SIX.index(label)]
    return None if got == want else f"C_{n}({label}) = {got}, Table 1 says {want}"


def pairs_cell(op: dict) -> Optional[str]:
    n, pair = op["n"], PairFormulaId(op["pair"])
    report = harness.check_formula_vs_oracle([pair], n_max=n, n_min=n, workers=1)
    if report.passed and report.ns == (n,):
        return None
    return f"FormulaVsOracle ({op['pair']}) at n={n}: {report.counterexamples or report.ns}"


def run_claim(op: dict):
    """The claim's report, exactly as ``cycperm conjectures`` makes it."""
    n_max = op["n_max"]
    if op["claim"] == "chain":
        return harness.check_chain_conjecture(n_max, workers=1)
    check = {
        "growth": harness.check_growth_bounds,
        "insertion": harness.check_insertion_theorem,
        "k-minus-one": harness.check_k_minus_one_question,
    }[op["claim"]]
    return check(parse_pattern(op["pattern"]), n_max, workers=1)


def report_fields(report) -> dict:
    """The parts of a report that are output (its run time is not)."""
    fields = report.to_json_dict()
    fields.pop("elapsed")
    return fields


def claims_op(op: dict, want: dict) -> Optional[str]:
    report = run_claim(op)
    got = report_fields(report)
    if report.passed and got == want:
        return None
    return f"{op['claim']} {op.get('pattern', '')}: report {got} differs from golden"


def cli_argv(op: dict, cache: str, out: str) -> list[str]:
    return [a.replace("{cache}", cache).replace("{out}", out) for a in op["argv"]]


class Launcher:
    """Runs ``cycperm`` commands as subprocesses through launcher.py, which
    reports each command's own peak RSS; peak_rss_mb is the largest so far."""

    def __init__(self) -> None:
        self.peak_rss_mb = 0.0
        self._proc = subprocess.Popen(
            [sys.executable, "-S", str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        if self._proc.stdout.readline() != "ready\n":
            raise RuntimeError("launcher.py did not start")

    def run(self, argv: list[str]) -> tuple[int, str]:
        # No timeout here; run.py kills the whole pass if it overruns.
        self._proc.stdin.write(json.dumps(argv) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher.py exited")
        code, stdout, rss_mb = json.loads(line)
        self.peak_rss_mb = max(self.peak_rss_mb, rss_mb)
        return code, stdout

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()


def cli_in_process(argv: list[str]) -> tuple[int, str]:
    from cycperm import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse reports usage errors this way
            code = exc.code if isinstance(exc.code, int) else 1
    return code, stdout.getvalue()


def cli_check(op: dict, want: tuple, code: int, stdout: str, out: str) -> Optional[str]:
    want_code, want_stdout, want_file = want
    if op["kind"] == "verify":
        stdout = workloads.mask_elapsed(stdout)
    if code != want_code:
        return f"{' '.join(op['argv'])}: exit {code}, expected {want_code}"
    if stdout != want_stdout:
        return f"{' '.join(op['argv'])}: stdout differs from golden"
    if want_file is not None:
        try:
            with open(out, encoding="ascii", newline="") as fh:
                got_file = fh.read()
        except OSError as exc:
            return f"{' '.join(op['argv'])}: no exported file ({exc})"
        if got_file != want_file:
            return f"{' '.join(op['argv'])}: exported file differs from golden"
        os.remove(out)
    return None
