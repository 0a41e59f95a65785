"""The four benchmark workloads: the operations of one pass, built from a seed.

This module imports nothing from ``cycperm``; the runner uses it to size a
run and the worker uses it to know what to execute and what to expect.

* ``table1``      one cell = C_n(q) for a single length-3 pattern, checked
                  against the reference table (n = 3..8, 36 cells).
* ``pairs``       one cell = the FormulaVsOracle claim for one solved pair
                  at one n (n = 3..9, 49 cells).
* ``claims``      one operation = one claim of ``cycperm conjectures`` at
                  n_max = 7 (18 claims, in the order the CLI runs them).
* ``cli-session`` one operation = one ``cycperm`` invocation; the argv list
                  is drawn from a fixed menu so golden output exists for it.

The seed fixes the order of the table1/pairs cells and the cli-session argv
list. The claims order is fixed, because it decides which claim fills the
harness memo.
"""
from __future__ import annotations

import json
import math
import random
import re
from pathlib import Path

WORKLOADS = ("table1", "pairs", "claims", "cli-session")

SIX = ("123", "132", "213", "231", "312", "321")
INSERTION = ("321", "4321", "4231", "3412", "1432")
PAIRS = ("123,132", "123,231", "123,321", "132,231", "132,321", "231,312", "231,321")

#: Cyclic avoiders of one length-3 pattern (Table 1 of the paper), columns
#: in the order of SIX. Kept here so the program cannot move its own target.
TABLE_ONE = {
    3: (2, 2, 2, 1, 1, 2),
    4: (4, 4, 4, 2, 2, 4),
    5: (10, 10, 10, 5, 5, 10),
    6: (24, 24, 24, 12, 12, 24),
    7: (68, 68, 68, 30, 30, 66),
    8: (188, 182, 182, 86, 86, 178),
}

#: Workload sizes. "toy" is the smoke-test size; it keeps every kind of
#: operation but far fewer of them.
SIZES = {
    "full": {
        "table1_n": (3, 8),
        "pairs_n": (3, 9),
        "claims_n_max": 7,
        "cli_mix": {"formula": 3, "triples": 2, "count_hit": 2, "count_miss": 2},
        "cache_filler": 20000,
    },
    "toy": {
        "table1_n": (3, 5),
        "pairs_n": (3, 5),
        "claims_n_max": 5,
        "cli_mix": {"formula": 1, "triples": 1, "count_hit": 1, "count_miss": 1},
        "cache_filler": 200,
    },
}

#: count cells of the cli-session menu: every solved pair at n = 5..8 and
#: every single pattern at n = 5..6. All are cheap searches, so a miss costs
#: about the same whichever cell the seed draws.
COUNT_CELLS = tuple(
    [(n, pair) for pair in PAIRS for n in range(5, 9)]
    + [(n, label) for label in SIX for n in range(5, 7)]
)

#: Invocations that must end in exit 64 with nothing on stdout.
USAGE_ERRORS = (
    ("formula", "--pair", "132,213", "--n", "5"),
    ("count", "--n", "12", "--avoid", "123"),
    ("export", "--seq", "A000001", "--n-max", "5", "--offset", "1", "--out", "{out}"),
    ("triples", "--n", "2"),
)

VERIFY_ARGV = ("verify", "--claim", "triple-formula", "--n-max", "40")
FORMULA_N_MAX = 200
EXPORT_N_MAX = 200

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
_ELAPSED = re.compile(r"\d+\.\d+s\)")


def size(toy: bool) -> dict:
    return SIZES["toy" if toy else "full"]


def build_ops(workload: str, seed: int, toy: bool = False) -> list[dict]:
    """The operations of one pass, in execution order."""
    sz = size(toy)
    rng = random.Random(f"{workload}:{seed}")
    if workload == "table1":
        lo, hi = sz["table1_n"]
        ops = [{"n": n, "label": q} for n in range(lo, hi + 1) for q in SIX]
        rng.shuffle(ops)
        return ops
    if workload == "pairs":
        lo, hi = sz["pairs_n"]
        ops = [{"n": n, "pair": p} for n in range(lo, hi + 1) for p in PAIRS]
        rng.shuffle(ops)
        return ops
    if workload == "claims":
        n_max = sz["claims_n_max"]
        return (
            [{"claim": "chain", "n_max": n_max}]
            + [{"claim": "growth", "pattern": q, "n_max": n_max} for q in SIX]
            + [{"claim": "insertion", "pattern": q, "n_max": min(n_max, 9)} for q in INSERTION]
            + [{"claim": "k-minus-one", "pattern": q, "n_max": n_max} for q in SIX]
        )
    if workload == "cli-session":
        return _cli_ops(rng, sz["cli_mix"])
    raise ValueError(f"unknown workload {workload!r}")


def count_argv(n: int, labels: str) -> list[str]:
    argv = ["count", "--n", str(n)]
    for q in labels.split(","):
        argv += ["--avoid", q]
    return argv


def _cli_ops(rng: random.Random, mix: dict) -> list[dict]:
    ops = []
    for _ in range(mix["formula"]):
        pair, n_max = rng.choice(PAIRS), rng.randint(20, FORMULA_N_MAX)
        ops.append({"kind": "formula", "key": pair, "lines": n_max + 1,
                    "argv": ["formula", "--pair", pair, "--n-max", str(n_max)]})
    for i, n in enumerate(rng.sample(range(10, 41), mix["triples"])):
        perms = i == 0 or (i > 1 and rng.random() < 0.5)
        argv = ["triples", "--n", str(n)] + (["--with-perms"] if perms else [])
        ops.append({"kind": "triples", "key": f"{n}{'+perms' if perms else ''}", "argv": argv})
    ops.append({"kind": "verify", "key": "triple-formula", "argv": list(VERIFY_ARGV)})
    n_max = rng.randint(50, EXPORT_N_MAX)
    ops.append({"kind": "export", "key": "A309563", "lines": n_max,
                "argv": ["export", "--seq", "A309563", "--n-max", str(n_max),
                         "--offset", "1", "--out", "{out}"]})
    ops.append({"kind": "usage", "key": None, "argv": list(rng.choice(USAGE_ERRORS))})
    cells = rng.sample(COUNT_CELLS, mix["count_hit"] + mix["count_miss"])
    for i, (n, labels) in enumerate(cells):
        ops.append({"kind": "count", "key": f"{n}:{labels}", "hit": i < mix["count_hit"],
                    "argv": count_argv(n, labels) + ["--cache", "{cache}"]})
    rng.shuffle(ops)
    return ops


def tail_percentile(samples: int) -> int:
    """The highest whole percentile with at least ten of the samples beyond it."""
    return max(50, math.floor(100 * (1 - 10 / samples)))


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def mask_elapsed(text: str) -> str:
    """Verification reports print their own run time; it is not output."""
    return _ELAPSED.sub("<elapsed>s)", text)


def expected_cli(op: dict, golden: dict) -> tuple[int, str, str | None]:
    """(exit code, stdout, exported file text or None) for one invocation."""
    kind, key = op["kind"], op["key"]
    if kind == "usage":
        return 64, "", None
    if kind == "formula":
        lines = golden["formula"][key].splitlines(keepends=True)
        return 0, "".join(lines[: op["lines"]]), None
    if kind == "export":
        lines = golden["export"][key].splitlines(keepends=True)
        return 0, "", "".join(lines[: op["lines"]])
    if kind == "verify":
        return 0, golden["verify"][key], None
    return 0, golden[kind][key], None


def claims_golden_key(toy: bool) -> str:
    return f"claims_n{size(toy)['claims_n_max']}"
