#!/usr/bin/env python3
"""The cycperm benchmark: timed passes of one workload, every output checked.

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it needs only ``src/`` and this
directory, builds nothing and writes only under ``.perfbench/``.

Each pass is a fresh ``worker.py`` process, so the harness memo starts empty
and the set-up cost is paid again, and cli-session gets a fresh copy of its
pre-filled result cache. Passes run back to back, one client, until
``--seconds`` would be exceeded (at least three passes; four with tracing).

With ``--trace 0`` the last stdout line reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it reports the per-layer metrics, from
passes that alternate untraced and traced so the tracing overhead is
measured in the same run. Every run also writes ``result.json`` (metrics,
provenance, the tail percentile and sample counts) to its run directory.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads
from tracer import EXACT

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PASS_TIMEOUT_S = 150
NO_NEW_PASS_AFTER_S = 100


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def percentile(values: list[float], p: float) -> float:
    """The sample at or just above the p-th percentile rank, never a blend
    of two: table1's cells fall in two groups of exactly equal size, so an
    interpolated median would mix the slowest n = 5 cell with the fastest
    n = 6 cell and jump with either."""
    ordered = sorted(values)
    return ordered[math.ceil((len(ordered) - 1) * p / 100.0)]


def child_env() -> dict:
    """The caller's environment with the checkout's sources first on the
    path and no CYCPERM_* setting, so every run sees the program defaults.
    Bytecode caching stays on, as in an installed package, so start-up does
    not depend on whether the caller disabled it."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("CYCPERM_") and k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def provenance(seed: int, nproc: int) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            git_sha = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "machine": platform.machine(),
        "seed": seed,
        "loadavg_at_start": list(os.getloadavg()),
    }


def prefill_cache(path: Path, op_list: list, seed: int, filler: int, env: dict) -> None:
    """Filler records with keys no request has, then the records of the
    session's hit cells, written by the program itself."""
    rng = random.Random(f"cache:{seed}")
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(filler):
            record = {
                "key": hashlib.sha256(f"filler:{seed}:{i}".encode()).hexdigest(),
                "n": rng.randint(3, 13),
                "patterns": sorted(rng.sample(workloads.SIX, rng.randint(1, 2))),
                "cyclic": rng.random() < 0.8,
                "count": rng.randint(0, 10**6),
                "nodes": rng.randint(0, 10**8),
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    hits = [[a.replace("{cache}", str(path)) for a in op["argv"]]
            for op in op_list if op.get("hit")]
    script = ("import json, sys\nfrom cycperm.cli import main\n"
              "sys.exit(max([main(a) for a in json.loads(sys.argv[1])] or [0]))\n")
    subprocess.run([sys.executable, "-c", script, json.dumps(hits)], env=env, check=True,
                   stdout=subprocess.DEVNULL, timeout=PASS_TIMEOUT_S)


def run_pass(cfg: dict, env: dict, run_dir: Path) -> dict:
    with open(run_dir / "worker.log", "a", encoding="utf-8") as log:
        spawn_before = speed.spawn_seconds()
        t_spawn = _now()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
            stdout=subprocess.PIPE, stderr=log, env=env, cwd=run_dir, text=True,
            start_new_session=True,
        )
        try:
            out, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"crash": f"pass timed out after {PASS_TIMEOUT_S} s"}
        finally:
            if proc.poll() is None:  # timed out or interrupted: end the pass and its children
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
    duration = _now() - t_spawn
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crash": f"worker exited {proc.returncode}; see {run_dir / 'worker.log'}"}
    res = json.loads(lines[-1])
    res.update(
        traced=cfg["traced"],
        duration_s=duration,
        raw_setup_s=res["t_ready"] - t_spawn,
        setup_s=speed.to_reference(res["t_ready"] - t_spawn, "spawn", spawn_before,
                                   res["spawn_after_ready"]),
        interp_ms=(res["t_start"] - t_spawn) * 1000.0,
        import_ms=(res["t_imported"] - res["t_start"]) * 1000.0,
    )
    return res


def min_passes(trace: int) -> int:
    return 4 if trace else 3


def run_passes(args, env: dict, run_dir: Path, op_count: int, nproc: int) -> list[dict]:
    cli = args.workload == "cli-session"
    if cli:
        prefill_cache(run_dir / "cache.jsonl", workloads.build_ops(args.workload, args.seed, args.toy),
                      args.seed, workloads.size(args.toy)["cache_filler"], env)
    kinds = (False, True) if args.trace else (False,)
    began = _now()
    deadline = began + args.seconds
    passes: list[dict] = []
    while True:
        traced = kinds[len(passes) % len(kinds)]
        same = [p["duration_s"] for p in passes if p["traced"] == traced]
        estimate = statistics.median(same) if same else 0.0
        now = _now()
        if len(passes) >= min_passes(args.trace) and now + estimate > deadline:
            break
        if now - began > NO_NEW_PASS_AFTER_S:
            break
        cfg = {
            "workload": args.workload, "seed": args.seed, "toy": args.toy,
            "traced": traced, "inject": args.inject_wrong_count, "nproc": nproc,
            "in_process": bool(args.trace),
            "cache": str(run_dir / "pass-cache.jsonl"), "out": str(run_dir / "export.txt"),
            "spans_path": str(run_dir / f"spans-pass{len(passes)}.jsonl"),
        }
        if cli:
            shutil.copyfile(run_dir / "cache.jsonl", cfg["cache"])
        res = run_pass(cfg, env, run_dir)
        if "crash" in res:
            res.update(traced=traced, attempted=op_count, failures=[res["crash"]] * op_count)
            passes.append(res)
            break
        passes.append(res)
    return passes


def end_to_end(passes: list[dict], tail_p: int, prefix: str = "") -> dict:
    """The end-to-end metrics, in reference seconds (prefix "raw_" for the
    wall-clock figures). Medians are taken per pass, then over passes; the
    tail needs every sample pooled to have ten beyond it."""
    latencies = [x for p in passes for x in p[prefix + "latencies_ms"]]
    return {
        "wall_s": statistics.median(p[prefix + "wall_s"] for p in passes),
        "op_ms.p50": statistics.median(percentile(p[prefix + "latencies_ms"], 50) for p in passes),
        "op_ms.tail": percentile(latencies, tail_p),
        "setup_s": statistics.median(p[prefix + "setup_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


TIME_UNITS = ("s", "ms", "us")


def per_layer(passes: list[dict], units: dict) -> tuple[dict, dict, list[str]]:
    """(metrics, {metric: reason missing}, exact counts that did not repeat).

    Times are in reference seconds, like the end-to-end metrics: a traced
    pass's layer times are scaled by that pass's wall_s / raw_wall_s, and
    the start-up times by its setup_s / raw_setup_s."""
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    out = {
        "startup.interp_ms": statistics.median(
            p["interp_ms"] * p["setup_s"] / p["raw_setup_s"] for p in passes),
        "startup.import_ms": statistics.median(
            p["import_ms"] * p["setup_s"] / p["raw_setup_s"] for p in passes),
    }
    gaps: dict[str, str] = {}
    unstable = []
    if plain and traced:
        base = statistics.median(p["wall_s"] for p in plain)
        over = statistics.median(p["wall_s"] for p in traced) - base
        out["trace.overhead_s"] = over
        out["trace.overhead_ratio"] = over / base
    for name in units:
        if name in out or name.startswith("trace."):
            continue
        scale = units[name] in TIME_UNITS
        values = [p["layers"][name] * (p["wall_s"] / p["raw_wall_s"] if scale else 1)
                  for p in traced if name in p["layers"]]
        if len(values) < len(traced) or not values:
            gaps[name] = next((p["gaps"][name] for p in traced if name in p["gaps"]),
                              "not measured")
            continue
        if name in EXACT:
            if len(set(values)) > 1:
                unstable.append(f"{name} varied between passes: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    for name in units:
        if name not in out and name not in gaps:
            gaps[name] = "not measured"
    return out, gaps, unstable


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="smoke-test sizes")
    parser.add_argument("--inject-wrong-count", action="store_true",
                        help="corrupt the first checked result of each pass (self-test)")
    args = parser.parse_args()
    # SIGTERM unwinds like an exception, so a running pass is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "cycperm" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no cycperm sources under {ROOT / 'src'} (or no BENCHMARK.json); "
              "run from the root of a cycperm checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}

    run_dir = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    nproc = len(os.sched_getaffinity(0))
    prov = provenance(args.seed, nproc)
    env = child_env()
    op_count = len(workloads.build_ops(args.workload, args.seed, args.toy))
    tail_p = workloads.tail_percentile(min_passes(args.trace) * op_count)

    passes = run_passes(args, env, run_dir, op_count, nproc)
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    problems = [p["crash"] for p in passes if "crash" in p]
    ran = [p for p in passes if "crash" not in p]
    foreign = sorted({p["cycperm_file"] for p in ran
                      if not Path(p["cycperm_file"]).resolve().is_relative_to(ROOT / "src")})
    if foreign:
        problems.append(f"cycperm was imported from outside the checkout: {foreign}")

    gaps: dict[str, str] = {}
    metrics: dict[str, float] = {}
    raw: dict[str, float] = {}
    if ran and not problems:
        if args.trace:
            metrics, gaps, unstable = per_layer(ran, units)
            problems += unstable
        else:
            metrics = end_to_end(ran, tail_p)
            raw = end_to_end(ran, tail_p, prefix="raw_")
    latencies = len([x for p in ran for x in p["latencies_ms"]])
    prov["numpy_imported"] = ran[0]["numpy"] if ran else None

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} operations={attempted}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, value in metrics.items():
        note = ""
        if name == "op_ms.tail":
            note = f"  (p{tail_p} of {latencies} samples)"
        elif name == "op_ms.p50":
            note = f"  (median over {len(ran)} passes of each pass's median)"
        elif name in EXACT:
            note = "  (exact count)"
        print(f"  {name:<42} {value:>16.6f} {units[name]}{note}")
    for name, reason in gaps.items():
        print(f"  {name:<42} {'missing':>16}  ({reason})")
    if "harness.memo_hits" in metrics and "harness.memo_misses" in metrics:
        # Not a BENCHMARK.json metric: it has no value where no lookups are made.
        lookups = metrics["harness.memo_hits"] + metrics["harness.memo_misses"]
        ratio = (f"{metrics['harness.memo_hits'] / lookups:>16.6f}  (hits / lookups)" if lookups
                 else f"{'n/a':>16}  (no memo lookups in this workload)")
        print(f"  {'harness.memo_hit_ratio':<42} {ratio}")
    if raw:
        print("  wall clock, not scaled to reference speed: "
              + ", ".join(f"{k} {v:.6f} {units[k]}" for k, v in raw.items()))
    print(f"  {'fail_ratio':<42} {len(failures) / max(attempted, 1):>16.6f} "
          f"({len(failures)} of {attempted} operations)")
    for line in (failures + problems)[:10]:
        print(f"perfbench: {line}", file=sys.stderr)

    correct = not failures and not problems and bool(ran)
    result = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    detail = dict(result, workload=args.workload, trace=args.trace, provenance=prov,
                  fail_ratio=len(failures) / max(attempted, 1), tail_percentile=tail_p,
                  latency_samples=latencies, exact=sorted(EXACT & set(metrics)),
                  raw_wall_clock=raw, missing=gaps, problems=problems, failures=failures[:50],
                  passes=passes)
    (run_dir / "result.json").write_text(json.dumps(detail, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
