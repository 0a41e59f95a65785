"""One pass of one workload, in a fresh process with an empty harness memo.

    python3 perfbench/worker.py '<json config>'

run.py starts it with PYTHONPATH naming the checkout's ``src``. Until the
workload can start, the worker does only what every user of the package
pays: start the interpreter, ``import cycperm`` and make one tiny oracle
call. It stamps each of those moments on CLOCK_MONOTONIC, which run.py reads
too, then runs the pass and prints one JSON line with the results.
cli-session's commands are started by launcher.py, so that each one's own
peak RSS can be read (see there). A speed slice (see speed.py) runs once
after set-up and then after each run of operations that together took
SLICE_EVERY_MS or more: the spawn slice when the operations are
subprocesses, the loop slice otherwise. Operations quicker than that run
back to back, as they do for a user, and each is scaled by the slices
around its run.
"""
import sys
import time

import speed

SLICE_EVERY_MS = 20.0


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    t_start = _now()
    import cycperm  # the import is what is timed
    from cycperm.enumeration import EnumerationRequest, count_cyclic_avoiders
    from cycperm.patterns import parse_pattern

    t_imported = _now()
    tiny = count_cyclic_avoiders(EnumerationRequest(n=3, patterns=(parse_pattern("123"),))).count
    t_ready = _now()
    spawn_after_ready = speed.spawn_seconds()

    import json
    import os
    import resource

    import ops
    import workloads
    from tracer import Tracer, layer_metrics

    cfg = json.loads(sys.argv[1])
    slice_kind = "spawn" if _uses_subprocesses(cfg) else "loop"
    measure_slice = speed.spawn_seconds if slice_kind == "spawn" else speed.loop_seconds
    op_list = workloads.build_ops(cfg["workload"], cfg["seed"], cfg["toy"])
    launcher = ops.Launcher() if _uses_subprocesses(cfg) else None
    run_one = _runner(cfg, op_list, launcher)
    failures = [] if tiny == 2 else [f"set-up call C_3(123) = {tiny}, expected 2"]
    if cfg["inject"] and cfg["workload"] != "cli-session":
        _inject_wrong_count()
    tracer = Tracer() if cfg["traced"] else None
    if tracer:
        tracer.install()

    latencies = []
    slices = [measure_slice()]
    slice_before = []  # per operation, the index of the last slice taken before it
    since_slice_ms = 0.0
    for i, op in enumerate(op_list):
        if tracer:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            problem = run_one(i, op)
        except Exception as exc:  # an exception is a failed operation, not a crash
            problem = f"operation {i} raised {type(exc).__name__}: {exc}"
        latencies.append((time.perf_counter() - t0) * 1000.0)
        slice_before.append(len(slices) - 1)
        since_slice_ms += latencies[-1]
        if since_slice_ms >= SLICE_EVERY_MS or i == len(op_list) - 1:
            slices.append(measure_slice())
            since_slice_ms = 0.0
        if problem:
            failures.append(problem)
    if launcher:
        launcher.close()
    latencies_ref = [speed.to_reference(ms, slice_kind, slices[j], slices[j + 1])
                     for ms, j in zip(latencies, slice_before)]

    result = {}
    if tracer:
        tracer.uninstall()
        layers, gaps = layer_metrics(tracer.spans, tracer.missing)
        tracer.write(cfg["spans_path"])
        result.update(layers=layers, gaps=gaps)
    if launcher:
        peak_rss_mb = launcher.peak_rss_mb
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    result.update(
        t_start=t_start,
        t_imported=t_imported,
        t_ready=t_ready,
        spawn_after_ready=spawn_after_ready,
        slices=slices,
        raw_wall_s=sum(latencies) / 1000.0,
        wall_s=sum(latencies_ref) / 1000.0,
        raw_latencies_ms=latencies,
        latencies_ms=latencies_ref,
        attempted=len(op_list) + (tiny != 2),
        failures=failures,
        peak_rss_mb=peak_rss_mb,
        numpy=getattr(sys.modules.get("numpy"), "__version__", None),
        cycperm_file=cycperm.__file__,
        pid=os.getpid(),
    )
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


def _uses_subprocesses(cfg: dict) -> bool:
    return cfg["workload"] == "cli-session" and not cfg["in_process"]


def _runner(cfg: dict, op_list: list, launcher):
    """The function that runs and checks operation i. cli-session runs
    through the launcher when it is given, in this process otherwise."""
    import ops
    import workloads

    workload = cfg["workload"]
    if workload == "table1":
        return lambda i, op: ops.table1_cell(op, cfg["nproc"])
    if workload == "pairs":
        return lambda i, op: ops.pairs_cell(op)
    golden = workloads.load_golden()
    if workload == "claims":
        wants = golden[workloads.claims_golden_key(cfg["toy"])]
        return lambda i, op: ops.claims_op(op, wants[i])
    expected = [workloads.expected_cli(op, golden) for op in op_list]
    if cfg["inject"]:
        code, stdout, file_text = expected[0]
        expected[0] = (code, stdout + "injected\n", file_text)
    call = launcher.run if launcher else ops.cli_in_process

    def run_cli(i, op):
        argv = ops.cli_argv(op, cfg["cache"], cfg["out"])
        code, stdout = call(argv)
        return ops.cli_check(op, expected[i], code, stdout, cfg["out"])

    return run_cli


def _inject_wrong_count() -> None:
    """Make the first oracle call of the pass answer one too many."""
    from cycperm import enumeration

    original = enumeration.run_enumeration
    pending = [True]

    def wrong_once(*args, **kwargs):
        result = original(*args, **kwargs)
        if pending:
            pending.clear()
            result.count += 1
        return result

    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "cycperm" or name.startswith("cycperm.")):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrong_once)


if __name__ == "__main__":
    sys.exit(main())
