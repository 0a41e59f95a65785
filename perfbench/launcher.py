"""Start ``cycperm`` commands for the worker and report each one's peak RSS.

    python3 -S perfbench/launcher.py

Prints one line when it is ready, then reads one JSON argv list per line
on stdin, runs ``python -m cycperm <argv>`` for each (stderr discarded),
and writes one JSON line ``[exit code, stdout, peak RSS in MB]``.

The commands are not started by the worker itself because on Linux a
child's ``ru_maxrss`` starts at the peak RSS of the process it was forked
from: a child of the worker, which has imported cycperm and numpy, could
never report less than the worker's own peak. This process imports only
the standard library (and no site packages), so it stays far smaller than
any ``cycperm`` command, and what wait4 reports is the command's own peak.
"""
import json
import os
import subprocess
import sys


def run(argv: list) -> list:
    proc = subprocess.Popen(
        [sys.executable, "-m", "cycperm", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    with proc.stdout:
        stdout = proc.stdout.read().decode()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return [proc.returncode, stdout, usage.ru_maxrss / 1024.0]  # KiB on Linux


def main() -> int:
    print("ready", flush=True)
    for line in iter(sys.stdin.readline, ""):
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
