"""Machine speed, measured by a fixed slice of work next to each timing.

On a shared host a process gets anywhere from about half to all of a core,
and the share changes every few seconds, so two runs of the same code can
differ by 1.5x in wall time. The benchmark times a fixed slice of work
before and after every operation (and around every process start) and
scales each timing by the slice's time next to it. Times are then reported
in reference seconds: seconds on a machine where the slice takes exactly
its REFERENCE_S value.

There are two slices, matched to what they calibrate:

* "loop", for work done in the worker process: a small pure-Python
  backtracking search over lists, because that slows down under contention
  the way the oracle does and a plain arithmetic loop does not (measured on
  a 2-vCPU Xeon VM: over 15 s windows the ratio of oracle time to this
  slice moved by 3%, to an arithmetic loop by 12%, raw oracle time by 50%);
* "spawn", for process starts and ``cycperm`` subprocesses: starting an
  interpreter that imports numpy (when installed) and some standard-library
  modules, since start-up and loading numpy are most of such a call. Over
  15 s windows the ratio of a ``cycperm formula`` call to it moved by 4.5%,
  to a start-up without numpy by 7%, to the loop slice by 17%, raw call
  time by 27%; over tens of minutes the import of cycperm halved in time
  while a start-up without numpy kept its speed.

Both are the benchmark's own work, so no change to the program moves them.
Raw wall times are kept in each run's result.json.
"""
import sys
import time

REFERENCE_S = {"loop": 0.004, "spawn": 0.250}
_SPAWN_IMPORTS = ("try:\n    import numpy\nexcept ImportError:\n    pass\n"
                  "import argparse, concurrent.futures, dataclasses, fractions, hashlib, json\n")
_N = 7
_CATALAN_7 = 429


def _count_123_avoiders() -> int:
    word: list[int] = []
    used = [False] * (_N + 1)
    count = 0

    def completes_123(v: int) -> bool:
        m = len(word)
        for a in range(m):
            if word[a] < v:
                for b in range(a + 1, m):
                    if word[a] < word[b] < v:
                        return True
        return False

    def extend() -> None:
        nonlocal count
        if len(word) == _N:
            count += 1
            return
        for v in range(1, _N + 1):
            if not used[v] and not completes_123(v):
                used[v] = True
                word.append(v)
                extend()
                word.pop()
                used[v] = False

    extend()
    return count


def loop_seconds() -> float:
    """Wall time of one fixed slice of interpreter work."""
    t0 = time.perf_counter()
    count = _count_123_avoiders()
    elapsed = time.perf_counter() - t0
    if count != _CATALAN_7:
        raise RuntimeError(f"speed slice counted {count}, expected {_CATALAN_7}")
    return elapsed


def spawn_seconds() -> float:
    """Wall time to start an interpreter, run the fixed imports and reap it."""
    import subprocess  # not at module level: the worker imports this before timing start-up

    t0 = time.perf_counter()
    # No timeout: with one, subprocess waits by polling in sleeps of up to
    # 50 ms, which would quantize the slice. run.py bounds each pass instead.
    subprocess.run([sys.executable, "-c", _SPAWN_IMPORTS], check=True)
    return time.perf_counter() - t0


def to_reference(seconds: float, slice_kind: str, before: float, after: float) -> float:
    """A timing scaled to the machine speed the slices around it saw."""
    return seconds * REFERENCE_S[slice_kind] * 2.0 / (before + after)
