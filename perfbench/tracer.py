"""Spans and counts at the cycperm module boundaries, installed from outside.

The tracer replaces each traced function with a wrapper in every ``cycperm``
module namespace that holds it, so calls made through ``from .x import f``
bindings are seen too. Each call becomes one span (id, name, layer, start,
end, parent span, operation id, observed counts), kept in memory and written
out when the pass ends. Nothing in ``src/`` is changed.

A layer's self time is the time its outermost spans cover minus the time
covered by its nearest descendant spans of other layers. Worker threads of
the oracle have no span of their own on their stack, so their spans are
parented to the span open on the main thread.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, NamedTuple, Optional

_HARNESS_CLAIMS = (
    "check_table_one",
    "check_formula_vs_oracle",
    "check_triple_formula",
    "check_chain_conjecture",
    "check_growth_bounds",
    "check_insertion_theorem",
    "check_k_minus_one_question",
    "insertion_construction",
)

#: Per-layer metrics that are exact counts: they must repeat exactly from
#: pass to pass and from run to run of the same code.
EXACT = frozenset(
    {
        "kernel.nodes",
        "kernel.calls",
        "enumeration.count_calls",
        "enumeration.collect_calls",
        "enumeration.witnesses",
        "harness.memo_hits",
        "harness.memo_misses",
        "patterns.avoids_all.calls",
        "perm.is_cyclic.calls",
        "perm.inverse.calls",
        "formulas.pair_count.calls",
        "layered.classify_triple_formula.calls",
        "layered.is_good_triple_direct.calls",
        "cli.cache_lookup.calls",
        "cli.cache_lookup.hits",
        "cli.cache_append.calls",
        "cli.cache_bytes_read",
    }
)

#: Functions reported one by one as <name>.calls and <name>.busy_s.
PER_FUNCTION = (
    "patterns.avoids_all",
    "perm.is_cyclic",
    "perm.inverse",
    "formulas.pair_count",
    "layered.classify_triple_formula",
    "layered.is_good_triple_direct",
    "cli.cache_lookup",
    "cli.cache_append",
)


class Span(NamedTuple):
    sid: int
    name: str
    layer: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]
    info: Optional[dict]


def _read_rchar() -> tuple[int, int]:
    """(bytes this process has read so far, length of this report)."""
    fd = os.open("/proc/self/io", os.O_RDONLY)
    try:
        data = os.read(fd, 4096)
    finally:
        os.close(fd)
    for line in data.decode("ascii").splitlines():
        if line.startswith("rchar:"):
            return int(line.split()[1]), len(data)
    raise OSError("no rchar line in /proc/self/io")


def _observe_enumeration(args, kwargs, result, _pre):
    req = args[0] if args else kwargs.get("req")
    collect = bool(getattr(req, "collect", False))
    # A call that raised (say, n above the cap) searched nothing.
    nodes = 0 if result is None else getattr(result, "nodes_visited", None)
    info = {"collect": collect, "nodes": nodes}
    if collect:
        witnesses = getattr(result, "witnesses", None)
        info["witnesses"] = None if witnesses is None else len(witnesses)
    return info


def _observe_kernel(_args, _kwargs, result, _pre):
    if isinstance(result, tuple) and len(result) == 2:
        return {"nodes": result[1]}
    return {"nodes": None}


def _pre_lookup(_args, _kwargs):
    try:
        return _read_rchar()
    except OSError:
        return None


def _observe_lookup(_args, _kwargs, result, pre):
    info = {"hit": result is not None, "bytes": None}
    if pre is not None:
        try:
            after, _ = _read_rchar()
        except OSError:
            return info
        before, report_len = pre
        info["bytes"] = after - before - report_len
    return info


class Target(NamedTuple):
    module: str
    attr: str
    name: str
    pre: Optional[Callable] = None
    post: Optional[Callable] = None


TARGETS = (
    Target("cycperm._kernels", "_count_from_root", "kernel._count_from_root", post=_observe_kernel),
    Target("cycperm.enumeration", "run_enumeration", "enumeration.run_enumeration",
           post=_observe_enumeration),
    Target("cycperm.harness", "cyclic_count", "harness.cyclic_count"),
    *(Target("cycperm.harness", a, f"harness.{a}") for a in _HARNESS_CLAIMS),
    Target("cycperm.patterns", "avoids_all", "patterns.avoids_all"),
    Target("cycperm.perm", "is_cyclic", "perm.is_cyclic"),
    Target("cycperm.perm", "inverse", "perm.inverse"),
    Target("cycperm.formulas", "pair_count", "formulas.pair_count"),
    Target("cycperm.layered", "classify_triple_formula", "layered.classify_triple_formula"),
    Target("cycperm.layered", "is_good_triple_direct", "layered.is_good_triple_direct"),
    Target("cycperm.layered", "enumerate_good_triples", "layered.enumerate_good_triples"),
    Target("cycperm.layered", "permutation_of_triple", "layered.permutation_of_triple"),
    Target("cycperm.cli", "main", "cli.main"),
    Target("cycperm.cli", "cache_lookup", "cli.cache_lookup", pre=_pre_lookup, post=_observe_lookup),
    Target("cycperm.cli", "cache_append", "cli.cache_append"),
)


class Tracer:
    """Collects spans while installed; one tracer per traced pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: Optional[int] = None
        self.missing: dict[str, str] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self._local.stack = self._main_stack
        for target in TARGETS:
            try:
                original = getattr(importlib.import_module(target.module), target.attr)
            except (ImportError, AttributeError) as exc:
                self.missing[target.name] = f"{target.module}.{target.attr} not found ({exc})"
                continue
            wrapper = self._wrap(original, target)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "cycperm" or mod_name.startswith("cycperm.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()

    def _wrap(self, fn, target: Target):
        spans, local, ids, clock = self.spans, self._local, self._ids, time.perf_counter
        main_stack, name = self._main_stack, target.name
        layer = name.split(".", 1)[0]
        pre, post = target.pre, target.post

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else None)
            sid = next(ids)
            stack.append(sid)
            before = pre(args, kwargs) if pre else None
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                info = post(args, kwargs, result, before) if post else None
                spans.append(Span(sid, name, layer, start, end, parent, self.op, info))

        return wrapper

    def write(self, path: str) -> None:
        """One JSON object per span, after a header naming what was missing."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"missing": self.missing, "spans": len(self.spans)}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


def _union(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(spans: list[Span], missing: dict[str, str]) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, and {metric: reason} for those
    that could not be measured."""
    by_id = {s.sid: s for s in spans}
    children: dict[Optional[int], list[Span]] = defaultdict(list)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
        by_name[s.name].append(s)

    def busy(name: str) -> float:
        return _union((s.start, s.end) for s in by_name[name])

    def self_time(layer: str) -> float:
        tops = [s for s in spans if s.layer == layer
                and (s.parent not in by_id or by_id[s.parent].layer != layer)]
        foreign, todo = [], list(tops)
        while todo:
            for child in children[todo.pop().sid]:
                (todo if child.layer == layer else foreign).append(child)
        return _union((s.start, s.end) for s in tops) - _union((s.start, s.end) for s in foreign)

    def has_descendant(span: Span, name: str) -> bool:
        todo = [span]
        while todo:
            for child in children[todo.pop().sid]:
                if child.name == name:
                    return True
                todo.append(child)
        return False

    out: dict[str, float] = {}
    gaps: dict[str, str] = {}

    def need(metric: str, *targets: str) -> bool:
        absent = [t for t in targets if t in missing]
        if absent:
            gaps[metric] = "; ".join(missing[t] for t in absent)
        return not absent

    kernel = by_name["kernel._count_from_root"]
    oracle = by_name["enumeration.run_enumeration"]
    counting = [s for s in oracle if s.info and not s.info["collect"]]
    collecting = [s for s in oracle if s.info and s.info["collect"]]

    if need("kernel.calls", "kernel._count_from_root"):
        out["kernel.calls"] = len(kernel)
        out["kernel.busy_s"] = _union((s.start, s.end) for s in kernel)
        kernel_nodes = [s.info["nodes"] for s in kernel]
        if None in kernel_nodes:
            gaps["kernel.us_per_node"] = "the kernel entry no longer returns (count, nodes)"
        elif sum(kernel_nodes):
            out["kernel.us_per_node"] = out["kernel.busy_s"] / sum(kernel_nodes) * 1e6
        else:
            gaps["kernel.us_per_node"] = "the kernel visited no nodes"
    else:
        gaps["kernel.busy_s"] = gaps["kernel.us_per_node"] = gaps["kernel.calls"]

    if need("kernel.nodes", "enumeration.run_enumeration"):
        nodes = [s.info["nodes"] for s in oracle]
        if None in nodes:
            gaps["kernel.nodes"] = "EnumerationResult has no nodes_visited"
        else:
            out["kernel.nodes"] = sum(nodes)
        out["enumeration.count_calls"] = len(counting)
        out["enumeration.count_busy_s"] = _union((s.start, s.end) for s in counting)
        out["enumeration.collect_calls"] = len(collecting)
        out["enumeration.collect_busy_s"] = _union((s.start, s.end) for s in collecting)
        out["enumeration.witnesses"] = sum(s.info.get("witnesses") or 0 for s in collecting)
    else:
        for metric in ("enumeration.count_calls", "enumeration.count_busy_s",
                       "enumeration.collect_calls", "enumeration.collect_busy_s",
                       "enumeration.witnesses"):
            gaps[metric] = gaps["kernel.nodes"]
    if need("enumeration.self_s", "enumeration.run_enumeration", "kernel._count_from_root"):
        out["enumeration.self_s"] = self_time("enumeration")

    if need("harness.memo_hits", "harness.cyclic_count", "enumeration.run_enumeration"):
        lookups = by_name["harness.cyclic_count"]
        misses = sum(has_descendant(s, "enumeration.run_enumeration") for s in lookups)
        out["harness.memo_hits"] = len(lookups) - misses
        out["harness.memo_misses"] = misses
    else:
        gaps["harness.memo_misses"] = gaps["harness.memo_hits"]
    out["harness.claim_self_s"] = self_time("harness")

    for name in PER_FUNCTION:
        if need(f"{name}.calls", name):
            out[f"{name}.calls"] = len(by_name[name])
            out[f"{name}.busy_s"] = busy(name)
        else:
            gaps[f"{name}.busy_s"] = gaps[f"{name}.calls"]
    if "cli.cache_lookup" not in missing:
        lookups = by_name["cli.cache_lookup"]
        out["cli.cache_lookup.hits"] = sum(1 for s in lookups if s.info["hit"])
        read = [s.info["bytes"] for s in lookups]
        if None in read:
            gaps["cli.cache_bytes_read"] = "/proc/self/io is not readable"
        else:
            out["cli.cache_bytes_read"] = sum(read)
    else:
        gaps["cli.cache_lookup.hits"] = gaps["cli.cache_bytes_read"] = missing["cli.cache_lookup"]

    for layer in ("patterns", "perm", "formulas", "layered", "cli"):
        out[f"{layer}.self_s"] = self_time(layer)
    return out, gaps
