"""Layer spans recorded from outside the program.

:func:`install` wraps the public functions each layer exposes (the names
the callers look up at call time) so every call records a span: layer
name, start, end, the enclosing span in the same thread, and a few counts
(bytes, epochs, simulated instructions, cache hit or miss).  Spans stay in
memory per process.  Pool workers inherit the wrappers when the pool forks
and append their spans to ``<trace_dir>/spans-<pid>.jsonl`` after every
job; the traced server does the same when it exits.  A worker's top-level
spans are children of the span its forking thread had open: the
``engine.runner.batch`` whose pool forked it.

:func:`ledger` turns the spans of every process into per-layer self
times and checks each root span's share of them against its wall time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Layer groups reported as self time, in pipeline order.
LAYERS = (
    "workloads.calibrate",
    "workloads.generate",
    "locks.rewrite",
    "memory.annotate",
    "engine.cache.store",
    "engine.cache.load",
    "core.simulate",
    "smt.run",
    "estimate.call",
    "engine.runner.job",
    "engine.runner.batch",
    "service.submit",
)


class Recorder:
    """Spans of one process, kept in memory until :meth:`flush`."""

    def __init__(self, trace_dir: Path) -> None:
        self.trace_dir = Path(trace_dir)
        self.spans: List[Dict[str, Any]] = []
        self.reports: List[Any] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        #: In a forked child, the span the forking thread had open.
        self.fork_parent: Optional[str] = None
        #: Pool workers forked from this process flush after every job.
        self.owner_pid = os.getpid()
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        """A forked child starts with no spans: the parent's open and
        closed spans stay the parent's, and the innermost span open in
        the forking thread becomes the parent of the child's roots."""
        stack = self._stack()
        self.fork_parent = stack[-1]["id"] if stack else None
        self.spans = []
        self.reports = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Dict[str, Any]:
        stack = self._stack()
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        span = {
            "id": f"{os.getpid()}-{span_id}",
            "name": name,
            "parent": stack[-1]["id"] if stack else self.fork_parent,
            "pid": os.getpid(),
            "wall": time.time(),
            "start": time.perf_counter(),
        }
        stack.append(span)
        return span

    def close(self, span: Dict[str, Any]) -> None:
        span["end"] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Dict[str, Any]]:
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def flush(self) -> None:
        """Append this process's closed spans to its file and forget them."""
        with self._lock:
            spans, self.spans = self.spans, []
        if not spans:
            return
        path = self.trace_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")

    def collect(self) -> List[Dict[str, Any]]:
        """Every span: this process's in memory plus all flushed files."""
        self.flush()
        spans: List[Dict[str, Any]] = []
        for path in sorted(self.trace_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as handle:
                spans.extend(json.loads(line) for line in handle if line.strip())
        return spans


def _wrap(
    recorder: Recorder,
    name: str,
    func: Callable,
    after: Optional[Callable[[Dict[str, Any], tuple, Any], None]] = None,
) -> Callable:
    @functools.wraps(func)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        span = recorder.open(name)
        try:
            result = func(*args, **kwargs)
        finally:
            recorder.close(span)
        if after is not None:
            after(span, args, result)
        return result

    return wrapper


def _file_mb(cache: Any, kind: str, key: str) -> float:
    if cache.directory is None:
        return 0.0
    try:
        return cache._path(kind, key).stat().st_size / 1e6
    except OSError:
        return 0.0


def install(recorder: Recorder) -> None:
    """Wrap each layer's public entry points; call before any pool forks."""
    from repro import api
    from repro import estimate as estimate_mod
    from repro import smt
    from repro.core import backend as backend_mod
    from repro.engine import runner
    from repro.engine.cache import ArtifactCache
    from repro.harness import experiment
    from repro.service.client import ServiceClient

    experiment.calibrate_profile = _wrap(
        recorder, "workloads.calibrate", experiment.calibrate_profile,
    )
    experiment.rewrite_pc_to_wc = _wrap(
        recorder, "locks.rewrite", experiment.rewrite_pc_to_wc,
    )
    experiment.annotate_trace = _wrap(
        recorder, "memory.annotate", experiment.annotate_trace,
    )

    class TracedGenerator(experiment.WorkloadGenerator):
        generate = _wrap(
            recorder, "workloads.generate",
            experiment.WorkloadGenerator.generate,
        )

    experiment.WorkloadGenerator = TracedGenerator

    def after_put(span: Dict[str, Any], args: tuple, result: Any) -> None:
        cache, kind, key = args[0], args[1], args[2]
        span["mb"] = _file_mb(cache, kind, key)

    ArtifactCache.put = _wrap(
        recorder, "engine.cache.store", ArtifactCache.put, after_put,
    )

    original_get = ArtifactCache.get

    @functools.wraps(original_get)
    def traced_get(cache: Any, kind: str, key: str, default: Any = None) -> Any:
        disk_before, memory_before = cache.stats.disk_hits, cache.stats.memory_hits
        span = recorder.open("engine.cache.load")
        try:
            return original_get(cache, kind, key, default)
        finally:
            recorder.close(span)
            if cache.stats.disk_hits > disk_before:
                span["lookup"] = "disk"
                span["mb"] = _file_mb(cache, kind, key)
            elif cache.stats.memory_hits > memory_before:
                span["lookup"] = "memory"
            else:
                span["lookup"] = "miss"

    ArtifactCache.get = traced_get

    def after_simulate(span: Dict[str, Any], args: tuple, result: Any) -> None:
        span["epochs"] = result.epoch_count
        span["insts"] = result.instructions

    backend_mod._ensure_builtins()
    pending = [backend_mod.Backend]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "simulate" in vars(cls):
            cls.simulate = _wrap(
                recorder, "core.simulate", vars(cls)["simulate"],
                after_simulate,
            )

    traced_smt = _wrap(recorder, "smt.run", smt.run_smt)
    smt.run_smt = traced_smt
    api.run_smt = traced_smt

    traced_estimate = _wrap(recorder, "estimate.call", estimate_mod.estimate)
    estimate_mod.estimate = traced_estimate
    api.estimate = traced_estimate

    def after_batch(span: Dict[str, Any], args: tuple, report: Any) -> None:
        span["workers"] = report.workers
        span["busy"] = sum(job.wall_time for job in report.jobs)
        span["misses"] = report.cache_misses
        recorder.reports.append(report)

    runner.EngineRunner.run = _wrap(
        recorder, "engine.runner.batch", runner.EngineRunner.run, after_batch,
    )

    original_job = runner._run_job

    @functools.wraps(original_job)
    def traced_job(*args: Any, **kwargs: Any) -> Any:
        with recorder.span("engine.runner.job"):
            payload = original_job(*args, **kwargs)
        if os.getpid() != recorder.owner_pid:
            recorder.flush()
        return payload

    runner._run_job = traced_job

    ServiceClient.submit = _wrap(
        recorder, "service.submit", ServiceClient.submit,
    )


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of *intervals*."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def ledger(
    spans: List[Dict[str, Any]], start: float, end: float,
) -> Dict[str, Any]:
    """Self time per layer, plus a check of each root, for spans begun in
    the wall-clock window [*start*, *end*).

    A span's self time is its duration minus its children in the same
    process, minus the time at least one of its children in another
    process (a pool worker's job) was running.  A root is a span with no
    enclosing span: a benchmark call in the benchmark process, or a layer
    span in the server.  The self time of a benchmark-call root is
    ``unattributed``: time in the call that no layer claims.

    The self times of a root's whole tree are time spent by its process
    or by pool workers running for it, so they can sum to no more than
    the root's wall time times the largest pool under it.  A root that
    breaks this bound is listed in ``breaches``: its spans are misparented
    or its times do not add up.
    """
    chosen = [span for span in spans if start <= span["wall"] < end]
    by_id = {span["id"]: span for span in chosen}
    children: Dict[str, List[Dict[str, Any]]] = {}
    for span in chosen:
        if span["parent"] in by_id:
            children.setdefault(span["parent"], []).append(span)

    def own(span: Dict[str, Any]) -> float:
        kids = children.get(span["id"], [])
        local = sum(k["end"] - k["start"] for k in kids if k["pid"] == span["pid"])
        remote = _covered([
            (max(k["start"], span["start"]), min(k["end"], span["end"]))
            for k in kids
            if k["pid"] != span["pid"] and k["end"] > span["start"]
            and k["start"] < span["end"]
        ])
        return span["end"] - span["start"] - local - remote

    def tree(span: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
        yield span
        for kid in children.get(span["id"], []):
            yield from tree(kid)

    self_s: Dict[str, float] = {}
    roots: Dict[str, Dict[str, float]] = {}
    breaches: List[str] = []
    unattributed = 0.0
    for span in chosen:
        if span["parent"] in by_id:
            continue
        wall = span["end"] - span["start"]
        workers = 1
        layers = unattributed_here = 0.0
        for node in tree(span):
            node_self = own(node)
            workers = max(workers, node.get("workers", 1))
            if node is span and span["name"] not in LAYERS:
                unattributed_here = node_self
                continue
            layers += node_self
            self_s[node["name"]] = self_s.get(node["name"], 0.0) + node_self
        unattributed += unattributed_here
        row = roots.setdefault(span["name"], dict.fromkeys(
            ("count", "wall_s", "layers_s", "unattributed_s", "bound_s",
             "breaches"), 0.0))
        bound = wall * workers
        row["count"] += 1
        row["wall_s"] += wall
        row["layers_s"] += layers
        row["unattributed_s"] += unattributed_here
        row["bound_s"] += bound
        if layers + unattributed_here > bound + 1e-6:
            row["breaches"] += 1
            breaches.append(
                f"{span['name']} {span['id']}: layers {layers:.6f} s + "
                f"unattributed {unattributed_here:.6f} s > wall {wall:.6f} s "
                f"x {workers} workers"
            )
    return {
        "spans": chosen,
        "self_s": self_s,
        "roots": roots,
        "breaches": breaches,
        "unattributed_s": unattributed,
    }
