"""Spans around the calls into each layer of ``repro``, for traced runs.

Nothing in ``src/`` knows about tracing.  :func:`install` replaces a
layer's public entry point with a wrapper *where the caller looks the
name up* (``repro.pipeline.runner.ftqs``, a method on its class, ...),
records one :class:`Span` per call and restores the originals on exit.
Spans stay in memory; :func:`chrome_trace` renders them once as Chrome
trace-event JSON.

A span's parent is the innermost open span of its thread.  Work handed
to another thread (the threaded executor's shard pool, the service's
work queue) is wrapped by :meth:`Tracer.carry`, so its spans keep the
submitting span as parent.  The service's dispatch spans take their
parent from a ``trace_parent`` query parameter the benchmark client
adds (the service ignores query strings), which links the server's
spans to the client request that caused them.

:func:`self_seconds` turns a span tree into per-name self time: a
span's duration minus the part of it its children cover.  Where spans
of several threads overlap, each instant is split evenly between them,
so the self times of a tree always add up to its root's duration.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit


@dataclass(frozen=True)
class Span:
    """One call into a layer: ids are ``"<pid>.<n>"`` so spans of the
    benchmark and of the server it starts never collide; times are
    ``time.perf_counter_ns`` readings, which share one clock across the
    processes of a host."""

    id: str
    name: str
    start: int
    end: int
    parent: Optional[str]
    thread: int
    pid: int

    def to_list(self) -> list:
        return [
            self.id, self.name, self.start, self.end, self.parent,
            self.thread, self.pid,
        ]

    @classmethod
    def from_list(cls, row: list) -> "Span":
        return cls(*row)


class Tracer:
    """In-memory span recorder with per-thread span stacks and counters."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._seq = itertools.count(1)
        self._lock = threading.Lock()
        self._pid = os.getpid()

    def current(self) -> Optional[str]:
        """The innermost open span of this thread, else the span that
        handed this thread its work (see :meth:`carry`)."""
        stack = getattr(self._local, "stack", None)
        if stack:
            return stack[-1]
        return getattr(self._local, "adopted", None)

    @contextmanager
    def span(self, name: str, parent: Optional[str] = None):
        local = self._local
        stack = local.__dict__.setdefault("stack", [])
        if parent is None:
            parent = self.current()
        span_id = f"{self._pid}.{next(self._seq)}"
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield span_id
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(
                Span(
                    span_id, name, start, end, parent,
                    threading.get_ident(), self._pid,
                )
            )

    def carry(self, fn: Callable) -> Callable:
        """``fn`` bound to the caller's current span, for another thread."""
        parent = self.current()

        @functools.wraps(fn)
        def carried(*args, **kwargs):
            local = self._local
            saved = getattr(local, "adopted", None)
            local.adopted = parent
            try:
                return fn(*args, **kwargs)
            finally:
                local.adopted = saved

        return carried

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] += amount


# ----------------------------------------------------------------------
# Probes: what gets wrapped, and where
# ----------------------------------------------------------------------
def _count_admitted(tracer: Tracer, args, result) -> None:
    if result is not None:
        tracer.count("scheduling.admitted")


def _count_fast_path(tracer: Tracer, args, result) -> None:
    tracer.count("engine.fast", int(result.fast_path.sum()))
    tracer.count("engine.scenarios", int(result.fast_path.size))


def _count_sampled(tracer: Tracer, args, result) -> None:
    evaluator = args[0]
    tracer.count(
        "faults.scenarios", evaluator.n_scenarios * len(evaluator.fault_counts)
    )


def _parent_from_query(args) -> Optional[str]:
    query = parse_qs(urlsplit(args[2]).query)
    return query.get("trace_parent", [None])[0]


@dataclass(frozen=True)
class Probe:
    """Wrap ``module.attr`` (``attr`` may be ``Class.method``) in a
    span named ``span``; ``after(tracer, args, result)`` updates
    counters, ``parent(args)`` overrides the span's parent."""

    module: str
    attr: str
    span: str
    after: Optional[Callable] = None
    parent: Optional[Callable] = None


#: Entry points of every layer, as the experiment runners reach them.
PROBES: Tuple[Probe, ...] = (
    Probe("repro.pipeline.runner", "generate_application", "workloads.generate"),
    Probe("repro.pipeline.runner", "ftss", "scheduling.ftss", _count_admitted),
    Probe("repro.evaluation.experiments.cc", "ftss", "scheduling.ftss", _count_admitted),
    Probe("repro.evaluation.experiments.fig9", "ftsf", "scheduling.ftsf"),
    Probe("repro.evaluation.experiments.cc", "ftsf", "scheduling.ftsf"),
    Probe("repro.pipeline.runner", "ftqs", "quasistatic.ftqs"),
    Probe("repro.pipeline.store.core", "TreeStore.get", "store.get"),
    Probe("repro.pipeline.store.core", "TreeStore.put", "store.put"),
    Probe(
        "repro.evaluation.montecarlo", "MonteCarloEvaluator.__init__",
        "faults.sample", _count_sampled,
    ),
    Probe(
        "repro.evaluation.montecarlo", "MonteCarloEvaluator.evaluate",
        "evaluation.evaluate",
    ),
    Probe("repro.runtime.engine.batch", "ScenarioBatch.from_scenarios", "engine.pack"),
    Probe("repro.runtime.engine.simulator", "BatchSimulator.__init__", "engine.compile"),
    Probe(
        "repro.runtime.engine.decisions", "DecisionTables.sched_thresholds",
        "engine.decisions",
    ),
    Probe("repro.runtime.engine.decisions", "DecisionTables.benefit", "engine.decisions"),
    Probe(
        "repro.runtime.engine.simulator", "BatchSimulator.run_batch",
        "engine.run", _count_fast_path,
    ),
    Probe("repro.runtime.engine.kernel.dispatch", "generate_kernel_source", "kernel.codegen"),
    Probe("repro.runtime.engine.kernel.dispatch", "compile_kernel", "kernel.cc"),
    Probe("repro.runtime.engine.kernel.dispatch", "load_kernel", "kernel.load"),
    Probe(
        "repro.runtime.engine.kernel.dispatch", "KernelSimulator.run_batch",
        "kernel.run", _count_fast_path,
    ),
    Probe("repro.runtime.engine.threads", "ThreadedEvaluator.evaluate", "threads.evaluate"),
)

#: Extra entry points of the ``repro serve`` process.  The service
#: imports ``ftss`` inside the request handler, so its admission call
#: is wrapped on the defining module; that wrapper is left out of the
#: in-process runs, where FTSF's own internal FTSS call would pick it
#: up too.
SERVICE_PROBES: Tuple[Probe, ...] = (
    Probe("repro.scheduling.ftss", "ftss", "scheduling.ftss", _count_admitted),
    Probe(
        "repro.service.server", "dispatch", "service.dispatch",
        parent=_parent_from_query,
    ),
)


def _resolve(probe: Probe):
    owner = importlib.import_module(probe.module)
    *path, name = probe.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, inspect.getattr_static(owner, name)


def _wrap(tracer: Tracer, probe: Probe, fn: Callable) -> Callable:
    after, parent_of = probe.after, probe.parent

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        parent = parent_of(args) if parent_of is not None else None
        with tracer.span(probe.span, parent):
            result = fn(*args, **kwargs)
        if after is not None:
            after(tracer, args, result)
        return result

    return traced


@contextmanager
def install(tracer: Tracer, probes: Iterable[Probe] = PROBES):
    """Wrap every probe's target for the duration of the block.

    Also hands spans across the two thread boundaries of the program:
    the threaded executor's shard pool and the service's work queue.
    """
    from repro.runtime.engine import threads
    from repro.service.queue import WorkQueue

    class CarryingPool(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            return super().submit(tracer.carry(fn), *args, **kwargs)

    execute = WorkQueue.execute

    @functools.wraps(execute)
    def carrying_execute(self, fn, *args, **kwargs):
        return execute(self, tracer.carry(fn), *args, **kwargs)

    saved = [
        (threads, "ThreadPoolExecutor", threads.ThreadPoolExecutor),
        (WorkQueue, "execute", execute),
    ]
    threads.ThreadPoolExecutor = CarryingPool
    WorkQueue.execute = carrying_execute
    for probe in probes:
        owner, name, raw = _resolve(probe)
        saved.append((owner, name, raw))
        if isinstance(raw, classmethod):
            setattr(owner, name, classmethod(_wrap(tracer, probe, raw.__func__)))
        else:
            setattr(owner, name, _wrap(tracer, probe, raw))
    try:
        yield tracer
    finally:
        for owner, name, raw in reversed(saved):
            setattr(owner, name, raw)


# ----------------------------------------------------------------------
# Arithmetic over span trees
# ----------------------------------------------------------------------
def descendants(spans: Iterable[Span], root_id: str) -> List[Span]:
    """The root span and every span below it (any thread or process)."""
    children: Dict[Optional[str], List[Span]] = defaultdict(list)
    by_id: Dict[str, Span] = {}
    for span in spans:
        children[span.parent].append(span)
        by_id[span.id] = span
    out = [by_id[root_id]]
    frontier = [root_id]
    while frontier:
        nxt = []
        for span_id in frontier:
            for child in children.get(span_id, ()):
                out.append(child)
                nxt.append(child.id)
        frontier = nxt
    return out


def _self_pieces(tree: List[Span]) -> List[Tuple[int, int, str]]:
    """``(start, end, name)`` of each span's time not under a child.

    ``tree`` is in :func:`descendants` order (parents first).  Each span
    is clipped to its parent, so a child that a clock difference pushes
    past its parent's end cannot inflate the total.
    """
    bounds: Dict[str, Tuple[int, int]] = {}
    children: Dict[str, List[Tuple[int, int]]] = defaultdict(list)
    for span in tree:
        start, end = span.start, span.end
        if span.parent in bounds:
            start = max(start, bounds[span.parent][0])
            end = min(end, bounds[span.parent][1])
            if end > start:
                children[span.parent].append((start, end))
        bounds[span.id] = (start, max(start, end))
    pieces = []
    for span in tree:
        cursor, end = bounds[span.id]
        for child_start, child_end in sorted(children.get(span.id, ())):
            if child_start > cursor:
                pieces.append((cursor, child_start, span.name))
            cursor = max(cursor, child_end)
        if end > cursor:
            pieces.append((cursor, end, span.name))
    return pieces


def self_seconds(spans: Iterable[Span], root_id: str) -> Dict[str, float]:
    """Self seconds per span name in the tree under ``root_id``.

    Instants covered by the self time of several spans (threads running
    side by side) are split evenly, so the values sum to the root's
    duration.
    """
    tree = descendants(spans, root_id)
    events = []
    for start, end, name in _self_pieces(tree):
        events.append((start, 1, name))
        events.append((end, -1, name))
    events.sort(key=lambda e: (e[0], e[1]))
    active: Dict[str, int] = defaultdict(int)
    n_active = 0
    totals: Dict[str, float] = defaultdict(float)
    previous = None
    for t, delta, name in events:
        if n_active and t > previous:
            share = (t - previous) / n_active
            for active_name, count in active.items():
                if count:
                    totals[active_name] += share * count
        active[name] += delta
        n_active += delta
        previous = t
    return {name: ns / 1e9 for name, ns in totals.items()}


def span_counts(spans: Iterable[Span], root_id: str) -> Dict[str, int]:
    counts: Dict[str, int] = defaultdict(int)
    for span in descendants(spans, root_id):
        counts[span.name] += 1
    return dict(counts)


def chrome_trace(spans: Iterable[Span]) -> dict:
    """Chrome trace-event JSON (complete events, microseconds)."""
    spans = list(spans)
    origin = min((span.start for span in spans), default=0)
    return {
        "displayTimeUnit": "ms",
        "traceEvents": [
            {
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": (span.start - origin) / 1e3,
                "dur": (span.end - span.start) / 1e3,
                "pid": span.pid,
                "tid": span.thread,
                "args": {"id": span.id, "parent": span.parent},
            }
            for span in spans
        ],
    }
