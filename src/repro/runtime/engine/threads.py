"""GIL-free threaded sharding against the generated-C kernel.

:class:`ThreadedEvaluator` is the ``mode="threads"`` executor behind
:class:`~repro.execution.ExecutionConfig`: it splits the scenario
index range into the same contiguous shards as the process executor
(:func:`~repro.runtime.engine.parallel.shard_bounds`) and runs the
same shard body (:func:`~repro.runtime.engine.parallel.simulate_shard`)
on a persistent :class:`~concurrent.futures.ThreadPoolExecutor`.  The
kernel's ``ctypes`` entry point releases the GIL for the whole batch
call, so the shard threads genuinely overlap on multiple cores — with
none of the ``multiprocessing`` machinery (no fork, no shared-memory
publication, no pickling): threads slice the parent's packed
:class:`ScenarioBatch` arrays as views.

Shard results are merged in range order by the same
:func:`~repro.runtime.engine.parallel.merge_shard_outcomes` helper the
process executor uses, so outcomes are **bit-identical** to an inline
``workers=1`` run for any thread count
(``tests/test_threaded_executor.py`` gates this differentially).

Threads need the kernel — :class:`~repro.execution.ExecutionConfig`
rejects a non-kernel ``threads`` config when it is built.  An
evaluation that still cannot run threaded **falls back to process
sharding** with a counted reason (:func:`thread_stats`):

* ``kernel-unavailable`` — no C compiler / kernel build failure; the
  kernel simulator itself would degrade to the (GIL-bound) NumPy
  engine, annulling the point of threads;
* ``chaos`` — an injected ``thread-fail@N`` fault from the chaos DSL
  (:mod:`repro.pipeline.chaos`).

Each shard thread runs its **own** :class:`KernelSimulator` instance:
the compiled kernel code is re-entrant, but the per-simulator residual
replay path (scenarios the C core routes through the Python oracle)
is stateful, so sharing one simulator across threads would be a data
race.  The instances are built sequentially in the calling thread —
the first may compile, the rest hit the in-process loaded-kernel memo
— which keeps the kernel engine's compile/cache-hit counters
deterministic.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.errors import RuntimeModelError
from repro.runtime.engine.parallel import (
    ShardedExecutor,
    _chaos_plan,
    merge_shard_outcomes,
    simulate_shard,
)


@dataclass
class ThreadStats:
    """Counters of the threaded executor's activity.

    ``evaluations`` counts plan evaluations that actually ran on the
    thread pool, ``shards`` the shard tasks they dispatched, and
    ``fallbacks`` maps each fallback reason (``kernel-unavailable``,
    ``chaos``) to how many evaluations it re-routed to process
    sharding.
    """

    evaluations: int = 0
    shards: int = 0
    fallbacks: Dict[str, int] = field(default_factory=dict)

    @property
    def n_fallbacks(self) -> int:
        return sum(self.fallbacks.values())

    def count_fallback(self, reason: str) -> None:
        self.fallbacks[reason] = self.fallbacks.get(reason, 0) + 1

    def snapshot(self) -> "ThreadStats":
        return replace(self, fallbacks=dict(self.fallbacks))

    def as_dict(self) -> Dict[str, object]:
        return {
            "evaluations": self.evaluations,
            "shards": self.shards,
            "fallbacks": dict(self.fallbacks),
        }

    def summary(self) -> str:
        parts = [
            f"{self.evaluations} threaded evaluation(s)",
            f"{self.shards} shard(s)",
        ]
        if self.fallbacks:
            reasons = ", ".join(
                f"{reason}: {count}"
                for reason, count in sorted(self.fallbacks.items())
            )
            parts.append(f"fallbacks {{{reasons}}}")
        return " / ".join(parts)


#: Process-wide counters (the CLI summary line and the service's
#: ``/metrics`` read these; :func:`reset_thread_stats` scopes them to
#: one invocation).
_GLOBAL_STATS = ThreadStats()


def thread_stats() -> ThreadStats:
    """The process-wide threaded-executor counters (live object)."""
    return _GLOBAL_STATS


def reset_thread_stats() -> None:
    """Zero the process-wide counters (start of a CLI invocation)."""
    _GLOBAL_STATS.evaluations = 0
    _GLOBAL_STATS.shards = 0
    _GLOBAL_STATS.fallbacks.clear()


class ThreadedEvaluator(ShardedExecutor):
    """Deterministic thread-sharded Monte-Carlo evaluation.

    Constructed by :meth:`MonteCarloEvaluator.executor` for
    ``mode="threads"`` configs (see :class:`ShardedExecutor`).
    """

    def __init__(self, source, execution) -> None:
        super().__init__(source, execution)
        if self.execution.mode != "threads":
            raise RuntimeModelError(
                f"ThreadedEvaluator needs mode='threads', got "
                f"{self.execution.spec()!r}"
            )
        self._pool: Optional[ThreadPoolExecutor] = None
        #: plan key → per-shard simulators, or None when the kernel
        #: could not materialize for that plan (sticky fallback).
        self._plan_sims: Dict[int, Optional[List]] = {}

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="repro-shard",
            )
        return self._pool

    def close(self) -> None:
        """Shut the thread pool down and drop the per-plan simulators."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._plan_sims.clear()
        super().close()

    def _simulators_for(self, plan, shards: int) -> Optional[List]:
        """One :class:`KernelSimulator` per shard, or ``None`` when the
        kernel cannot materialize for this plan.

        Built sequentially in the calling thread: the first instance
        compiles (or loads the cached artifact), the rest hit the
        in-process memo, so the kernel stats stay deterministic.
        """
        key = self._plan_key(plan)
        if key not in self._plan_sims:
            from repro.runtime.engine.kernel import KernelSimulator

            first = KernelSimulator(self.app, plan)
            if first.engine_used != "kernel":
                self._plan_sims[key] = None
            else:
                self._plan_sims[key] = [first] + [
                    KernelSimulator(self.app, plan)
                    for _ in range(shards - 1)
                ]
        return self._plan_sims[key]

    def _process_fallback(self, plan) -> Dict[int, "EvaluationOutcome"]:
        """Re-route one evaluation through process sharding (the
        source caches that executor alongside this one)."""
        config = replace(self.execution, mode="processes")
        return self._source().executor(config).evaluate(plan)

    def _evaluate_sharded(self, plan, bounds) -> Dict[int, "EvaluationOutcome"]:
        stats = thread_stats()
        chaos = _chaos_plan()
        if chaos is not None:
            try:
                chaos.thread_eval()
            except RuntimeError:
                stats.count_fallback("chaos")
                return self._process_fallback(plan)
        simulators = self._simulators_for(plan, len(bounds))
        if simulators is None:
            stats.count_fallback("kernel-unavailable")
            return self._process_fallback(plan)
        stats.evaluations += 1
        stats.shards += len(bounds)
        pool = self._ensure_pool()
        batches = self._source().batches
        futures = [
            pool.submit(simulate_shard, simulator, batches, lo, hi)
            for simulator, (lo, hi) in zip(simulators, bounds)
        ]
        shards = [future.result() for future in futures]
        return merge_shard_outcomes(self.fault_counts, shards)


__all__ = [
    "ThreadedEvaluator",
    "ThreadStats",
    "thread_stats",
    "reset_thread_stats",
]
