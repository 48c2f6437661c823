"""GIL-free threaded sharding against the generated-C kernel.

:class:`ThreadedEvaluator` is the ``mode="threads"`` executor behind
:class:`~repro.execution.ExecutionConfig`: it splits the scenario
index range into the same contiguous shards as the process executor
(:func:`~repro.runtime.engine.parallel.shard_bounds`) and runs them on
a persistent :class:`~concurrent.futures.ThreadPoolExecutor`.  The
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

Threading only pays off when the GIL is actually released, so every
evaluation that cannot run threaded **falls back to process sharding**
with a counted reason (:func:`thread_stats`):

* ``engine-not-kernel`` — the NumPy and reference engines hold the
  GIL; process sharding is the right tool for them;
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

import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.errors import RuntimeModelError
from repro.execution import ExecutionConfig
from repro.runtime.engine.batch import ScenarioBatch
from repro.runtime.engine.parallel import (
    _ShardRaw,
    merge_shard_outcomes,
    shard_bounds,
)


@dataclass
class ThreadStats:
    """Counters of the threaded executor's activity.

    ``evaluations`` counts plan evaluations that actually ran on the
    thread pool, ``shards`` the shard tasks they dispatched, and
    ``fallbacks`` maps each fallback reason (``engine-not-kernel``,
    ``kernel-unavailable``, ``chaos``) to how many evaluations it
    re-routed to process sharding.
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


def _chaos_plan():
    """The active chaos plan, without importing the chaos module (the
    same no-cycle idiom as the process pool's)."""
    module = sys.modules.get("repro.pipeline.chaos")
    return module.current() if module is not None else None


def _run_shard(
    simulator, batches: Dict[int, ScenarioBatch], lo: int, hi: int
) -> _ShardRaw:
    """Thread task: simulate scenarios ``[lo, hi)`` of every set.

    Slices are NumPy views into the parent's packed arrays — no
    copies.  Runs entirely off the GIL while the kernel call is in
    flight; the raw result shape matches the process workers', so the
    shared merge helper applies.
    """
    out: _ShardRaw = {}
    for faults, batch in batches.items():
        piece = ScenarioBatch(
            batch.names,
            batch.durations[lo:hi],
            batch.fault_counts[lo:hi],
        )
        result = simulator.run_batch(piece)
        out[faults] = (
            [float(u) for u in result.utilities],
            int(result.deadline_miss.sum()),
            int(result.switch_counts.sum()),
            int(result.faults_observed.sum()),
            result.n_fallback,
        )
    return out


class ThreadedEvaluator:
    """Deterministic thread-sharded Monte-Carlo evaluation.

    Constructed by :meth:`MonteCarloEvaluator.executor` for
    ``mode="threads"`` configs; ``source`` supplies the packed
    scenario batches (shared, never re-derived) and — like the process
    executor — is held weakly to avoid an ownership cycle.
    ``evaluate`` returns the same ``{fault count: EvaluationOutcome}``
    mapping an inline evaluator produces.
    """

    def __init__(self, source, execution) -> None:
        config = ExecutionConfig.coerce(execution)
        if config.mode != "threads":
            raise RuntimeModelError(
                f"ThreadedEvaluator needs mode='threads', got "
                f"{config.spec()!r}"
            )
        self.execution = config
        self.engine = config.engine
        self.workers = config.workers
        self.app = source.app
        self.n_scenarios = source.n_scenarios
        self.fault_counts = list(source.fault_counts)
        self.seed = source.seed
        self._source_ref = weakref.ref(source)
        self._own_source = None
        self._pool: Optional[ThreadPoolExecutor] = None
        #: plan key → per-shard simulators, or None when the kernel
        #: could not materialize for that plan (sticky fallback).
        self._plan_sims: Dict[int, Optional[List]] = {}
        self._plan_keys: Dict[int, Tuple[object, int]] = {}
        self._plan_counter = 0

    # ------------------------------------------------------------------
    # Sources and lifecycle
    # ------------------------------------------------------------------
    def _source(self):
        """The evaluator supplying scenario sets (derived if absent)."""
        if self._source_ref is not None:
            source = self._source_ref()
            if source is not None:
                return source
        if self._own_source is None:
            from repro.evaluation.montecarlo import MonteCarloEvaluator

            self._own_source = MonteCarloEvaluator(
                self.app,
                n_scenarios=self.n_scenarios,
                fault_counts=self.fault_counts,
                seed=self.seed,
            )
        return self._own_source

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
        self._plan_keys.clear()
        if self._own_source is not None:
            self._own_source.close()
            self._own_source = None

    def __enter__(self) -> "ThreadedEvaluator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _plan_key(self, plan) -> int:
        """Stable plan identity (same idiom as the process executor)."""
        entry = self._plan_keys.get(id(plan))
        if entry is None or entry[0] is not plan:
            self._plan_counter += 1
            entry = (plan, self._plan_counter)
            self._plan_keys[id(plan)] = entry
        return entry[1]

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
        sims = self._plan_sims[key]
        if sims is not None and len(sims) < shards:  # pragma: no cover
            from repro.runtime.engine.kernel import KernelSimulator

            sims += [
                KernelSimulator(self.app, plan)
                for _ in range(shards - len(sims))
            ]
        return sims

    def _process_fallback(self, plan) -> Dict[int, "EvaluationOutcome"]:
        """Re-route one evaluation through process sharding (the
        source caches that executor alongside this one)."""
        config = replace(self.execution, mode="processes")
        return self._source().executor(config).evaluate(plan)

    def evaluate(self, plan) -> Dict[int, "EvaluationOutcome"]:
        """Run all scenario sets against ``plan`` across the threads."""
        stats = thread_stats()
        chaos = _chaos_plan()
        if chaos is not None:
            try:
                chaos.thread_eval()
            except RuntimeError:
                stats.count_fallback("chaos")
                return self._process_fallback(plan)
        if self.engine != "kernel":
            stats.count_fallback("engine-not-kernel")
            return self._process_fallback(plan)
        bounds = shard_bounds(self.n_scenarios, self.workers)
        simulators = self._simulators_for(plan, len(bounds))
        if simulators is None:
            stats.count_fallback("kernel-unavailable")
            return self._process_fallback(plan)
        source = self._source()
        if len(bounds) == 1:
            # One shard: inline over the sampled batches.
            return source.evaluate(
                plan, execution=ExecutionConfig(engine=self.engine)
            )
        stats.evaluations += 1
        stats.shards += len(bounds)
        pool = self._ensure_pool()
        futures = [
            pool.submit(_run_shard, simulators[i], source.batches, lo, hi)
            for i, (lo, hi) in enumerate(bounds)
        ]
        shards = [future.result() for future in futures]
        return merge_shard_outcomes(self.fault_counts, shards)

    def compare(
        self, plans
    ) -> Dict[str, Dict[int, "EvaluationOutcome"]]:
        """Evaluate several named plans over one persistent thread
        pool."""
        return {name: self.evaluate(plan) for name, plan in plans.items()}


__all__ = [
    "ThreadedEvaluator",
    "ThreadStats",
    "thread_stats",
    "reset_thread_stats",
]
