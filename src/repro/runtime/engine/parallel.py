"""Sharded Monte-Carlo evaluation across ``multiprocessing`` workers.

:class:`ParallelEvaluator` splits the scenario index range of a
Monte-Carlo evaluation into contiguous shards, one per job.  The
evaluator's sampled :class:`ScenarioBatch` arrays are published to the
workers through ``multiprocessing.shared_memory`` (the durations array
every fault count shares, once) as a worker *context*: each
:meth:`TaskPool.map` carries ``(token, install, args)``, and a worker
that does not hold the token yet attaches to the segments when the
context arrives over its pipe, never copying or re-deriving the
scenario data.  Shard boundaries select which slice a worker
simulates; per-scenario results are independent of the slicing, so the
merged :class:`~repro.evaluation.montecarlo.EvaluationOutcome` per
fault count is identical to a single-process run, for any job count.

Every path — inline, process shards, thread shards — runs the same
shard body, :func:`simulate_shard`, against a simulator from
:func:`simulator_for`: the reference oracle loop, the NumPy
``BatchSimulator`` or the generated-C ``KernelSimulator`` (the parent
warms the shared artifact cache before fanning out, so workers load
the prebuilt object instead of racing to compile it).

The pool is *persistent*: it is created lazily on the first
``evaluate()`` and reused across ``evaluate()``/``compare()`` calls
for the evaluator's lifetime, so comparing many plans pays the
fork/attach cost once; a pool borrowed from a
:class:`~repro.pipeline.resources.ResourceManager` serves every
application of a run the same way.  Each worker compiles a plan once
per ``evaluate()`` call and reuses it across that plan's fault counts
(``tests/test_parallel_pool.py`` pins the pool reuse and the context
installs).
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import signal
import sys
import time
import warnings
import weakref
from collections import deque
from dataclasses import dataclass, replace
from multiprocessing import connection, shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import RuntimeModelError
from repro.execution import ExecutionConfig
from repro.runtime.engine.batch import ScenarioBatch

#: Parent-side unique tokens naming published worker contexts (see
#: :meth:`TaskPool.map`).  A worker installs a context only when the
#: token differs from the one it holds, which is what makes one pool
#: reusable across evaluators and applications.
_CONTEXT_TOKENS = itertools.count(1)


def next_context_token() -> int:
    """A fresh parent-process-unique worker-context token."""
    return next(_CONTEXT_TOKENS)


def shard_bounds(n_scenarios: int, workers: int) -> List[Tuple[int, int]]:
    """Contiguous, near-equal scenario ranges, one per shard.

    Deterministic in (``n_scenarios``, ``workers``) — the foundation of
    outcome-preserving sharding for both the process and the thread
    executors.
    """
    shards = min(workers, n_scenarios)
    size, extra = divmod(n_scenarios, shards)
    bounds = []
    lo = 0
    for shard in range(shards):
        hi = lo + size + (1 if shard < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


#: One shard's raw result per fault count: (utilities, misses, total
#: switches, total observed faults, oracle fallbacks).
_ShardRaw = Dict[int, Tuple[List[float], int, int, int, int]]


def merge_shard_outcomes(
    fault_counts: Sequence[int], shards: Sequence[_ShardRaw]
) -> Dict[int, "EvaluationOutcome"]:
    """Merge per-shard raw results in shard (= scenario range) order.

    Per-scenario results are independent of the slicing, so merging the
    shards of :func:`shard_bounds` reproduces a single in-process run
    bit for bit, for any shard count (one shard: the inline run).
    """
    from repro.evaluation.montecarlo import EvaluationOutcome

    outcomes: Dict[int, EvaluationOutcome] = {}
    for faults in fault_counts:
        utilities: List[float] = []
        misses = switches = observed = fallbacks = 0
        for shard in shards:
            (
                shard_utilities,
                shard_misses,
                shard_switches,
                shard_observed,
                shard_fallbacks,
            ) = shard[faults]
            utilities.extend(shard_utilities)
            misses += shard_misses
            switches += shard_switches
            observed += shard_observed
            fallbacks += shard_fallbacks
        outcomes[faults] = EvaluationOutcome.aggregate(
            utilities, misses, switches, observed, fallbacks
        )
    return outcomes


def simulator_for(engine: str, app, plan):
    """The ``run_batch`` simulator of ``engine`` for ``plan`` (the
    kernel simulator degrades to the batched engine on its own)."""
    if engine == "kernel":
        from repro.runtime.engine.kernel import KernelSimulator

        return KernelSimulator(app, plan)
    from repro.runtime.engine.simulator import (
        BatchSimulator,
        ReferenceSimulator,
    )

    if engine == "batched":
        return BatchSimulator(app, plan)
    return ReferenceSimulator(app, plan)


def simulate_shard(
    simulator,
    batches: Dict[int, ScenarioBatch],
    lo: int = 0,
    hi: Optional[int] = None,
) -> _ShardRaw:
    """The one shard body: simulate scenarios ``[lo, hi)`` of every set.

    ``hi=None`` runs the whole batches themselves (so their cached
    attempt sums are reused); a range runs NumPy views of them — no
    copies.  The kernel call inside ``run_batch`` releases the GIL, so
    thread shards of this body overlap on multiple cores.
    """
    out: _ShardRaw = {}
    for faults, batch in batches.items():
        if hi is not None:
            batch = ScenarioBatch(
                batch.names,
                batch.durations[lo:hi],
                batch.fault_counts[lo:hi],
            )
        result = simulator.run_batch(batch)
        out[faults] = (
            [float(u) for u in result.utilities],
            int(result.deadline_miss.sum()),
            int(result.switch_counts.sum()),
            int(result.faults_observed.sum()),
            result.n_fallback,
        )
    return out


#: (shm name of durations, durations shape, shm name of fault counts)
_BatchSpec = Tuple[str, Tuple[int, int, int], str]


def _attach_batches(
    names: Tuple[str, ...], specs: Dict[int, _BatchSpec]
) -> Tuple[Dict[int, ScenarioBatch], List[shared_memory.SharedMemory]]:
    """Attach the published scenario arrays (no copies); a segment
    named by several specs (the shared durations) is attached once."""
    attached: Dict[str, shared_memory.SharedMemory] = {}

    def view(name: str, shape) -> np.ndarray:
        segment = attached.get(name)
        if segment is None:
            segment = attached[name] = shared_memory.SharedMemory(name=name)
        return np.ndarray(shape, dtype=np.int64, buffer=segment.buf)

    batches: Dict[int, ScenarioBatch] = {
        faults: ScenarioBatch(
            names, view(durations_name, shape), view(fault_name, shape[:2])
        )
        for faults, (durations_name, shape, fault_name) in specs.items()
    }
    return batches, list(attached.values())


class _ShardContext:
    """A worker's evaluation context — the install function of the
    process executor's pool context.

    Holds the attached scenario batches (the segments stay attached
    until the next context replaces this one) and the simulator of
    the plan seen last, reused for every fault count and shard of it.
    """

    def __init__(self, app, names, specs, engine) -> None:
        self.app = app
        self.engine = engine
        self.batches, self.segments = _attach_batches(tuple(names), specs)
        self.plan_key: Optional[int] = None
        self.simulator = None


def _simulate_slice(context: _ShardContext, task) -> _ShardRaw:
    """Worker task: simulate scenarios ``[lo, hi)`` of each set.

    ``plan_key`` identifies the plan across a fan-out: its simulator
    (decision tables included) is built on first sight and reused.
    """
    plan_key, plan, lo, hi = task
    if context.plan_key != plan_key:
        context.simulator = simulator_for(context.engine, context.app, plan)
        context.plan_key = plan_key
    return simulate_shard(context.simulator, context.batches, lo, hi)


def _release(pool, segments) -> None:
    """Tear down a pool and its shared segments (idempotent-by-use)."""
    if pool is not None:
        pool.terminate()
        pool.join()
    for segment in segments:
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


@dataclass
class PoolRecovery:
    """Counters of one pool's (or the process's) fault handling.

    ``worker_deaths`` counts workers that died unexpectedly mid-run
    (a crash or SIGKILL), ``timeouts`` workers killed for exceeding the
    per-task deadline, ``respawns`` replacement workers forked,
    ``task_retries`` tasks re-dispatched after losing their worker,
    ``degraded_tasks`` tasks that exhausted their retry budget and ran
    in-process instead, and ``pool_degradations`` pools that spent
    their whole respawn budget and finished the run in-process
    (``jobs=N`` → ``jobs=1`` with a warning, never an abort).
    """

    worker_deaths: int = 0
    timeouts: int = 0
    respawns: int = 0
    task_retries: int = 0
    degraded_tasks: int = 0
    pool_degradations: int = 0

    def any(self) -> bool:
        return bool(
            self.worker_deaths
            or self.timeouts
            or self.respawns
            or self.task_retries
            or self.degraded_tasks
            or self.pool_degradations
        )

    def snapshot(self) -> "PoolRecovery":
        return replace(self)

    def merge(self, other: "PoolRecovery") -> None:
        self.worker_deaths += other.worker_deaths
        self.timeouts += other.timeouts
        self.respawns += other.respawns
        self.task_retries += other.task_retries
        self.degraded_tasks += other.degraded_tasks
        self.pool_degradations += other.pool_degradations

    def summary(self) -> str:
        parts = [
            f"{self.worker_deaths} worker death(s)",
            f"{self.respawns} respawn(s)",
            f"{self.task_retries} retried task(s)",
        ]
        if self.timeouts:
            parts.append(f"{self.timeouts} timeout(s)")
        if self.degraded_tasks:
            parts.append(
                f"{self.degraded_tasks} in-process fallback task(s)"
            )
        if self.pool_degradations:
            parts.append(
                f"{self.pool_degradations} pool(s) degraded to "
                f"in-process"
            )
        return " / ".join(parts)


#: Process-wide aggregate over every pool (the CLI summary line reads
#: this; :func:`reset_pool_recovery` scopes it to one invocation).
_GLOBAL_RECOVERY = PoolRecovery()


def pool_recovery() -> PoolRecovery:
    """The process-wide recovery counters (live object)."""
    return _GLOBAL_RECOVERY


def reset_pool_recovery() -> None:
    """Zero the process-wide counters (start of a CLI invocation)."""
    _GLOBAL_RECOVERY.worker_deaths = 0
    _GLOBAL_RECOVERY.timeouts = 0
    _GLOBAL_RECOVERY.respawns = 0
    _GLOBAL_RECOVERY.task_retries = 0
    _GLOBAL_RECOVERY.degraded_tasks = 0
    _GLOBAL_RECOVERY.pool_degradations = 0


def _chaos_plan():
    """The active chaos plan, without importing the chaos module.

    Consulting ``sys.modules`` keeps this layer free of a pipeline
    import (no cycle) and free even of the import cost: a plan can
    only be active if something already imported and activated it.
    """
    module = sys.modules.get("repro.pipeline.chaos")
    return module.current() if module is not None else None


def _apply_chaos_action(action: str) -> None:  # pragma: no cover - dies
    """Worker-side execution of an injected fault."""
    if action == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    elif action == "hang":
        while True:
            time.sleep(3600.0)


def _portable_exception(exc: BaseException) -> BaseException:
    """``exc`` if it survives pickling, else a picklable stand-in."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeModelError(f"worker task failed: {exc!r}")


def _pool_worker_main(task_r, result_w) -> None:
    """Worker process body: a recv→run→send loop.

    Messages are ``(gen, seq, fn, task, chaos_action, context)``;
    replies are ``(gen, seq, ok, result_or_exception)``.  ``gen``
    identifies the :meth:`TaskPool.map` call, so the parent can discard
    results of an aborted map instead of mistaking them for the
    current one's.  ``context`` is ``None`` for a plain map (``fn(task)``)
    and ``(install, args)`` for a contextual one (``fn(state, task)``):
    ``install`` is set only when the parent's record says this worker
    does not hold the map's token, and then replaces ``state`` with
    ``install(*args)``.
    """
    state = None
    while True:
        try:
            item = task_r.recv()
        except (EOFError, OSError):
            return
        if item is None:
            return
        gen, seq, fn, task, action, context = item
        if action is not None:
            _apply_chaos_action(action)
        try:
            if context is None:
                result = fn(task)
            else:
                install, args = context
                if install is not None:
                    state = None  # drop the old context first
                    state = install(*args)
                result = fn(state, task)
            payload = (gen, seq, True, result)
        except BaseException as exc:
            payload = (gen, seq, False, _portable_exception(exc))
        try:
            result_w.send(payload)
        except (BrokenPipeError, OSError):
            return
        except Exception as exc:  # unpicklable result
            result_w.send(
                (
                    gen,
                    seq,
                    False,
                    RuntimeModelError(
                        f"worker result not picklable: {exc!r}"
                    ),
                )
            )


class _Worker:
    """One worker process plus its private task/result pipes.

    Per-worker pipes (instead of shared queues) are the crash-safety
    foundation: a worker SIGKILLed mid-``send`` can only tear its own
    channel, never wedge a lock other workers and the parent share —
    the classic way ``multiprocessing.Pool.map`` deadlocks on a dead
    worker.
    """

    __slots__ = ("process", "task_w", "result_r", "current", "token")

    def __init__(self, process, task_w, result_r):
        self.process = process
        self.task_w = task_w
        self.result_r = result_r
        #: (gen, seq, dispatched_at) of the in-flight task, or None.
        self.current: Optional[Tuple[int, int, float]] = None
        #: Token of the context this worker holds (None: none yet).
        self.token: Optional[int] = None


#: Parent poll interval while waiting on results/sentinels.
_POLL_SECONDS = 0.05


class TaskPool:
    """Small task-sharding facade over a persistent worker pool.

    Runs arbitrary picklable tasks on workers spawned once and reused
    for every :meth:`map` call.  ``map`` preserves task order, so a
    caller that merges results positionally is deterministic for any
    worker count.  Workers carry no application state of their own: a
    map that needs some passes ``context=(token, install, args)``, and
    each worker runs ``install(*args)`` — once, when the token differs
    from the one the parent recorded for it — and then its tasks as
    ``fn(state, task)``.  One pool therefore serves any number of
    contexts in sequence; a
    :class:`repro.pipeline.resources.ResourceManager` shares one
    across every application of an experiment run.  Users:

    * :class:`ParallelEvaluator` — scenario-slice tasks over shared
      scenario batches;
    * :class:`repro.quasistatic.synthesis.SynthesisEngine` — FTQS
      candidate-evaluation tasks of one expansion layer.

    **Fault tolerance.**  The pool runs its own workers over private
    pipes and supervises them through their process sentinels, so a
    worker that dies mid-task (a crash, an OOM kill, injected chaos)
    is *detected* — not hung on, which is what
    ``multiprocessing.Pool.map`` does — and its task is re-dispatched
    to a respawned worker.  Task results are pure functions of the
    task, so a retry is bit-identical to an undisturbed run.  Each
    task gets at most ``task_retries`` re-dispatches before it runs
    in-process (a counted, warned degradation, never an abort); a pool
    that burns its whole respawn budget degrades to in-process
    execution for the rest of the run the same way.  ``task_timeout``
    (seconds, ``None`` = wait forever) additionally treats an
    over-deadline task's worker as dead.  Per-pool counters live on
    :attr:`recovery`; process-wide aggregates on
    :func:`pool_recovery`.
    """

    def __init__(
        self,
        processes: int,
        task_timeout: Optional[float] = None,
        task_retries: int = 2,
    ):
        if processes < 1:
            raise RuntimeModelError(
                f"worker count must be positive, got {processes}"
            )
        if task_timeout is not None and task_timeout <= 0:
            raise RuntimeModelError(
                f"task_timeout must be positive, got {task_timeout}"
            )
        if task_retries < 0:
            raise RuntimeModelError(
                f"task_retries must be >= 0, got {task_retries}"
            )
        # Start the shared-memory resource tracker *before* forking
        # workers.  A pool is often spawned before the first
        # SharedMemory segment exists; workers forked without a running
        # tracker would each lazily start their own on attach, and those
        # private trackers double-unlink the parent's segments at
        # shutdown (spurious "leaked shared_memory" warnings).
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
        self.processes = processes
        self.task_timeout = task_timeout
        self.task_retries = task_retries
        self.recovery = PoolRecovery()
        self._ctx = multiprocessing.get_context()
        #: The context installed in this process by degraded runs.
        self._inline_token: Optional[int] = None
        self._inline_state = None
        self._closed = False
        self._degraded = False
        self._respawn_budget = max(4, 2 * processes)
        self._gen = 0
        self._workers: List[_Worker] = [
            self._spawn_worker() for _ in range(processes)
        ]

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _spawn_worker(self) -> _Worker:
        task_r, task_w = self._ctx.Pipe(duplex=False)
        result_r, result_w = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_pool_worker_main,
            args=(task_r, result_w),
            daemon=True,
        )
        process.start()
        # Parent keeps the write end of tasks, read end of results.
        task_r.close()
        result_w.close()
        return _Worker(process, task_w, result_r)

    @staticmethod
    def _stop_worker(worker: _Worker) -> None:
        """Kill/join/close one worker; never raises (crash-safe)."""
        try:
            if worker.process.is_alive():
                worker.process.kill()
        except Exception:
            pass
        try:
            worker.process.join(timeout=5.0)
        except Exception:
            pass
        for pipe in (worker.task_w, worker.result_r):
            try:
                pipe.close()
            except Exception:
                pass

    def _note(self, counter: str, amount: int = 1) -> None:
        setattr(
            self.recovery, counter, getattr(self.recovery, counter) + amount
        )
        setattr(
            _GLOBAL_RECOVERY,
            counter,
            getattr(_GLOBAL_RECOVERY, counter) + amount,
        )

    def _run_inline(self, fn, task, context):
        """In-process degraded execution (bit-identical by purity)."""
        if context is None:
            return fn(task)
        token, install, args = context
        if self._inline_token != token:
            self._inline_state = None
            self._inline_state = install(*args)
            self._inline_token = token
        return fn(self._inline_state, task)

    def _degrade(self, pending: deque) -> None:
        """Give up on worker processes for the rest of this pool's life."""
        self._note("pool_degradations")
        warnings.warn(
            "TaskPool spent its worker respawn budget; finishing the "
            "run in-process (results are unchanged, parallelism is "
            "lost)",
            RuntimeWarning,
            stacklevel=3,
        )
        for worker in self._workers:
            if worker.current is not None:
                pending.append(worker.current[1])
            self._stop_worker(worker)
        self._workers = []
        self._degraded = True

    # ------------------------------------------------------------------
    # map
    # ------------------------------------------------------------------
    def map(self, fn, tasks, context=None):
        """Run ``fn`` over ``tasks``; results in task order.

        With ``context=(token, install, args)`` every task runs as
        ``fn(state, task)``, where ``state = install(*args)`` was run in
        the executing process when the context first reached it (see
        the class docstring).  Worker crashes, injected chaos kills and
        task timeouts are recovered internally; the only exceptions
        that propagate are the task function's (or ``install``'s) own.
        """
        if self._closed:
            raise RuntimeModelError("cannot map on a closed TaskPool")
        tasks = list(tasks)
        if not tasks:
            return []
        self._gen += 1
        gen = self._gen
        plan = _chaos_plan()
        n = len(tasks)
        results: List = [None] * n
        done = [False] * n
        attempts = [0] * n
        pending: deque = deque(range(n))
        inline: deque = deque()
        remaining = n

        while remaining:
            if self._degraded or not self._workers:
                if not self._degraded:
                    self._degrade(pending)
                inline.extend(pending)
                pending.clear()
            while inline:
                seq = inline.popleft()
                if done[seq]:
                    continue
                results[seq] = self._run_inline(fn, tasks[seq], context)
                done[seq] = True
                remaining -= 1
            if not remaining:
                break
            self._dispatch(
                fn, tasks, gen, pending, done, attempts, plan, context
            )
            remaining -= self._collect(gen, results, done)
            self._reap(gen, pending, inline, done, attempts)
        return results

    def _dispatch(
        self, fn, tasks, gen, pending, done, attempts, plan, context
    ):
        """Hand pending tasks to idle live workers, each with the map's
        context if the worker does not hold its token yet."""
        for worker in self._workers:
            if not pending:
                return
            if worker.current is not None or not worker.process.is_alive():
                continue
            seq = pending.popleft()
            while done[seq] and pending:
                seq = pending.popleft()
            if done[seq]:
                return
            action = (
                plan.pool_action(seq, attempts[seq])
                if plan is not None
                else None
            )
            sent = None
            if context is not None:
                token, install, args = context
                sent = (
                    (None, None) if worker.token == token else (install, args)
                )
            try:
                worker.task_w.send((gen, seq, fn, tasks[seq], action, sent))
            except (BrokenPipeError, OSError):
                # Died since the last reap; the next reap respawns it.
                pending.appendleft(seq)
                continue
            worker.current = (gen, seq, time.monotonic())
            if context is not None:
                worker.token = token

    def _collect(self, gen, results, done) -> int:
        """Wait briefly for results; returns how many tasks finished.

        Waits on the busy workers' result pipes *and* their process
        sentinels, so a SIGKILLed worker wakes the parent immediately
        instead of stalling the map until a timeout.
        """
        busy = [w for w in self._workers if w.current is not None]
        if not busy:
            return 0
        by_pipe = {w.result_r: w for w in busy}
        sentinels = [w.process.sentinel for w in busy]
        ready = connection.wait(
            list(by_pipe) + sentinels, timeout=_POLL_SECONDS
        )
        collected = 0
        for obj in ready:
            worker = by_pipe.get(obj)
            if worker is None:
                continue  # a sentinel: the reap pass handles the death
            try:
                rgen, seq, ok, payload = worker.result_r.recv()
            except (EOFError, OSError):
                continue  # torn mid-send: reaped as a crash
            # One in-flight task per worker, FIFO: any reply frees it.
            worker.current = None
            if not ok:
                # The failure may have been the install: re-send the
                # context with this worker's next contextual task.
                worker.token = None
            if rgen != gen or done[seq]:
                continue  # stale reply from an aborted or retried map
            if not ok:
                raise payload
            results[seq] = payload
            done[seq] = True
            collected += 1
        return collected

    def _reap(self, gen, pending, inline, done, attempts) -> None:
        """Detect dead/over-deadline workers; requeue, respawn."""
        now = time.monotonic()
        for worker in list(self._workers):
            crashed = not worker.process.is_alive()
            timed_out = (
                not crashed
                and worker.current is not None
                and self.task_timeout is not None
                and now - worker.current[2] > self.task_timeout
            )
            if not crashed and not timed_out:
                continue
            self._note("timeouts" if timed_out else "worker_deaths")
            current = worker.current
            self._stop_worker(worker)
            self._workers.remove(worker)
            if current is not None:
                cgen, seq, _ = current
                if cgen == gen and not done[seq]:
                    attempts[seq] += 1
                    if attempts[seq] > self.task_retries:
                        self._note("degraded_tasks")
                        warnings.warn(
                            f"pool task {seq} lost its worker "
                            f"{attempts[seq]} times; degrading it to "
                            f"in-process execution (result unchanged)",
                            RuntimeWarning,
                            stacklevel=4,
                        )
                        inline.append(seq)
                    else:
                        self._note("task_retries")
                        pending.append(seq)
            if self._respawn_budget > 0:
                self._respawn_budget -= 1
                self._note("respawns")
                self._workers.append(self._spawn_worker())

    # -- lifecycle (terminate/join mirror multiprocessing.Pool so the
    # facade drops into code that managed a raw Pool before) ----------
    def terminate(self) -> None:
        """Signal every worker to stop (idempotent, crash-safe)."""
        for worker in self._workers:
            try:
                if worker.process.is_alive():
                    worker.process.terminate()
            except Exception:
                pass

    def join(self) -> None:
        """Reap every worker and release their pipes (idempotent)."""
        for worker in self._workers:
            self._stop_worker(worker)
        self._workers = []
        self._inline_state = self._inline_token = None
        self._closed = True

    def close(self) -> None:
        """Terminate the workers (idempotent, safe after crashes)."""
        self.terminate()
        self.join()

    def __enter__(self) -> "TaskPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ShardedExecutor:
    """The core the process and thread executors share.

    Built by :meth:`MonteCarloEvaluator.executor
    <repro.evaluation.montecarlo.MonteCarloEvaluator.executor>` from the
    evaluator whose sampled batches it shards.  The evaluator owns the
    executor, so it is held weakly: a strong back-reference would form
    a cycle that delays pool/segment release until a cyclic GC pass
    instead of freeing promptly by refcount.  ``evaluate`` returns the
    same ``{fault count: EvaluationOutcome}`` mapping an inline run
    produces; subclasses supply :meth:`_evaluate_sharded`.
    """

    def __init__(self, source, execution) -> None:
        self.execution = ExecutionConfig.coerce(execution)
        self.engine = self.execution.engine
        self.workers = self.execution.workers
        self.app = source.app
        self.n_scenarios = source.n_scenarios
        self.fault_counts = list(source.fault_counts)
        self._source_ref = weakref.ref(source)
        self._plan_counter = 0
        self._plan_keys: Dict[int, Tuple[object, int]] = {}

    def _source(self) -> "MonteCarloEvaluator":
        source = self._source_ref()
        if source is None:
            raise RuntimeModelError(
                "executor used after its MonteCarloEvaluator was "
                "garbage-collected"
            )
        return source

    def _plan_key(self, plan) -> int:
        """A stable identity for ``plan``, so re-evaluating the same
        plan object reuses the compiled simulators.

        The plan is held strongly alongside its key: ``id()`` alone
        could be recycled after a plan is garbage-collected.
        """
        entry = self._plan_keys.get(id(plan))
        if entry is None or entry[0] is not plan:
            self._plan_counter += 1
            entry = (plan, self._plan_counter)
            self._plan_keys[id(plan)] = entry
        return entry[1]

    def evaluate(self, plan) -> Dict[int, "EvaluationOutcome"]:
        """Run all scenario sets against ``plan`` across the shards."""
        bounds = shard_bounds(self.n_scenarios, self.workers)
        if len(bounds) == 1:
            # One shard: simulate in-process over the sampled batches.
            return self._source().evaluate(plan, execution=self.engine)
        return self._evaluate_sharded(plan, bounds)

    def _evaluate_sharded(self, plan, bounds) -> Dict[int, "EvaluationOutcome"]:
        raise NotImplementedError

    def compare(self, plans) -> Dict[str, Dict[int, "EvaluationOutcome"]]:
        """Evaluate several named plans over one persistent pool."""
        return {name: self.evaluate(plan) for name, plan in plans.items()}

    def close(self) -> None:
        self._plan_keys.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ParallelEvaluator(ShardedExecutor):
    """Deterministic process-sharded Monte-Carlo evaluation
    (``mode="processes"``; see the module docstring).

    ``pool`` may be a *borrowed* :class:`TaskPool` (owned by a
    :class:`repro.pipeline.resources.ResourceManager`); otherwise the
    evaluator spawns its own on first use.  Either way its scenario
    segments travel as the maps' context; :meth:`close` unlinks them
    and terminates the pool only if it is the evaluator's own.
    """

    def __init__(self, source, execution, pool: Optional[TaskPool] = None):
        super().__init__(source, execution)
        self._pool: Optional[TaskPool] = None
        self._borrowed_pool = pool
        self._context = None
        self._segments: List[shared_memory.SharedMemory] = []
        self._finalizer = None

    # ------------------------------------------------------------------
    # Pool / shared-memory lifecycle
    # ------------------------------------------------------------------
    def _spawn_pool(self, processes: int) -> TaskPool:
        """Create the worker pool (separate for spawn-count tests)."""
        return TaskPool(processes)

    def _publish(self, batches) -> Tuple[Tuple[str, ...], Dict[int, _BatchSpec]]:
        """Copy the batch arrays into shared-memory segments; a
        durations array several fault counts share is copied once."""
        specs: Dict[int, _BatchSpec] = {}
        names: Tuple[str, ...] = ()
        published: Dict[int, str] = {}  # id(durations) -> segment name
        for faults, batch in batches.items():
            names = batch.names
            key = id(batch.durations)
            if key not in published:
                published[key] = self._share(batch.durations)
            specs[faults] = (
                published[key],
                batch.durations.shape,
                self._share(batch.fault_counts),
            )
        return names, specs

    def _share(self, array: np.ndarray) -> str:
        """Copy ``array`` into a new int64 segment; returns its name."""
        array = np.ascontiguousarray(array, dtype=np.int64)
        segment = shared_memory.SharedMemory(create=True, size=array.nbytes)
        self._segments.append(segment)
        np.ndarray(array.shape, dtype=np.int64, buffer=segment.buf)[:] = array
        return segment.name

    def _ensure_context(self, processes: int) -> None:
        """Publish the batches (and spawn the own pool) on first use."""
        if self._context is not None:
            return
        try:
            names, specs = self._publish(self._source().batches)
            if self._borrowed_pool is None:
                self._pool = self._spawn_pool(processes)
        except BaseException:
            # Publish or spawn failed partway: unlink whatever was
            # created now, or it survives in /dev/shm until exit.
            _release(self._pool, self._segments)
            self._pool = None
            self._segments = []
            raise
        self._context = (
            next_context_token(),
            _ShardContext,
            (self.app, names, specs, self.engine),
        )
        # A borrowed pool outlives us: only what we own is released.
        self._finalizer = weakref.finalize(
            self, _release, self._pool, list(self._segments)
        )

    def close(self) -> None:
        """Release the segments; terminate the pool if it is ours.

        Workers of a borrowed pool drop their attachments when the next
        context arrives; the pool itself belongs to the resource
        manager.
        """
        if self._finalizer is not None:
            self._finalizer()
            self._finalizer = None
        self._pool = None
        self._context = None
        self._segments = []
        super().close()

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _evaluate_sharded(self, plan, bounds) -> Dict[int, "EvaluationOutcome"]:
        plan_key = self._plan_key(plan)
        self._ensure_context(len(bounds))
        pool = self._borrowed_pool or self._pool
        shards = pool.map(
            _simulate_slice,
            [(plan_key, plan, lo, hi) for lo, hi in bounds],
            context=self._context,
        )
        return merge_shard_outcomes(self.fault_counts, shards)
