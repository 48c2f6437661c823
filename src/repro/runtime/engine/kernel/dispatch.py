"""Kernel dispatch: run batches through the compiled ``.so`` or fall back.

:class:`KernelSimulator` is a drop-in replacement for
:class:`~repro.runtime.engine.simulator.BatchSimulator`: same
constructor, same :meth:`run_batch` contract, same
:class:`~repro.runtime.engine.simulator.BatchResult`.  Construction
fingerprints the plan, reuses a cached shared object when one exists
(in-process first, then the on-disk artifact cache) and otherwise
generates + compiles one.  Anything that prevents that — no compiler,
a failed compile, a plan the generator cannot express, injected chaos
— degrades to the wrapped NumPy ``BatchSimulator`` with a counted
reason; results are identical either way, so degradation is a
performance event, never a correctness one.

Per batch, the kernel executes every scenario in one C call (the GIL
is released for its duration); scenarios the C walk flags as outside
its state model are replayed on the oracle afterwards, exactly like
the NumPy engine's own fallback — including reproducing the oracle's
raises.

The module-global :class:`KernelStats` mirrors the parallel pool's
``pool_recovery()`` idiom: compiles, cache hits and per-reason
fallback counts accumulated process-wide, surfaced on the CLI
``simulate:`` line and the service ``/metrics`` document.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.model.application import Application
from repro.quasistatic.tree import QSTree
from repro.runtime.engine.batch import ScenarioBatch
from repro.runtime.engine.kernel.build import (
    KernelBuildError,
    cached_object,
    compile_kernel,
    load_kernel,
)
from repro.runtime.engine.kernel.codegen import (
    LAYOUT_ABI,
    LAYOUT_CHAIN_CAP,
    LAYOUT_N_PROCESSES,
    LAYOUT_SYMBOL,
    RUN_SYMBOL,
    CODEGEN_VERSION,
    KernelUnsupported,
    generate_kernel_source,
    plan_fingerprint,
)
from repro.runtime.engine.simulator import BatchResult, BatchSimulator
from repro.scheduling.fschedule import FSchedule


@dataclass
class KernelStats:
    """Process-wide counters of kernel builds, cache hits and fallbacks.

    ``compiles`` counts actual compiler invocations, ``cache_hits``
    plans served from the in-process or on-disk artifact cache, and
    ``fallbacks`` maps a degradation reason (``"no-compiler"``,
    ``"compile-failed"``, ``"load-failed"``, ``"unsupported-utility"``,
    ``"unsupported-plan"``, ``"chaos"``) to how many simulator
    constructions degraded to the NumPy engine for it.
    ``oracle_scenarios`` counts per-scenario oracle replays out of
    otherwise kernel-run batches (the same residual the NumPy engine
    reports as ``n_fallback``).
    """

    compiles: int = 0
    cache_hits: int = 0
    fallbacks: Dict[str, int] = field(default_factory=dict)
    oracle_scenarios: int = 0

    @property
    def n_fallbacks(self) -> int:
        return sum(self.fallbacks.values())

    def count_fallback(self, reason: str) -> None:
        self.fallbacks[reason] = self.fallbacks.get(reason, 0) + 1

    def snapshot(self) -> "KernelStats":
        return replace(self, fallbacks=dict(self.fallbacks))

    def as_dict(self) -> Dict:
        return {
            "compiles": self.compiles,
            "cache_hits": self.cache_hits,
            "fallbacks": dict(self.fallbacks),
            "oracle_scenarios": self.oracle_scenarios,
        }

    def summary(self) -> str:
        parts = [
            f"{self.compiles} compile(s)",
            f"{self.cache_hits} cache hit(s)",
        ]
        if self.fallbacks:
            reasons = ", ".join(
                f"{reason} x{count}"
                for reason, count in sorted(self.fallbacks.items())
            )
            parts.append(f"{self.n_fallbacks} fallback(s) [{reasons}]")
        return ", ".join(parts)


#: Process-wide stats (workers accumulate their own; the parent's
#: covers its warm-up compile, which is what the CLI line reports).
_GLOBAL_STATS = KernelStats()


def kernel_stats() -> KernelStats:
    """The process-wide kernel counters (mutated in place)."""
    return _GLOBAL_STATS


def reset_kernel_stats() -> None:
    """Zero the process-wide counters (tests and CLI runs)."""
    global _GLOBAL_STATS
    _GLOBAL_STATS = KernelStats()


#: Loaded kernels by fingerprint: (library handle, run function,
#: chain capacity).  Keeps repeated evaluations from re-walking the
#: artifact cache and re-dlopening the same object.
_LOADED: Dict[str, Tuple[object, object, int]] = {}


def _configure(lib, fingerprint: str):
    """Validate a loaded kernel's ABI and declare its signatures."""
    layout = getattr(lib, LAYOUT_SYMBOL)
    layout.restype = ctypes.c_int64
    layout.argtypes = [ctypes.c_int64]
    abi = int(layout(LAYOUT_ABI))
    if abi != CODEGEN_VERSION:
        raise KernelBuildError(
            "load-failed",
            f"kernel {fingerprint} has ABI {abi}, expected "
            f"{CODEGEN_VERSION}",
        )
    run = getattr(lib, RUN_SYMBOL)
    run.restype = ctypes.c_int64
    run.argtypes = [
        ctypes.c_int64,
        ctypes.c_int64,
        np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS"),
        np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS"),
        np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS"),
        np.ctypeslib.ndpointer(dtype=np.uint8, flags="C_CONTIGUOUS"),
        np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS"),
        np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS"),
        np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS"),
        np.ctypeslib.ndpointer(dtype=np.uint8, flags="C_CONTIGUOUS"),
    ]
    chain_cap = int(layout(LAYOUT_CHAIN_CAP))
    n_proc = int(layout(LAYOUT_N_PROCESSES))
    return run, chain_cap, n_proc


class KernelSimulator:
    """Generated-C executor of one plan, bit-identical to the oracle.

    Wraps an eagerly-built :class:`BatchSimulator` — sharing its
    compiled application/tree, decision tables and oracle — and routes
    whole batches through the plan's compiled ``.so`` when one can be
    produced.  ``engine_used`` reports which core actually runs
    (``"kernel"`` or ``"batched"`` after a counted degradation).
    """

    def __init__(self, app: Application, plan: Union[QSTree, FSchedule]):
        self._batched = BatchSimulator(app, plan)
        self.app = app
        self.capp = self._batched.capp
        self.ctree = self._batched.ctree
        self._oracle = self._batched._oracle
        self._tables = self._batched._tables
        self._run = None
        self._chain_cap = 0
        self.fallback_reason: Optional[str] = None
        stats = kernel_stats()
        try:
            fingerprint = plan_fingerprint(self.capp, self.ctree)
            loaded = _LOADED.get(fingerprint)
            if loaded is not None:
                lib, run, chain_cap = loaded
                stats.cache_hits += 1
            else:
                so_path = cached_object(fingerprint)
                if so_path is not None:
                    stats.cache_hits += 1
                else:
                    source = generate_kernel_source(
                        self.capp, self.ctree, self._tables
                    )
                    so_path = compile_kernel(source, fingerprint)
                    stats.compiles += 1
                lib = load_kernel(so_path)
                run, chain_cap, n_proc = _configure(lib, fingerprint)
                if n_proc != self.capp.n_processes:
                    raise KernelBuildError(
                        "load-failed",
                        f"kernel {fingerprint} compiled for {n_proc} "
                        f"processes, plan has {self.capp.n_processes}",
                    )
                _LOADED[fingerprint] = (lib, run, chain_cap)
            self._run = run
            self._chain_cap = chain_cap
        except (KernelUnsupported, KernelBuildError) as exc:
            self.fallback_reason = exc.reason
            stats.count_fallback(exc.reason)

    @property
    def engine_used(self) -> str:
        return "batched" if self._run is None else "kernel"

    def run_batch(self, batch: ScenarioBatch) -> BatchResult:
        """Execute every scenario of ``batch``; see :class:`BatchResult`."""
        if self._run is None:
            return self._batched.run_batch(batch)
        if batch.names != self.capp.names:
            # Delegate for the NumPy engine's exact validation error.
            return self._batched.run_batch(batch)
        n = batch.n_scenarios
        width = batch.max_attempts
        durations = np.ascontiguousarray(batch.durations, dtype=np.int64)
        faults = np.ascontiguousarray(batch.fault_counts, dtype=np.int64)
        result = BatchResult.empty(n, fast=False)
        miss = np.zeros(n, dtype=np.uint8)
        chains = np.zeros((n, self._chain_cap), dtype=np.int64)
        flagged = np.zeros(n, dtype=np.uint8)
        rc = self._run(
            n,
            width,
            durations,
            faults,
            result.utilities,
            miss,
            result.switch_counts,
            result.faults_observed,
            chains,
            flagged,
        )
        if rc != 0:  # pragma: no cover - guarded by ScenarioBatch
            return self._batched.run_batch(batch)
        result.deadline_miss[:] = miss.astype(bool)
        result.fast_path[:] = flagged == 0
        if result.switch_counts.any():
            for i in np.flatnonzero(result.switch_counts):
                count = int(result.switch_counts[i])
                result.switch_chains[i] = tuple(
                    int(x) for x in chains[i, :count]
                )
        residual = np.flatnonzero(flagged)
        if residual.size:
            kernel_stats().oracle_scenarios += int(residual.size)
            for i in residual:
                self._batched._run_oracle(batch, int(i), result)
        return result
