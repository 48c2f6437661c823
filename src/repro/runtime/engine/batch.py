"""Array-packed scenario batches for the batched simulation engine.

A :class:`ScenarioBatch` is the structure-of-arrays form of a list of
:class:`~repro.faults.injection.ExecutionScenario` objects: one
``(scenarios, processes, attempts)`` integer array of execution times
and one ``(scenarios, processes)`` array of per-process fault counts.
Process columns follow ``app.processes`` order, so a compiled plan can
address them by integer id.

Batches are sampled straight into arrays — the paired sets of a
:class:`~repro.evaluation.montecarlo.MonteCarloEvaluator` by
:meth:`ScenarioBatch.sample_paired`, one set by :meth:`ScenarioBatch.sample`
— or packed from existing scenarios.  NumPy's ``Generator`` consumes
its bit stream element by element in C order, and ``choice(P, size=f)``
is ``integers(0, P, size=f)``, so each broadcast draw is byte-identical
to the per-scenario :class:`~repro.faults.injection.ScenarioSampler`
loop — the property tests in ``tests/test_engine_batch.py`` pin this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ModelError, RuntimeModelError
from repro.faults.injection import ExecutionScenario
from repro.faults.model import FaultScenario
from repro.faults.scenarios import check_fault_count
from repro.model.application import Application

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.injection import ScenarioSampler


@dataclass
class ScenarioBatch:
    """A scenario set packed into NumPy arrays.

    Attributes
    ----------
    names:
        Process name per array column (``app.processes`` order).
    durations:
        ``(n_scenarios, n_processes, max_attempts)`` int64 array;
        ``durations[s, p, a]`` is the execution time of attempt ``a``
        of process ``p`` in scenario ``s``.  Attempts beyond a
        scenario's recorded list repeat its last value, mirroring
        :meth:`ExecutionScenario.duration_of`.
    fault_counts:
        ``(n_scenarios, n_processes)`` int64 array of consecutive
        failed attempts per process (the packed fault patterns).
    """

    names: Tuple[str, ...]
    durations: np.ndarray
    fault_counts: np.ndarray
    _attempt_cumsum: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False
    )
    _scenarios: Optional[List[ExecutionScenario]] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.durations.ndim != 3:
            raise RuntimeModelError(
                f"durations must be 3-D, got shape {self.durations.shape}"
            )
        if self.fault_counts.shape != self.durations.shape[:2]:
            raise RuntimeModelError(
                "fault_counts shape "
                f"{self.fault_counts.shape} does not match durations "
                f"{self.durations.shape[:2]}"
            )
        if self.durations.shape[1] != len(self.names):
            raise RuntimeModelError(
                f"{len(self.names)} process names for "
                f"{self.durations.shape[1]} duration columns"
            )
        if self.durations.shape[2] < 1:
            raise RuntimeModelError("batch needs at least one attempt column")

    # ------------------------------------------------------------------
    # Shape accessors
    # ------------------------------------------------------------------
    @property
    def n_scenarios(self) -> int:
        return self.durations.shape[0]

    @property
    def n_processes(self) -> int:
        return self.durations.shape[1]

    @property
    def max_attempts(self) -> int:
        return self.durations.shape[2]

    def __len__(self) -> int:
        return self.n_scenarios

    def total_faults(self) -> np.ndarray:
        """Total fault count of every scenario, ``(n_scenarios,)``."""
        return self.fault_counts.sum(axis=1)

    def attempt_cumsum(self) -> np.ndarray:
        """``durations`` cumulated over the attempt axis (cached).

        ``attempt_cumsum()[s, p, a]`` is the total execution time of
        attempts ``0..a``; evaluators replay one batch against many
        plans, so the simulator reuses this instead of recomputing it
        per run.
        """
        if self._attempt_cumsum is None:
            self._attempt_cumsum = np.cumsum(self.durations, axis=2)
        return self._attempt_cumsum

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_scenarios(
        cls,
        app: Application,
        scenarios: Sequence[ExecutionScenario],
    ) -> "ScenarioBatch":
        """Pack existing scenarios into arrays (no RNG involved).

        Every scenario must carry a non-empty duration list for every
        process of ``app``; fault patterns naming processes outside the
        application are ignored — such processes can never be scheduled,
        so their faults can never be observed.
        """
        scenario_list = list(scenarios)
        if not scenario_list:
            raise RuntimeModelError("cannot pack an empty scenario list")
        names = tuple(p.name for p in app.processes)
        index = {name: p for p, name in enumerate(names)}
        rows: List[List[Sequence[int]]] = []
        widths = set()
        for scenario in scenario_list:
            row = []
            for name in names:
                attempts = scenario.durations.get(name)
                if not attempts:
                    raise RuntimeModelError(
                        f"scenario has no durations for process {name!r}"
                    )
                row.append(attempts)
                widths.add(len(attempts))
            rows.append(row)
        width = max(widths)
        if len(widths) == 1:
            # Uniform attempt counts (sampled scenarios): one C-level
            # conversion instead of per-cell assignments.
            durations = np.array(rows, dtype=np.int64)
        else:
            durations = np.empty(
                (len(scenario_list), len(names), width), dtype=np.int64
            )
            for s, row in enumerate(rows):
                for p, attempts in enumerate(row):
                    n = len(attempts)
                    durations[s, p, :n] = attempts
                    if n < width:
                        durations[s, p, n:] = attempts[-1]
        faults = np.zeros((len(scenario_list), len(names)), dtype=np.int64)
        for s, scenario in enumerate(scenario_list):
            for name, hits in scenario.faults.hits:
                p = index.get(name)
                if p is not None:
                    faults[s, p] = hits
        return cls(names, durations, faults)

    @classmethod
    def sample(
        cls,
        sampler: "ScenarioSampler",
        count: int,
        faults: int = 0,
    ) -> "ScenarioBatch":
        """Draw ``count`` scenarios with exactly ``faults`` faults each.

        Replays :meth:`ScenarioSampler.sample_many` draw for draw in one
        broadcast ``integers`` call: per scenario, ``faults`` process
        picks in ``[0, P)`` followed by the ``P x (faults + 1)``
        attempt durations, each column with its own bounds.
        """
        app = sampler.app
        if count < 1:
            raise RuntimeModelError("need at least one scenario")
        if faults > app.k:
            raise ModelError(
                f"{faults} faults exceed the application's budget k={app.k}"
            )
        names, lo, hi = _columns(app)
        check_fault_count(faults, len(names))
        width = faults + 1
        # Per-column [lo, hi) bounds: fault picks, then durations.
        lo_row = np.concatenate(
            [np.zeros(faults, dtype=np.int64), np.repeat(lo, width)]
        )
        hi_row = np.concatenate(
            [np.full(faults, len(names)), np.repeat(hi + 1, width)]
        )
        draws = sampler.rng.integers(lo_row, hi_row, size=(count, lo_row.size))
        durations = np.ascontiguousarray(
            draws[:, faults:].reshape(count, len(names), width)
        )
        picks = draws[:, :faults]
        return cls(names, durations, _fault_counts(picks, len(names)))

    @classmethod
    def sample_paired(
        cls,
        app: Application,
        n_scenarios: int,
        fault_counts: Sequence[int],
        seed: Optional[int],
    ) -> Dict[int, "ScenarioBatch"]:
        """The paired scenario sets of §6, one read-only batch per fault
        count: one draw of every duration (``max(fault_counts) + 1``
        attempts), shared by all batches, then one draw of the fault
        picks per fault count, in ``fault_counts`` order."""
        if n_scenarios < 1:
            raise RuntimeModelError("need at least one scenario")
        if not fault_counts:
            raise RuntimeModelError("need at least one fault count")
        names, lo, hi = _columns(app)
        for faults in fault_counts:
            check_fault_count(faults, len(names))
        rng = np.random.default_rng(seed)
        durations = rng.integers(
            lo[None, :, None],
            hi[None, :, None] + 1,
            size=(n_scenarios, len(names), max(fault_counts) + 1),
        )
        durations.flags.writeable = False
        batches: Dict[int, ScenarioBatch] = {}
        for faults in fault_counts:
            picks = rng.integers(0, len(names), size=(n_scenarios, faults))
            counts_array = _fault_counts(picks, len(names))
            counts_array.flags.writeable = False
            batches[faults] = cls(names, durations, counts_array)
        return batches

    # ------------------------------------------------------------------
    # Unpacking
    # ------------------------------------------------------------------
    def scenario(self, i: int) -> ExecutionScenario:
        """The ``i``-th scenario, rebuilt from the arrays (duration lists
        padded to :attr:`max_attempts`, as ``duration_of`` clamps)."""
        durations = map(tuple, self.durations[i].tolist())
        faults = self.fault_counts[i].tolist()
        hits = {name: n for name, n in zip(self.names, faults) if n > 0}
        pattern = FaultScenario.of(hits) if hits else FaultScenario.none()
        return ExecutionScenario(dict(zip(self.names, durations)), pattern)

    def scenarios(self) -> List[ExecutionScenario]:
        """All scenarios of the batch (see :meth:`scenario`; cached —
        the reference engine replays one batch against many plans)."""
        if self._scenarios is None:
            self._scenarios = [
                self.scenario(i) for i in range(self.n_scenarios)
            ]
        return self._scenarios


def _columns(
    app: Application,
) -> Tuple[Tuple[str, ...], np.ndarray, np.ndarray]:
    """Process names and their [BCET, WCET] bounds, in column order."""
    names = tuple(p.name for p in app.processes)
    lo = np.array([p.bcet for p in app.processes], dtype=np.int64)
    hi = np.array([p.wcet for p in app.processes], dtype=np.int64)
    return names, lo, hi


def _fault_counts(picks: np.ndarray, n_processes: int) -> np.ndarray:
    """Per-process fault counts from ``(n, f)`` process-index picks."""
    counts = np.zeros((picks.shape[0], n_processes), dtype=np.int64)
    rows = np.arange(picks.shape[0])[:, None]
    np.add.at(counts, (rows, picks), 1)
    return counts
