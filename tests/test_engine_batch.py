"""Property tests for :class:`ScenarioBatch`, ``sample_batch`` and
``sample_paired``.

The batched engine's inputs must be *exactly* the reference sampler's
outputs: same seed ⇒ byte-identical arrays.  Uses hypothesis when it
is installed; otherwise the same properties run over a seeded grid of
randomized cases.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import ModelError, RuntimeModelError
from repro.evaluation.montecarlo import MonteCarloEvaluator
from repro.faults.injection import (
    ExecutionScenario,
    ScenarioSampler,
    scenario_with_times,
)
from repro.faults.scenarios import sample_scenario
from repro.runtime.engine import ScenarioBatch
from repro.workloads.exec_times import TimingSpec
from repro.workloads.suite import WorkloadSpec, generate_application

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - depends on the environment
    HAVE_HYPOTHESIS = False


def _app(n_processes: int = 10, seed: int = 21, bcet_fraction: float = 0.0):
    """A generated application; ``bcet_fraction`` is the lower end of
    BCET/WCET, so 1.0 makes every process ``bcet == wcet`` (a one-value
    range, which draws without consuming the bit stream)."""
    timing = TimingSpec(bcet_fraction_min=bcet_fraction)
    return generate_application(
        WorkloadSpec(n_processes=n_processes, timing=timing), seed=seed
    )


def _check_byte_identical(app, seed: int, count: int, faults: int) -> None:
    """sample_batch and sample_many ≡ the packed form of per-scenario
    draws (the fault pattern, then every attempt's duration), bit for
    bit."""
    reference = ScenarioSampler(app, seed=seed)
    vectorized = ScenarioSampler(app, seed=seed)
    names = [p.name for p in app.processes]
    scenarios = []
    for _ in range(count):
        pattern = sample_scenario(names, faults, reference.rng)
        durations = reference.sample_durations(faults + 1)
        scenarios.append(
            ExecutionScenario(
                {name: tuple(v) for name, v in durations.items()}, pattern
            )
        )
    sequential = ScenarioSampler(app, seed=seed).sample_many(count, faults)
    assert sequential == scenarios
    packed = ScenarioBatch.from_scenarios(app, scenarios)
    batch = vectorized.sample_batch(count, faults=faults)
    assert batch.names == packed.names
    assert batch.durations.dtype == packed.durations.dtype == np.int64
    assert batch.durations.shape == packed.durations.shape
    assert np.array_equal(batch.durations, packed.durations)
    assert np.array_equal(batch.fault_counts, packed.fault_counts)
    # The RNG must land in the same state: the next draw agrees too.
    assert reference.sample(0) == vectorized.sample(0)
    # Unpacking reconstructs scenarios equal to the reference objects.
    for i, scenario in enumerate(scenarios):
        assert batch.scenario(i) == scenario


if HAVE_HYPOTHESIS:

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        count=st.integers(min_value=1, max_value=12),
        faults=st.integers(min_value=0, max_value=3),
    )
    def test_sample_batch_byte_identical(seed, count, faults):
        app = _app(bcet_fraction=(0.0, 0.9, 1.0)[seed % 3])
        _check_byte_identical(app, seed, count, min(faults, app.k))

else:  # seeded randomized fallback, same property

    @pytest.mark.parametrize("case", range(25))
    def test_sample_batch_byte_identical(case):
        rng = np.random.default_rng(1000 + case)
        app = _app(bcet_fraction=(0.0, 0.9, 1.0)[case % 3])
        _check_byte_identical(
            app,
            seed=int(rng.integers(0, 2**31 - 1)),
            count=int(rng.integers(1, 13)),
            faults=int(rng.integers(0, min(3, app.k) + 1)),
        )


def test_paired_fault_axes_share_duration_draws(fig1_app):
    """The i-th scenario of every fault count has identical durations
    (the evaluator's paired-axes coupling), so the packed duration
    arrays per fault count are equal element for element."""
    evaluator = MonteCarloEvaluator(fig1_app, n_scenarios=15, seed=6)
    batches = {
        faults: ScenarioBatch.from_scenarios(fig1_app, scenarios)
        for faults, scenarios in evaluator.scenarios.items()
    }
    assert len(batches) >= 2
    reference = batches[0]
    for faults, batch in batches.items():
        assert np.array_equal(batch.durations, reference.durations)
        assert np.all(batch.total_faults() == faults)


def _reference_paired(app, n_scenarios, fault_counts, seed):
    """The per-scenario construction the evaluator's paired sets must
    match: one duration draw per scenario and process, then one
    ``sample_scenario`` per fault count and scenario, packed."""
    sampler = ScenarioSampler(app, seed=seed)
    names = [p.name for p in app.processes]
    durations = [
        {
            name: tuple(values)
            for name, values in sampler.sample_durations(
                max(fault_counts) + 1
            ).items()
        }
        for _ in range(n_scenarios)
    ]
    scenarios = {}
    for faults in fault_counts:
        scenarios[faults] = [
            ExecutionScenario(row, sample_scenario(names, faults, sampler.rng))
            for row in durations
        ]
    return scenarios


def _check_paired(app, seed, n_scenarios, fault_counts) -> None:
    """MonteCarloEvaluator's batches ≡ the packed reference sets."""
    reference = _reference_paired(app, n_scenarios, fault_counts, seed)
    evaluator = MonteCarloEvaluator(
        app, n_scenarios=n_scenarios, fault_counts=fault_counts, seed=seed
    )
    assert list(evaluator.batches) == list(reference)
    shared = evaluator.batches[fault_counts[0]].durations
    for faults, scenarios in reference.items():
        batch = evaluator.batches[faults]
        packed = ScenarioBatch.from_scenarios(app, scenarios)
        assert batch.names == packed.names
        assert batch.durations.dtype == batch.fault_counts.dtype == np.int64
        assert np.array_equal(batch.durations, packed.durations)
        assert np.array_equal(batch.fault_counts, packed.fault_counts)
        assert np.shares_memory(batch.durations, shared)
        for i, scenario in enumerate(scenarios):
            assert evaluator.scenarios[faults][i] == batch.scenario(i)
            assert batch.scenario(i) == scenario


if HAVE_HYPOTHESIS:

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_scenarios=st.integers(min_value=1, max_value=12),
        fault_counts=st.lists(
            st.integers(min_value=0, max_value=3), min_size=1, max_size=4
        ),
        n_processes=st.integers(min_value=1, max_value=15),
        bcet_fraction=st.sampled_from([0.0, 0.9, 1.0]),
    )
    def test_paired_stream_matches_per_scenario_sampling(
        seed, n_scenarios, fault_counts, n_processes, bcet_fraction
    ):
        app = _app(n_processes, seed=seed % 97, bcet_fraction=bcet_fraction)
        _check_paired(app, seed, n_scenarios, fault_counts)

else:  # seeded randomized fallback, same property

    @pytest.mark.parametrize("case", range(40))
    def test_paired_stream_matches_per_scenario_sampling(case):
        rng = np.random.default_rng(2000 + case)
        app = _app(
            int(rng.integers(1, 16)),
            seed=case,
            bcet_fraction=(0.0, 0.9, 1.0)[case % 3],
        )
        fault_counts = [
            int(f) for f in rng.integers(0, 4, size=rng.integers(1, 5))
        ]
        _check_paired(
            app,
            seed=int(rng.integers(0, 2**31 - 1)),
            n_scenarios=int(rng.integers(1, 13)),
            fault_counts=fault_counts,
        )


def test_paired_stream_matches_on_the_cruise_controller():
    from repro.workloads.cruise import cruise_controller

    _check_paired(cruise_controller(), 2008, 25, [2, 0, 1])
    _check_paired(cruise_controller(), 7, 10, [0])


def test_paired_batches_are_read_only(fig1_app):
    """The fault counts share one durations array, so no batch may be
    written through."""
    evaluator = MonteCarloEvaluator(fig1_app, n_scenarios=4, seed=6)
    batch = evaluator.batches[1]
    with pytest.raises(ValueError):
        batch.durations[0, 0, 0] = 0
    with pytest.raises(ValueError):
        batch.fault_counts[0, 0] = 0


def test_paired_sampling_errors(fig1_app):
    """The same errors as the per-scenario construction raised."""
    with pytest.raises(ModelError):
        MonteCarloEvaluator(fig1_app, n_scenarios=4, fault_counts=[0, -1])
    with pytest.raises(RuntimeModelError):
        MonteCarloEvaluator(fig1_app, n_scenarios=0)
    with pytest.raises(RuntimeModelError):
        MonteCarloEvaluator(fig1_app, n_scenarios=4, fault_counts=[])
    empty = SimpleNamespace(processes=(), k=2)
    with pytest.raises(ModelError):
        ScenarioBatch.sample_paired(empty, 4, [0, 1], seed=1)
    batches = ScenarioBatch.sample_paired(empty, 4, [0], seed=1)
    assert batches[0].durations.shape == (4, 0, 1)


def test_sample_batch_rejects_negative_faults(fig1_app):
    sampler = ScenarioSampler(fig1_app, seed=3)
    with pytest.raises(ModelError):
        sampler.sample_batch(5, faults=-1)


def test_sample_batch_total_faults(fig1_app):
    sampler = ScenarioSampler(fig1_app, seed=3)
    batch = sampler.sample_batch(20, faults=1)
    assert batch.n_scenarios == 20
    assert batch.n_processes == len(fig1_app.processes)
    assert batch.max_attempts == 2
    assert np.all(batch.total_faults() == 1)


def test_sample_batch_rejects_over_budget(fig1_app):
    sampler = ScenarioSampler(fig1_app, seed=3)
    with pytest.raises(ModelError):
        sampler.sample_batch(5, faults=fig1_app.k + 1)


def test_sample_batch_rejects_empty(fig1_app):
    sampler = ScenarioSampler(fig1_app, seed=3)
    with pytest.raises(RuntimeModelError):
        sampler.sample_batch(0)


def test_from_scenarios_rejects_empty_list(fig1_app):
    with pytest.raises(RuntimeModelError):
        ScenarioBatch.from_scenarios(fig1_app, [])


def test_from_scenarios_rejects_missing_process(fig1_app):
    partial = scenario_with_times(
        fig1_app, {fig1_app.processes[0].name: fig1_app.processes[0].bcet}
    )
    with pytest.raises(RuntimeModelError):
        ScenarioBatch.from_scenarios(fig1_app, [partial])


def test_ragged_duration_lists_pad_with_last_value(fig1_app):
    """Mixed attempt counts pack by repeating the last value, the same
    clamping rule as ExecutionScenario.duration_of."""
    sampler = ScenarioSampler(fig1_app, seed=8)
    ragged = [sampler.sample(faults=0), sampler.sample(faults=1)]
    batch = ScenarioBatch.from_scenarios(fig1_app, ragged)
    assert batch.max_attempts == 2
    for p, name in enumerate(batch.names):
        assert batch.durations[0, p, 1] == ragged[0].duration_of(name, 1)
