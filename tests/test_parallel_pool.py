"""Worker-pool lifecycle of the sharded evaluator.

The whole point of the persistent pool is that comparing many plans
pays the fork + shared-memory publication cost once — these tests pin
that down by counting pool spawns, and check that teardown releases
the shared segments and that a closed evaluator can be used again.
"""

from __future__ import annotations

import pytest

from repro.evaluation.montecarlo import MonteCarloEvaluator
from repro.runtime.engine.parallel import ParallelEvaluator
from repro.scheduling.ftss import ftss


@pytest.fixture
def counted_spawns(monkeypatch):
    """Patch ParallelEvaluator._spawn_pool to count pool creations."""
    spawns = []
    original = ParallelEvaluator._spawn_pool

    def counting(self, processes, names, specs):
        spawns.append(processes)
        return original(self, processes, names, specs)

    monkeypatch.setattr(ParallelEvaluator, "_spawn_pool", counting)
    return spawns


def test_pool_spawned_once_across_evaluates(fig1_app, counted_spawns):
    """evaluate() × n and compare() share one pool per evaluator."""
    plan = ftss(fig1_app)
    with MonteCarloEvaluator(
        fig1_app, n_scenarios=20, fault_counts=[0, 1], seed=3,
        execution="batched@processes:2",
    ) as evaluator:
        first = evaluator.evaluate(plan)
        second = evaluator.evaluate(plan)
        compared = evaluator.compare({"a": plan, "b": plan})
    assert counted_spawns == [2], (
        f"expected exactly one 2-worker pool spawn, saw {counted_spawns}"
    )
    for faults in (0, 1):
        assert first[faults].utilities == second[faults].utilities
        assert compared["a"][faults].utilities == first[faults].utilities


def test_shared_durations_published_once(monkeypatch):
    """The fault counts share one durations array, so the pool gets
    one durations segment plus one fault-count segment per count."""
    published = []
    original = ParallelEvaluator._spawn_pool

    def capturing(self, processes, names, specs):
        published.append(specs)
        return original(self, processes, names, specs)

    monkeypatch.setattr(ParallelEvaluator, "_spawn_pool", capturing)
    ((app, plan),) = _schedulable_apps(1)
    fault_counts = [0, 1, 2]
    with MonteCarloEvaluator(
        app, n_scenarios=20, fault_counts=fault_counts, seed=3,
        execution="batched@processes:2",
    ) as evaluator:
        sharded = evaluator.evaluate(plan)
        executor = evaluator.executor("batched@processes:2")
        assert len(executor._segments) == 1 + len(fault_counts)
        inline = evaluator.evaluate(plan, execution="batched")
    (specs,) = published
    assert len({durations for durations, _, _ in specs.values()}) == 1
    assert len({faults for _, _, faults in specs.values()}) == 3
    for faults in fault_counts:
        assert sharded[faults].utilities == inline[faults].utilities


def test_montecarlo_caches_executors(fig1_app):
    """Executors are cached per ExecutionConfig; the deprecated
    ``parallel()`` alias resolves to the same cached object."""
    evaluator = MonteCarloEvaluator(
        fig1_app, n_scenarios=5, fault_counts=[0], seed=3
    )
    try:
        assert evaluator.executor("batched@processes:2") is (
            evaluator.executor("batched@processes:2")
        )
        assert evaluator.executor("batched@processes:2") is not (
            evaluator.executor("batched@processes:3")
        )
        assert evaluator.executor("kernel@threads:2") is not (
            evaluator.executor("batched@processes:2")
        )
        with pytest.deprecated_call():
            assert evaluator.parallel("batched", 2) is (
                evaluator.executor("batched@processes:2")
            )
    finally:
        evaluator.close()


def test_single_shard_runs_in_process(fig1_app, counted_spawns):
    """jobs=1 (or one scenario) never pays for a pool."""
    plan = ftss(fig1_app)
    with ParallelEvaluator(
        fig1_app, n_scenarios=8, fault_counts=[0], seed=5,
        execution="batched",
    ) as evaluator:
        evaluator.evaluate(plan)
    assert counted_spawns == []


def test_close_releases_and_respawns(fig1_app, counted_spawns):
    """close() tears the pool down; the next evaluate() respawns."""
    plan = ftss(fig1_app)
    evaluator = ParallelEvaluator(
        fig1_app, n_scenarios=16, fault_counts=[0], seed=7,
        execution="batched@processes:2",
    )
    try:
        before = evaluator.evaluate(plan)
        assert counted_spawns == [2]
        evaluator.close()
        assert evaluator._segments == []
        after = evaluator.evaluate(plan)
        assert counted_spawns == [2, 2]
        assert before[0].utilities == after[0].utilities
    finally:
        evaluator.close()


@pytest.fixture
def counted_manager_spawns(monkeypatch):
    """Count generic-pool spawns of a ResourceManager."""
    from repro.pipeline.resources import ResourceManager

    spawns = []
    original = ResourceManager._spawn_pool

    def counting(self, jobs):
        spawns.append(jobs)
        return original(self, jobs)

    monkeypatch.setattr(ResourceManager, "_spawn_pool", counting)
    return spawns


def _schedulable_apps(n, n_processes=10, start_seed=1):
    from repro.scheduling.ftss import ftss as build_root
    from repro.workloads.suite import WorkloadSpec, generate_application

    apps = []
    seed = start_seed
    while len(apps) < n:
        app = generate_application(
            WorkloadSpec(n_processes=n_processes), seed=seed
        )
        seed += 1
        root = build_root(app)
        if root is not None:
            apps.append((app, root))
    return apps


def test_one_synthesis_pool_across_applications(counted_manager_spawns):
    """A multi-application sweep with synthesis jobs N spawns exactly
    one synthesis TaskPool for the whole run — the ROADMAP open item
    this pipeline closes — and the trees stay identical."""
    from repro.io.json_io import tree_to_dict
    from repro.pipeline.resources import ResourceManager
    from repro.quasistatic.ftqs import FTQSConfig, ftqs

    config = FTQSConfig(max_schedules=6)
    with ResourceManager() as resources:
        for app, root in _schedulable_apps(3):
            shared = ftqs(
                app, root, config, jobs=2,
                pool=resources.synthesis_pool(2),
            )
            assert tree_to_dict(shared) == tree_to_dict(
                ftqs(app, root, config)
            )
    assert counted_manager_spawns == [2], (
        f"expected one 2-worker synthesis pool for the whole sweep, "
        f"saw {counted_manager_spawns}"
    )


def test_one_evaluation_pool_across_applications(counted_manager_spawns):
    """Evaluators of successive applications borrow one shared pool;
    closing an evaluator releases only its scenario segments."""
    from repro.pipeline.resources import ResourceManager

    with ResourceManager() as resources:
        for app, root in _schedulable_apps(3):
            with resources.evaluator(
                app, n_scenarios=12, fault_counts=[0, 1], seed=3,
                execution="batched@processes:2",
            ) as evaluator:
                shared = evaluator.evaluate(root)
            with MonteCarloEvaluator(
                app, n_scenarios=12, fault_counts=[0, 1], seed=3,
                execution="batched",
            ) as evaluator:
                single = evaluator.evaluate(root)
            for faults in (0, 1):
                assert (
                    shared[faults].utilities == single[faults].utilities
                )
    assert counted_manager_spawns == [2], (
        f"expected one 2-worker evaluation pool for the whole sweep, "
        f"saw {counted_manager_spawns}"
    )


def test_driver_sweep_spawns_one_pool_per_kind(counted_manager_spawns):
    """End-to-end: a Table 1 run with evaluation and synthesis jobs
    spawns one pool of each kind, not one per application or per M."""
    from repro.evaluation.experiments.table1 import (
        Table1Config,
        run_table1,
    )
    from repro.pipeline.resources import ResourceManager

    config = Table1Config(
        tree_sizes=(1, 2, 4), n_apps=2, n_processes=10,
        n_scenarios=16, seed=5, execution="batched@processes:2",
    )
    with ResourceManager() as resources:
        rows = run_table1(
            config, synthesis_jobs=2, resources=resources
        )
    assert [r.nodes for r in rows] == [1, 2, 4]
    assert sorted(counted_manager_spawns) == [2, 2], (
        f"expected exactly one evaluation + one synthesis pool, saw "
        f"{counted_manager_spawns}"
    )


def test_outcomes_carry_fallback_counts(fig1_app):
    """Fallback counts merge across shards and engines coherently."""
    plan = ftss(fig1_app)
    with MonteCarloEvaluator(
        fig1_app, n_scenarios=12, fault_counts=[0, 1], seed=9
    ) as evaluator:
        batched = evaluator.evaluate(plan, execution="batched@processes:2")
        reference = evaluator.evaluate(
            plan, execution="reference@processes:2"
        )
    for faults in (0, 1):
        assert batched[faults].fallbacks == 0
        assert batched[faults].fast_path_share == 1.0
        assert reference[faults].fallbacks == 12
        assert reference[faults].fast_path_share == 0.0
