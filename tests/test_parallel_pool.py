"""Worker-pool lifecycle of the sharded evaluator.

The whole point of the persistent pool is that comparing many plans
pays the fork + shared-memory publication cost once — these tests pin
that down by counting pool spawns, and check that teardown releases
the shared segments and that a closed evaluator can be used again.
The worker-context protocol is pinned from the workers' side: every
install is logged by the worker that runs it, so the tests see that a
worker installs a context only when the token it holds changes, and
that a respawned worker is sent the context again.
"""

from __future__ import annotations

import os
import warnings

import pytest

from repro.evaluation.montecarlo import MonteCarloEvaluator
from repro.pipeline.chaos import ChaosPlan, active
from repro.runtime.engine import parallel
from repro.runtime.engine.parallel import ParallelEvaluator
from repro.scheduling.ftss import ftss


@pytest.fixture
def counted_spawns(monkeypatch):
    """Patch ParallelEvaluator._spawn_pool to count pool creations."""
    spawns = []
    original = ParallelEvaluator._spawn_pool

    def counting(self, processes):
        spawns.append(processes)
        return original(self, processes)

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


def test_shared_durations_published_once():
    """The fault counts share one durations array, so the pool gets
    one durations segment plus one fault-count segment per count."""
    ((app, plan),) = _schedulable_apps(1)
    fault_counts = [0, 1, 2]
    with MonteCarloEvaluator(
        app, n_scenarios=20, fault_counts=fault_counts, seed=3,
        execution="batched@processes:2",
    ) as evaluator:
        sharded = evaluator.evaluate(plan)
        executor = evaluator.executor("batched@processes:2")
        assert len(executor._segments) == 1 + len(fault_counts)
        _, _, (_, _, specs, _) = executor._context
        inline = evaluator.evaluate(plan, execution="batched")
    assert len({durations for durations, _, _ in specs.values()}) == 1
    assert len({faults for _, _, faults in specs.values()}) == 3
    for faults in fault_counts:
        assert sharded[faults].utilities == inline[faults].utilities


def test_montecarlo_caches_executors(fig1_app):
    """Executors are cached per ExecutionConfig."""
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
    finally:
        evaluator.close()


def test_single_shard_runs_in_process(fig1_app, counted_spawns):
    """jobs=1 (or one scenario) never pays for a pool."""
    plan = ftss(fig1_app)
    with MonteCarloEvaluator(
        fig1_app, n_scenarios=8, fault_counts=[0], seed=5,
    ) as evaluator:
        evaluator.executor("batched@processes:1").evaluate(plan)
    with MonteCarloEvaluator(
        fig1_app, n_scenarios=1, fault_counts=[0], seed=5,
    ) as evaluator:
        evaluator.executor("batched@processes:4").evaluate(plan)
    assert counted_spawns == []


def test_close_releases_and_respawns(fig1_app, counted_spawns):
    """close() tears the pool down; the next evaluate() respawns."""
    plan = ftss(fig1_app)
    source = MonteCarloEvaluator(
        fig1_app, n_scenarios=16, fault_counts=[0], seed=7
    )
    evaluator = source.executor("batched@processes:2")
    try:
        before = evaluator.evaluate(plan)
        assert counted_spawns == [2]
        evaluator.close()
        assert evaluator._segments == []
        after = evaluator.evaluate(plan)
        assert counted_spawns == [2, 2]
        assert before[0].utilities == after[0].utilities
    finally:
        source.close()


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


# ----------------------------------------------------------------------
# The worker-context protocol
# ----------------------------------------------------------------------
class _LoggedShardContext(parallel._ShardContext):
    """Appends ``pid durations-segment`` to :attr:`log` per install,
    from whichever process runs the install."""

    log = None

    def __init__(self, app, names, specs, engine):
        super().__init__(app, names, specs, engine)
        durations = sorted({spec[0] for spec in specs.values()})
        with open(self.log, "a") as handle:
            handle.write(f"{os.getpid()} {durations[0]}\n")


def _logged_synthesis_install(app, config):
    from repro.quasistatic import synthesis

    with open(_LoggedShardContext.log, "a") as handle:
        handle.write(f"{os.getpid()} synthesis\n")
    return synthesis.SynthesisEngine(app, config, jobs=1)


@pytest.fixture
def install_log(tmp_path, monkeypatch):
    """Route every context install through the logging wrappers; the
    returned callable reads ``[(pid, context), ...]`` in log order."""
    from repro.quasistatic import synthesis

    path = tmp_path / "installs.log"
    path.write_text("")
    monkeypatch.setattr(_LoggedShardContext, "log", str(path))
    monkeypatch.setattr(parallel, "_ShardContext", _LoggedShardContext)
    monkeypatch.setattr(
        synthesis, "_synthesis_worker_install", _logged_synthesis_install
    )

    def read():
        return [
            (int(pid), context)
            for pid, context in (
                line.split() for line in path.read_text().splitlines()
            )
        ]

    return read


def test_interleaved_contexts_install_only_on_token_change(install_log):
    """Two evaluators' contexts interleaved A→A→B→A on one shared pool
    match their inline runs bit for bit, and each worker installs a
    context only when the token it holds changes: A, B, A — three
    installs per worker for four maps."""
    from repro.pipeline.resources import ResourceManager

    (app_a, plan_a), (app_b, plan_b) = _schedulable_apps(2)
    with ResourceManager() as resources:
        a = resources.evaluator(
            app_a, n_scenarios=12, fault_counts=[0, 1], seed=3,
            execution="batched@processes:2",
        )
        b = resources.evaluator(
            app_b, n_scenarios=12, fault_counts=[0, 1], seed=4,
            execution="batched@processes:2",
        )
        with a, b:
            sharded = [
                a.evaluate(plan_a),
                a.evaluate(plan_a),
                b.evaluate(plan_b),
                a.evaluate(plan_a),
            ]
            inline_a = a.evaluate(plan_a, execution="batched")
            inline_b = b.evaluate(plan_b, execution="batched")
            segment_a = a.executor("batched@processes:2")._context[2][2]
    assert sharded == [inline_a, inline_a, inline_b, inline_a]
    context_a = sorted({spec[0] for spec in segment_a.values()})[0]
    installs = install_log()
    workers = sorted({pid for pid, _ in installs})
    assert len(workers) == 2 and os.getpid() not in workers
    for pid in workers:
        sequence = [context for who, context in installs if who == pid]
        assert len(sequence) == 3
        assert sequence[0] == sequence[2] == context_a != sequence[1]


def test_killed_evaluation_worker_is_resent_the_context(
    fig1_app, install_log
):
    """kill-worker@0 on an evaluator's own pool: the respawned worker
    installs the context again and the outcomes stay identical."""
    plan = ftss(fig1_app)
    with MonteCarloEvaluator(
        fig1_app, n_scenarios=24, fault_counts=[0, 1], seed=3
    ) as evaluator:
        baseline = evaluator.evaluate(plan, execution="batched")
        chaos = ChaosPlan(kill_worker={0: 1}, kill_budget=1)
        with active(chaos):
            recovered = evaluator.evaluate(
                plan, execution="batched@processes:2"
            )
        # The survivor ran the retried task; the next map reaches the
        # replacement worker, which does not hold the token yet.
        again = evaluator.evaluate(plan, execution="batched@processes:2")
        pool = evaluator.executor("batched@processes:2")._pool
        assert pool.recovery.respawns == 1
    assert chaos.kills_delivered == 1
    assert recovered == again == baseline
    # The killed worker died before installing; the survivor and its
    # replacement each installed the context once.
    installs = install_log()
    assert len(installs) == 2
    assert len({pid for pid, _ in installs}) == 2


def test_killed_synthesis_worker_is_resent_the_context(install_log):
    """kill-worker@0 on a synthesis_jobs=2 pool: the respawned worker
    builds its engine again and the tree stays identical."""
    from repro.io.json_io import tree_to_dict
    from repro.quasistatic.ftqs import FTQSConfig, ftqs

    ((app, root),) = _schedulable_apps(1)
    config = FTQSConfig(max_schedules=6)
    chaos = ChaosPlan(kill_worker={0: 1}, kill_budget=1)
    with active(chaos):
        sharded = ftqs(app, root, config, jobs=2)
    assert chaos.kills_delivered == 1
    assert tree_to_dict(sharded) == tree_to_dict(ftqs(app, root, config))
    installs = install_log()
    assert len({pid for pid, _ in installs}) == len(installs) == 2


def test_degraded_pool_leaves_no_segment_behind(fig1_app):
    """A pool that spent its respawn budget finishes in-process — the
    parent installs the context itself — and close() still unlinks
    every scenario segment."""
    plan = ftss(fig1_app)
    before = set(os.listdir("/dev/shm"))
    evaluator = MonteCarloEvaluator(
        fig1_app, n_scenarios=16, fault_counts=[0, 1], seed=3
    )
    baseline = evaluator.evaluate(plan, execution="batched")
    try:
        with active(ChaosPlan(kill_worker={0: 99, 1: 99})):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                degraded = evaluator.evaluate(
                    plan, execution="batched@processes:2"
                )
    finally:
        # The process-wide counters feed the service's readiness.
        parallel.reset_pool_recovery()
    pool = evaluator.executor("batched@processes:2")._pool
    assert pool.recovery.pool_degradations == 1
    assert pool._inline_state is not None
    evaluator.close()
    assert degraded == baseline
    assert pool._inline_state is None
    assert set(os.listdir("/dev/shm")) - before == set()
