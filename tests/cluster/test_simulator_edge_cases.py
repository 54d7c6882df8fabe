"""Edge-case tests for the coded iteration simulator.

Covers the corners the main simulator tests don't: bilinear fixed-task
costs, broadcast-width decoupling, idle-worker recruitment during repair,
progressive repair cutoffs with mixed dead/slow laggards, tie-breaking,
and failure indices outside the cluster on every simulator.
"""

import numpy as np
import pytest

from repro.cluster.events import EventDrivenIterationSim
from repro.cluster.network import CostModel, NetworkModel
from repro.cluster.simulator import (
    CodedIterationSim,
    OverDecompositionIterationSim,
    ReplicationIterationSim,
)
from repro.coding.partition import ChunkGrid
from repro.scheduling.base import full_plan
from repro.scheduling.overdecomposition import (
    OverDecompositionPlacement,
    plan_assignment,
)
from repro.scheduling.replication import ReplicaPlacement, SpeculationConfig
from repro.scheduling.s2c2 import BasicS2C2Scheduler, GeneralS2C2Scheduler
from repro.scheduling.timeout import TimeoutPolicy

NET = NetworkModel(latency=1e-6, bandwidth=1e12)
COST = CostModel(worker_flops=1e6)


def make_sim(rows=120, chunks=60, width=10, **kwargs):
    return CodedIterationSim(
        grid=ChunkGrid(rows, chunks), width=width, network=NET, cost=COST, **kwargs
    )


class TestFixedTaskCost:
    def test_fixed_cost_added_once_per_worker(self):
        plain = make_sim().run(full_plan(4, 60, 2), np.ones(4))
        fixed = make_sim(fixed_task_flops=1e6).run(full_plan(4, 60, 2), np.ones(4))
        # 1e6 flops at 1e6 flop/s and speed 1 => exactly +1 s on the path.
        assert fixed.completion_time == pytest.approx(
            plain.completion_time + 1.0, rel=1e-6
        )

    def test_fixed_cost_scales_with_speed(self):
        sim = make_sim(fixed_task_flops=1e6)
        slow = sim.run(full_plan(2, 60, 1), np.array([0.5, 0.5]))
        fast = sim.run(full_plan(2, 60, 1), np.array([2.0, 2.0]))
        assert slow.completion_time > fast.completion_time

    def test_fixed_cost_shrinks_s2c2_advantage(self):
        # The §7.2.3 effect: a row-count-independent phase dilutes the
        # slack squeeze.
        speeds = np.ones(6)
        static_plan = full_plan(6, 60, 4)
        s2c2_plan = GeneralS2C2Scheduler(coverage=4, num_chunks=60).plan(speeds)
        gain_plain = (
            make_sim().run(static_plan, speeds).completion_time
            / make_sim().run(s2c2_plan, speeds).completion_time
        )
        gain_fixed = (
            make_sim(fixed_task_flops=2e6).run(static_plan, speeds).completion_time
            / make_sim(fixed_task_flops=2e6).run(s2c2_plan, speeds).completion_time
        )
        assert gain_fixed < gain_plain

    def test_progress_accounts_for_fixed_phase(self):
        # A worker cancelled during its fixed phase has computed zero rows.
        sim = make_sim(fixed_task_flops=1e9)  # enormous fixed phase
        plan = full_plan(4, 60, 2)
        speeds = np.array([1e4, 1e4, 1.0, 1.0])  # two instant workers
        outcome = sim.run(plan, speeds)
        assert outcome.workers[2].computed_rows == 0.0
        assert outcome.workers[3].computed_rows == 0.0


class TestBroadcastWidth:
    def test_broadcast_width_decouples_from_compute_width(self):
        wide = make_sim(width=10_000)  # broadcast would be huge if coupled
        slim = CodedIterationSim(
            grid=ChunkGrid(120, 60),
            width=10_000,
            broadcast_width=10,
            network=NetworkModel(latency=1e-6, bandwidth=1e4),  # slow link
            cost=COST,
        )
        plan = full_plan(2, 60, 1)
        coupled = CodedIterationSim(
            grid=ChunkGrid(120, 60),
            width=10_000,
            network=NetworkModel(latency=1e-6, bandwidth=1e4),
            cost=COST,
        ).run(plan, np.ones(2))
        decoupled = slim.run(plan, np.ones(2))
        assert decoupled.broadcast_time < coupled.broadcast_time
        del wide


class TestRepairRecruitment:
    def test_idle_workers_recruited_when_active_worker_dies(self):
        # Basic S2C2 gives two slow workers no chunks; when an active
        # worker dies, repair must fall back on the idle ones (§4.4).
        speeds = np.array([1.0] * 6 + [0.1, 0.1])
        plan = BasicS2C2Scheduler(coverage=6, num_chunks=60).plan(speeds)
        assert plan.chunks_per_worker()[6] == 0  # stragglers idle
        sim = make_sim(timeout=TimeoutPolicy())
        outcome = sim.run(plan, speeds, failed_workers=frozenset({2}))
        assert outcome.repaired
        recruited = set(outcome.contributions) & {6, 7}
        assert recruited  # at least one idle worker did repair work

    def test_mixed_dead_and_slow_laggards(self):
        # One dead worker + one merely slow worker: the progressive-cutoff
        # repair must wait for the slow one rather than give up.
        speeds = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 0.3])
        plan = GeneralS2C2Scheduler(coverage=5, num_chunks=60).plan(np.ones(6))
        sim = make_sim(timeout=TimeoutPolicy())
        outcome = sim.run(plan, speeds, failed_workers=frozenset({0}))
        cov = np.zeros(60, dtype=int)
        for chunks in outcome.contributions.values():
            np.add.at(cov, chunks, 1)
        assert np.all(cov >= 5)
        assert 0 not in outcome.contributions

    def test_all_workers_dead_is_unrecoverable(self):
        sim = make_sim(timeout=TimeoutPolicy())
        plan = full_plan(3, 60, 2)
        with pytest.raises(RuntimeError):
            sim.run(plan, np.ones(3), failed_workers=frozenset({0, 1, 2}))


class TestDeterminism:
    def test_identical_inputs_identical_outcomes(self):
        speeds = np.random.default_rng(0).uniform(0.5, 1.5, 8)
        plan = GeneralS2C2Scheduler(coverage=6, num_chunks=60).plan(speeds)
        sim = make_sim(timeout=TimeoutPolicy())
        a = sim.run(plan, speeds)
        b = sim.run(plan, speeds)
        assert a.completion_time == b.completion_time
        assert set(a.contributions) == set(b.contributions)
        for w in a.contributions:
            np.testing.assert_array_equal(a.contributions[w], b.contributions[w])

    def test_arrival_ties_broken_by_worker_index(self):
        # Equal speeds and equal loads: ties must resolve deterministically.
        sim = make_sim()
        plan = full_plan(4, 60, 2)
        outcome = sim.run(plan, np.ones(4))
        assert set(outcome.contributions) == {0, 1}


class TestFailureIndexValidation:
    """A failure index outside ``[0, n)`` is rejected on every path.

    Array indexing would otherwise fail worker ``n - 1`` for ``-1`` in a
    batch while the scalar path ignores it, and ``n`` would raise a bare
    ``IndexError`` in a batch while the scalar path ignores it too.
    """

    N = 6

    def _speeds(self):
        speeds = np.ones(self.N)
        speeds[5] = 4.0  # the fastest worker, which ``-1`` would wrap onto
        return speeds

    def _assert_rejected(self, bad, scalar, batch):
        speeds = self._speeds()
        per_trial = [frozenset(), frozenset({bad})]
        for call in (
            lambda: scalar(speeds, frozenset({bad})),
            lambda: batch(speeds[None], frozenset({bad})),
            lambda: batch(np.vstack([speeds, speeds]), per_trial),
        ):
            with pytest.raises(ValueError, match=f"failed worker index {bad} "):
                call()

    @pytest.mark.parametrize("bad", [-1, N])
    @pytest.mark.parametrize("cls", [CodedIterationSim, EventDrivenIterationSim])
    def test_coded(self, cls, bad):
        sim = cls(grid=ChunkGrid(120, 60), width=10, network=NET, cost=COST,
                  timeout=TimeoutPolicy())
        plan = full_plan(self.N, 60, 4)
        self._assert_rejected(
            bad,
            lambda s, f: sim.run(plan, s, f),
            lambda s, f: sim.run_batch(plan, s, f),
        )

    @pytest.mark.parametrize("bad", [-1, N])
    def test_replication(self, bad):
        config = SpeculationConfig()
        sim = ReplicationIterationSim(
            placement=ReplicaPlacement(self.N, config.replication, seed=0),
            config=config, rows_per_partition=20, width=10,
        )
        self._assert_rejected(bad, sim.run, sim.run_batch)

    @pytest.mark.parametrize("bad", [-1, N])
    def test_overdecomposition(self, bad):
        placement = OverDecompositionPlacement(self.N, factor=2, replication=1.0)
        plan = plan_assignment(placement.holders, np.ones(self.N), self.N)
        sim = OverDecompositionIterationSim(rows_per_partition=20, width=10)
        self._assert_rejected(
            bad,
            lambda s, f: sim.run(plan, s, f),
            lambda s, f: sim.run_batch(plan, s, f),
        )

    def test_in_range_failures_still_run(self):
        sim = make_sim(timeout=TimeoutPolicy())
        plan = full_plan(self.N, 60, 4)
        scalar = sim.run(plan, self._speeds(), frozenset({5}))
        batch = sim.run_batch(plan, self._speeds()[None], frozenset({5}))
        assert batch.completion_time[0] == scalar.completion_time
        assert not batch.responded[0, 5]
