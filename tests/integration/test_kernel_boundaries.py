"""The batched kernels reach repair and planning through their module bindings.

Outside-in tooling (the benchmark's layer tracer, ad-hoc profilers) wraps
``repair_assignments`` and ``plan_batch`` where the kernels import them.
If a kernel stopped calling through those names — say, by inlining an
array-native repair path — the wrappers would silently read zero.  These
tests install counting wrappers at exactly those bindings and drive one
repair-armed closed ``run_batch``, one armed event ``run_batch`` on unit
links and one ``BatchCodedRunner.matvec``.

The event kernel resolves armed unit-link trials with the closed form's
inherited ``_repair_batch_trial``, so that path counts on the
``repro.cluster.simulator`` binding; the ``repro.cluster.events.sim``
binding belongs to the scalar event loop, which the kernel replays
trials through when links degrade.

The same tooling charges each backend's trials by binding
``CodedIterationSim.run_batch`` and ``EventDrivenIterationSim.run_batch``
by name, so both must stay methods of their own class, and neither
backend's batch may pass through the other's entry point or (on full and
exact plans) the scalar event loop.
"""

import numpy as np

import repro.cluster.events.sim as event_sim
import repro.cluster.simulator as closed_sim
import repro.runtime.batch as runtime_batch
from repro.cluster.events import EventConfig, EventDrivenIterationSim
from repro.cluster.network import CostModel, NetworkModel
from repro.cluster.scenarios import scenario_batch
from repro.cluster.speed_models import ControlledSpeeds, StackedSpeeds
from repro.coding.partition import ChunkGrid
from repro.prediction.predictor import OraclePredictor, StackedPredictor
from repro.runtime.batch import BatchCodedRunner
from repro.scheduling.base import full_plan
from repro.scheduling.s2c2 import GeneralS2C2Scheduler
from repro.scheduling.timeout import TimeoutPolicy

N, K, CHUNKS, TRIALS = 8, 5, 40, 16


def _count(monkeypatch, module, name):
    calls = []
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def _armed_inputs():
    # A plan built for equal speeds, run under bursty actual speeds: the
    # §4.3 deadline fires on many trials.
    plan = GeneralS2C2Scheduler(coverage=K, num_chunks=CHUNKS).plan(np.ones(N))
    speeds = scenario_batch("bursty", N, [13 * t for t in range(TRIALS)]).speeds_batch(1)
    return plan, speeds


def test_closed_kernel_repairs_through_its_binding(monkeypatch):
    calls = _count(monkeypatch, closed_sim, "repair_assignments")
    plan, speeds = _armed_inputs()
    sim = closed_sim.CodedIterationSim(
        grid=ChunkGrid(120, CHUNKS),
        width=10,
        network=NetworkModel(latency=5e-6, bandwidth=2.5e8),
        cost=CostModel(worker_flops=1e6),
        timeout=TimeoutPolicy(slack=0.05),
    )
    outcome = sim.run_batch(plan, speeds)
    assert outcome.repaired.any()
    assert calls


def _event_sim():
    return EventDrivenIterationSim(
        grid=ChunkGrid(120, CHUNKS),
        width=10,
        network=NetworkModel(latency=5e-6, bandwidth=2.5e8),
        cost=CostModel(worker_flops=1e6),
        timeout=TimeoutPolicy(slack=0.05),
    )


def test_event_kernel_repairs_natively_through_the_closed_binding(monkeypatch):
    native = _count(monkeypatch, closed_sim, "repair_assignments")
    scalar = _count(monkeypatch, event_sim, "repair_assignments")
    replays = _count(monkeypatch, EventDrivenIterationSim, "run")
    plan, speeds = _armed_inputs()
    outcome = _event_sim().run_batch(plan, speeds)
    assert outcome.repaired.any()
    assert native
    assert not replays and not scalar  # unit links: resolved on the batch path


def test_event_replays_repair_through_the_event_binding(monkeypatch):
    calls = _count(monkeypatch, event_sim, "repair_assignments")
    plan, speeds = _armed_inputs()
    factors = np.ones_like(speeds)
    factors[:, 0] = 0.5  # one degraded link: armed trials replay
    _event_sim().run_batch(plan, speeds, link_factors=factors)
    assert calls


def test_batch_runner_plans_through_its_binding(monkeypatch):
    calls = _count(monkeypatch, runtime_batch, "plan_batch")
    models = [ControlledSpeeds(N, num_stragglers=2, seed=s) for s in range(4)]
    oracle = [
        OraclePredictor(speed_model=ControlledSpeeds(N, num_stragglers=2, seed=s))
        for s in range(4)
    ]
    runner = BatchCodedRunner(
        speed_model=StackedSpeeds(models),
        predictor=StackedPredictor(oracle),
        timeout=TimeoutPolicy(),
    )
    runner.register_matvec(
        "A", 240, 60, K, GeneralS2C2Scheduler(coverage=K, num_chunks=CHUNKS)
    )
    runner.matvec("A")
    assert calls


def test_each_backend_defines_its_own_batch_entry():
    assert "run_batch" in vars(closed_sim.CodedIterationSim)
    assert "run_batch" in vars(EventDrivenIterationSim)


def test_event_batches_never_enter_the_closed_entry(monkeypatch):
    closed_entry = _count(monkeypatch, closed_sim.CodedIterationSim, "run_batch")
    plan, speeds = _armed_inputs()
    degraded = np.ones_like(speeds)
    degraded[:, 0] = 0.5
    sim = _event_sim()
    sim.run_batch(plan, speeds)
    sim.run_batch(plan, speeds, link_factors=degraded)
    racked = EventDrivenIterationSim(
        grid=sim.grid, width=sim.width, network=sim.network, cost=sim.cost,
        timeout=sim.timeout, config=EventConfig(rack_size=4),
    )
    racked.run_batch(plan, speeds[:2])
    assert not closed_entry


def test_closed_batches_on_full_and_exact_plans_never_replay(monkeypatch):
    replays = _count(monkeypatch, EventDrivenIterationSim, "run")
    exact, speeds = _armed_inputs()
    sim = closed_sim.CodedIterationSim(
        grid=ChunkGrid(120, CHUNKS),
        width=10,
        network=NetworkModel(latency=5e-6, bandwidth=2.5e8),
        cost=CostModel(worker_flops=1e6),
        timeout=TimeoutPolicy(slack=0.05),
    )
    assert sim.run_batch(exact, speeds).repaired.any()
    sim.run_batch(full_plan(N, CHUNKS, K), speeds, frozenset({3}))
    assert not replays
