"""Outside-in layer tracer for the ``repro`` benchmark.

The tracer never edits ``src/``: it replaces the public functions at each
layer boundary with timing wrappers, at *every* place the function is
bound (a function imported by name into several modules has one binding
per importer, and a wrapper installed at only one of them would miss the
calls made through the others).

Spans nest on one stack (the benchmark runs ``--jobs 1``, so every call
happens on the main thread).  A boundary's *self* time is its span time
minus the time of the spans opened inside it, so the per-layer self times
plus the root span's self time (``trace.unattributed_s``) add up to the
traced wall exactly.  Code in a function that is not a boundary counts
toward the nearest boundary that called it.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import time
import types
from dataclasses import dataclass
from typing import Any, Callable

ROOT = "root"


@dataclass(frozen=True)
class Boundary:
    """One wrapped function or method and the layer its time is charged to.

    ``target`` is ``"module:Qual.name"``.  ``subclasses`` also wraps every
    subclass that defines the method itself.  A ``fine`` boundary called
    directly inside a span of its own layer is only counted, not timed:
    its time already lands in that layer, and skipping the span keeps
    per-trial boundaries cheap.  ``hook(counters, result)`` records counts
    from a call's result.
    """

    layer: str
    target: str
    fine: bool = False
    subclasses: bool = False
    hook: Callable[[dict, Any], None] | None = None

    @property
    def name(self) -> str:
        return self.target.split(":", 1)[1]


def _add(counters: dict, key: str, value: float) -> None:
    counters[key] = counters.get(key, 0) + value


def _count_shards(counters, plan):
    _add(counters, "engine.plan.shards", len(plan.shards))


def _count_cell_records(counters, records):
    _add(counters, "engine.store.records_read", len(records))


def _count_plan_rows(counters, plans):
    _add(counters, "scheduling.plan.rows", len(plans))
    _add(counters, "scheduling.plan.unique", len({id(p) for p in plans}))


def _count_closed(counters, outcome):
    _add(counters, "cluster.closed.trials", outcome.n_trials)
    _add(counters, "cluster.closed.repaired", int(outcome.repaired.sum()))


def _count_events(counters, outcome):
    _add(counters, "cluster.events.trials", outcome.n_trials)


def _count_engine_run(counters, report):
    _add(counters, "engine.shard_hits", report.shard_hits)
    _add(counters, "engine.shards_total", report.shards_total)


#: The engine boundary every invocation wraps, traced or not: its result
#: carries the store hit count that tells a warm run from a recomputation.
ENGINE_RUN = Boundary(
    "engine.run", "repro.engine.runner:ExecutionEngine.run", hook=_count_engine_run
)

BOUNDARIES: tuple[Boundary, ...] = (
    ENGINE_RUN,
    Boundary("engine.digest", "repro.engine.runner:package_source_digest"),
    Boundary("engine.digest", "repro.cluster.scenarios:registry_digest"),
    Boundary("engine.digest", "repro.scheduling.policies:registry_digest"),
    Boundary("engine.plan", "repro.engine.plan:compile_plan", hook=_count_shards),
    Boundary("engine.store.read", "repro.engine.store:RunStore.shard_index"),
    Boundary("engine.store.read", "repro.engine.store:RunStore.iter_matching"),
    Boundary(
        "engine.store.read",
        "repro.engine.store:RunHandle.cell_records",
        hook=_count_cell_records,
    ),
    Boundary("engine.store.read", "repro.engine.store:RunHandle.iter_shard_records"),
    Boundary("engine.store.append", "repro.engine.store:AppendWriter.append"),
    Boundary("engine.fold", "repro.engine.reduce:Reducer.update", subclasses=True),
    Boundary("engine.fold", "repro.engine.reduce:Reducer.merge", subclasses=True),
    Boundary("engine.fold", "repro.engine.reduce:Reducer.finalize", subclasses=True),
    Boundary(
        "scheduling.plan", "repro.scheduling.base:plan_batch", hook=_count_plan_rows
    ),
    Boundary("scheduling.repair", "repro.scheduling.timeout:repair_assignments"),
    Boundary(
        "scheduling.adaptive",
        "repro.scheduling.adaptive:AdaptivePolicyRunner.run_scenario",
    ),
    Boundary(
        "scheduling.adaptive", "repro.scheduling.adaptive:AutoPolicyRunner.run_scenario"
    ),
    Boundary("scheduling.adaptive", "repro.scheduling.adaptive:AutoPolicyRunner.commit"),
    Boundary(
        "cluster.closed",
        "repro.cluster.simulator:CodedIterationSim.run_batch",
        hook=_count_closed,
    ),
    Boundary(
        "cluster.events",
        "repro.cluster.events.sim:EventDrivenIterationSim.run_batch",
        hook=_count_events,
    ),
    # Called per trial when the batched kernel replays through the scalar
    # event loop; nested calls are counted as replays.
    Boundary(
        "cluster.events", "repro.cluster.events.sim:EventDrivenIterationSim.run", fine=True
    ),
    Boundary("cluster.draw", "repro.cluster.scenarios:scenario_batch"),
    Boundary("cluster.draw", "repro.cluster.scenarios:scenario_speed_model", fine=True),
    Boundary("cluster.draw", "repro.cluster.speed_models:StackedSpeeds.speeds_batch"),
    Boundary("cluster.draw", "repro.cluster.speed_models:BatchTraceSpeeds.speeds_batch"),
    Boundary("cluster.draw", "repro.cluster.events.factors:link_factors_batch"),
    Boundary("cluster.replication", "repro.cluster.simulator:ReplicationIterationSim.run"),
    Boundary(
        "cluster.replication", "repro.cluster.simulator:ReplicationIterationSim.run_batch"
    ),
    Boundary(
        "cluster.overdecomp",
        "repro.cluster.simulator:OverDecompositionIterationSim.run_batch",
    ),
    Boundary("prediction.fit", "repro.prediction.lstm:LSTMSpeedModel.fit"),
    Boundary("prediction.fit", "repro.prediction.arima:ARModel.fit"),
    Boundary("prediction.fit", "repro.prediction.arima:ARIMA111Model.fit"),
    *(
        Boundary("prediction.forecast", f"repro.prediction.predictor:{cls}.{method}")
        for cls in (
            "BatchLastValuePredictor",
            "BatchARPredictor",
            "BatchLSTMPredictor",
            "StackedPredictor",
        )
        for method in ("predict", "update")
    ),
    Boundary("prediction.traces", "repro.prediction.traces:generate_speed_traces"),
    Boundary("runtime.round", "repro.runtime.batch:BatchCodedRunner.matvec"),
    Boundary("runtime.round", "repro.runtime.batch:BatchOverDecompositionRunner.matvec"),
    Boundary("runtime.session", "repro.runtime.session:CodedSession.matvec"),
    Boundary("runtime.session", "repro.runtime.session:ReplicationSession.matvec"),
    Boundary("runtime.session", "repro.runtime.session:OverDecompositionSession.matvec"),
    Boundary("runtime.metrics", "repro.runtime.batch:BatchRunMetrics.add_round"),
    *(
        Boundary("coding", target, fine=True)
        for target in (
            "repro.coding.mds:MDSCode.encode",
            "repro.coding.mds:MDSCode.decoder",
            "repro.coding.mds:EncodedMatrix.decoder",
            "repro.coding.polynomial:PolynomialCode.encode",
            "repro.coding.polynomial:EncodedBilinear.decoder",
            "repro.coding.lagrange:LagrangeCode.encode",
            "repro.coding.lagrange:EncodedLagrange.decoder",
            "repro.coding.linear:AnyKRowDecoder.add",
            "repro.coding.linear:AnyKRowDecoder.solve",
        )
    ),
    Boundary("experiments.render", "repro.experiments.harness:ExperimentResult.format_table"),
    Boundary("experiments", "repro.experiments.sweep:SweepRunner.run"),
    Boundary("experiments", "repro.experiments.matrix:run_matrix"),
    Boundary("experiments", "repro.experiments.tournament:run_tournament"),
)

#: Boundaries bound by name in several modules: every listed site must be
#: wrapped (the self-test checks the tracer finds them all).
KNOWN_SITES = {
    "repair_assignments": {
        "repro.scheduling.timeout",
        "repro.scheduling",
        "repro.cluster.simulator",
        "repro.cluster.events.sim",
    },
    "plan_batch": {"repro.scheduling.base", "repro.runtime.batch"},
    "compile_plan": {"repro.engine.plan", "repro.engine.runner", "repro.engine"},
}

#: Per-layer ``self_s`` metrics, in report order (``experiments`` also
#: holds the sweep cells and the figure entry points).
LAYERS = (
    "engine.digest",
    "engine.plan",
    "engine.store.read",
    "engine.store.append",
    "engine.fold",
    "engine.run",
    "scheduling.plan",
    "scheduling.repair",
    "scheduling.adaptive",
    "cluster.closed",
    "cluster.events",
    "cluster.draw",
    "cluster.replication",
    "cluster.overdecomp",
    "prediction.fit",
    "prediction.forecast",
    "prediction.traces",
    "runtime.round",
    "runtime.session",
    "runtime.metrics",
    "coding",
    "experiments.render",
    "experiments",
)


class Tracer:
    """Span stack plus per-boundary totals.

    ``stats[key]`` is ``[calls, nested, self_s, incl_s, depth]``: ``nested``
    counts the ``fine`` calls only counted, and ``incl_s`` sums outermost
    calls only, so recursion is not counted twice.
    """

    def __init__(self):
        self.stack: list[list] = []
        self.stats: dict[str, list] = {}
        self.counters: dict[str, float] = {}
        self.layer_of: dict[str, str] = {}
        self.sites: dict[str, list[str]] = {}
        self.root: list | None = None

    def open_root(self) -> None:
        self.root = [ROOT, time.perf_counter(), 0.0]
        self.stack.append(self.root)

    def close_root(self) -> None:
        """Close the root span, recording its wall time."""
        if self.stack != [self.root]:
            raise RuntimeError("unbalanced spans")
        self.stack.pop()
        self.root.append(time.perf_counter() - self.root[1])

    def _stats(self, key: str, layer: str) -> list:
        self.layer_of[key] = layer
        return self.stats.setdefault(key, [0, 0, 0.0, 0.0, 0])

    def wrap(self, key: str, layer: str, original, fine=False, hook=None):
        """A timing wrapper around ``original`` charged to ``layer``."""
        stats = self._stats(key, layer)
        stack = self.stack
        counters = self.counters
        clock = time.perf_counter
        items = f"{key}.items"

        def traced_iter(inner):
            # A generator does its work when resumed, not when created.
            while True:
                frame = [layer, clock(), 0.0]
                stack.append(frame)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    duration = clock() - frame[1]
                    stack.pop()
                    stats[2] += duration - frame[2]
                    stack[-1][2] += duration
                _add(counters, items, 1)
                yield item

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stats[0] += 1
            if fine and stack[-1][0] == layer:
                stats[1] += 1
                return original(*args, **kwargs)
            frame = [layer, clock(), 0.0]
            stack.append(frame)
            stats[4] += 1
            try:
                result = original(*args, **kwargs)
            finally:
                duration = clock() - frame[1]
                stack.pop()
                stats[4] -= 1
                stats[2] += duration - frame[2]
                if not stats[4]:
                    stats[3] += duration
                stack[-1][2] += duration
            if hook is not None:
                hook(counters, result)
            if isinstance(result, types.GeneratorType):
                return traced_iter(result)
            return result

        return traced

    def layer_self(self, layer: str) -> float:
        return sum(s[2] for k, s in self.stats.items() if self.layer_of[k] == layer)

    def calls(self, key: str) -> int:
        return self.stats.get(key, [0])[0]

    def layer_calls(self, layer: str) -> int:
        return sum(s[0] for k, s in self.stats.items() if self.layer_of[k] == layer)


def _repro_modules() -> list[types.ModuleType]:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if (name == "repro" or name.startswith("repro.")) and module is not None
    ]


def _resolve(target: str):
    module_name, qualname = target.split(":")
    owner: Any = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _all_subclasses(cls) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_all_subclasses(sub))
    return found


def _module_bindings(original) -> list[tuple[types.ModuleType, str]]:
    """Every ``(module, attribute)`` of a loaded ``repro`` module bound to it."""
    return [
        (module, attr)
        for module in _repro_modules()
        for attr, value in list(vars(module).items())
        if value is original
    ]


def _patch(owner, attr: str, make_wrapper, sites: list[str]) -> None:
    """Replace ``owner.attr`` (and, for a function, every other binding)."""
    if isinstance(owner, type):
        if not isinstance(inspect.getattr_static(owner, attr), types.FunctionType):
            raise TypeError(f"{owner.__qualname__}.{attr} is not a plain method")
        setattr(owner, attr, make_wrapper(getattr(owner, attr)))
        sites.append(f"{owner.__module__}.{owner.__qualname__}")
        return
    original = getattr(owner, attr)
    wrapper = make_wrapper(original)
    for module, name in _module_bindings(original):
        setattr(module, name, wrapper)
        sites.append(module.__name__)
    if _module_bindings(original):
        raise RuntimeError(f"{attr} still bound unwrapped after patching")


def _targets(boundary: Boundary) -> list[tuple[Any, str]]:
    owner, attr = _resolve(boundary.target)
    if not boundary.subclasses:
        return [(owner, attr)]
    return [(cls, attr) for cls in _all_subclasses(owner) if attr in vars(cls)]


def install(tracer: Tracer, boundaries=BOUNDARIES, experiments: bool = True) -> None:
    """Wrap every boundary at every binding site.

    With ``experiments``, the experiment code is wrapped too, charged to
    the ``experiments`` layer: each sweep's cell function, so experiment
    code running inside the engine is not counted as engine time, and the
    figure entry points the CLI looks up in ``ALL_EXPERIMENTS``.
    """
    for boundary in boundaries:
        targets = _targets(boundary)
        if not targets:
            raise RuntimeError(f"boundary {boundary.target} resolves to nothing")
        sites = tracer.sites.setdefault(boundary.name, [])
        make = functools.partial(
            tracer.wrap,
            boundary.name,
            boundary.layer,
            fine=boundary.fine,
            hook=boundary.hook,
        )
        if boundary is ENGINE_RUN and experiments:
            make = _with_traced_cells(tracer, make)
        for owner, attr in targets:
            _patch(owner, attr, make, sites)
    if experiments:
        from repro.experiments import ALL_EXPERIMENTS

        for name, run in list(ALL_EXPERIMENTS.items()):
            ALL_EXPERIMENTS[name] = tracer.wrap("experiment", "experiments", run)


def _with_traced_cells(tracer: Tracer, make_wrapper):
    def make(run):
        def run_with_traced_cells(self, spec, *args, **kwargs):
            cell = tracer.wrap("cell", "experiments", spec.cell)
            return run(self, dataclasses.replace(spec, cell=cell), *args, **kwargs)

        return make_wrapper(functools.wraps(run)(run_with_traced_cells))

    return make


def install_delay(target: str, seconds: float) -> None:
    """Sleep ``seconds`` before every call of ``target``, at every binding.

    The sensitivity self-test slows one boundary this way, through the
    benchmark's own wrapper and never through ``src/``.
    """
    def make(original):
        @functools.wraps(original)
        def delayed(*args, **kwargs):
            time.sleep(seconds)
            return original(*args, **kwargs)

        return delayed

    owner, attr = _resolve(target)
    _patch(owner, attr, make, [])


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer self times and counts of one traced invocation."""
    c = tracer.counters
    metrics = {f"{layer}.self_s": tracer.layer_self(layer) for layer in LAYERS}
    events_trials = c.get("cluster.events.trials", 0)
    closed_trials = c.get("cluster.closed.trials", 0)
    rows = c.get("scheduling.plan.rows", 0)
    metrics.update(
        {
            "engine.plan.shards": c.get("engine.plan.shards", 0),
            "engine.store.records_read": c.get("engine.store.records_read", 0)
            + c.get("RunHandle.iter_shard_records.items", 0),
            "engine.store.appends": tracer.calls("AppendWriter.append"),
            "scheduling.plan.rows": rows,
            "scheduling.plan.unique_ratio": (
                c.get("scheduling.plan.unique", 0) / rows if rows else 0.0
            ),
            "scheduling.repair.calls": tracer.calls("repair_assignments"),
            "scheduling.auto.commit_s": tracer.stats.get(
                "AutoPolicyRunner.commit", [0, 0, 0.0, 0.0]
            )[3],
            "cluster.closed.trials": closed_trials,
            "cluster.closed.repaired_ratio": (
                c.get("cluster.closed.repaired", 0) / closed_trials
                if closed_trials
                else 0.0
            ),
            "cluster.events.trials": events_trials,
            "cluster.events.replay_ratio": (
                tracer.stats.get("EventDrivenIterationSim.run", [0, 0])[1]
                / events_trials
                if events_trials
                else 0.0
            ),
            "prediction.fit.calls": tracer.layer_calls("prediction.fit"),
            "prediction.forecast.calls": tracer.layer_calls("prediction.forecast"),
            "runtime.rounds": tracer.layer_calls("runtime.round"),
            "trace.calls": sum(s[0] for s in tracer.stats.values()),
            "trace.wall_s": tracer.root[3],
            "trace.unattributed_s": tracer.root[3] - tracer.root[2],
        }
    )
    return metrics
