"""Event-driven coded-iteration simulator: the scalar semantics of record.

:class:`EventDrivenIterationSim` replays one coded iteration as a
discrete-event timeline — broadcast transmissions, per-worker compute,
result replies, §4.3 repair traffic — over an explicit
:class:`~repro.cluster.events.topology.Topology` of links.  It subclasses
:class:`~repro.cluster.simulator.CodedIterationSim`, shares its cost
helpers and accepts the same plans and speed matrices.

**One scalar semantics.**  This event loop is the only scalar coded
timeline in the package: :meth:`CodedIterationSim.run` hands each
iteration to it under the identity :class:`EventConfig` (dedicated duplex
links, zero encode cost, zero-byte repair requests) and unit link
factors.  There a result arrives at ``((recv + fixed) + compute) +
reply`` with ``recv`` the nominal broadcast time, the §4.3 deadline arms
from the ``np.mean`` of the first ``k`` sorted arrivals, and repair
dispatch lands at ``cutoff + latency`` because a zero-byte request costs
exactly one latency.  The pinned suites hold the closed-form kernel to
these values bitwise, and pin the zero-network limit (infinite bandwidth,
zero latency), where even degraded link factors are irrelevant.

What the closed form structurally cannot express, this backend adds:
encode cost before the broadcast, per-worker link degradation
(``link_factors`` from the network scenarios), shared top-of-rack links
where repair traffic queues behind result traffic, and result-shuffle
transfers after decode.

**Batched path.**  :meth:`EventDrivenIterationSim.run_batch` does not
loop the event loop per trial.  On dedicated duplex links every link
carries at most one transmission per direction per phase, so the
timeline is queue-free and the pop order is fully determined by the
analytic schedule.  It therefore runs the closed form's shared batched
kernel with this backend's link terms (receipt ``encode_end + (latency
+ bytes/(bw·factor))``, reply bandwidth ``bw·factor``).  A conservative
divergence detector routes the rest to the scalar loop: topologies where
events can queue (``rack_size``, ``shuffle_output``) replay every trial,
and armed trials replay unless the repair round is provably queue-free
too (unit link factors, zero encode cost, zero-byte repair requests).
The pinned batch suites fuzz this contract: batched output
bitwise-equal to the per-trial loop for every route.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.simulator import (
    BatchCodedOutcome,
    CodedIterationOutcome,
    CodedIterationSim,
    WorkerIterationStats,
    _check_failed,
    _empty_batch_outcome,
    _normalise_batch,
)
from repro.cluster.events.loop import Event, EventLoop
from repro.cluster.events.topology import Topology
from repro.profiling import span
from repro.scheduling.base import CodedWorkPlan
from repro.scheduling.timeout import repair_assignments

__all__ = ["EventConfig", "EventTrace", "EventDrivenIterationSim"]


#: Deterministic pop priorities for simultaneous events.  Result arrivals
#: must precede the timeout at the same instant (a response at exactly the
#: deadline counts as finished, mirroring ``arrivals[w] <= cutoff``).
_PRIORITY = {
    "recv": 0,
    "compute": 1,
    "arrival": 2,
    "timeout": 3,
    "repair-recv": 4,
    "repair-compute": 5,
    "repair-arrival": 6,
}


@dataclass(frozen=True)
class EventConfig:
    """Knobs of the event backend beyond the closed form's reach.

    Every default is the *identity* setting, the one
    :meth:`CodedIterationSim.run` simulates under:

    encode_flops:
        Master-side encode work paid before the broadcast (delays every
        downstream event by ``encode_flops / master_flops``).
    repair_request_bytes:
        Size of the §4.3 reassignment message; non-zero sizes make repair
        dispatch pay bandwidth, not just latency.
    rack_size:
        Group workers into contiguous racks of this size sharing a
        top-of-rack link pair — repair traffic then queues FIFO behind
        result traffic.  ``None`` keeps dedicated duplex links.
    rack_factor:
        Bandwidth multiplier on the shared rack links.
    shuffle_output:
        Ship the decoded result back to every active worker after decode
        (the result-shuffle of an iterative solve); completion then waits
        for the slowest shuffle transfer.
    """

    encode_flops: float = 0.0
    repair_request_bytes: float = 0.0
    rack_size: int | None = None
    rack_factor: float = 1.0
    shuffle_output: bool = False

    def __post_init__(self) -> None:
        if self.encode_flops < 0:
            raise ValueError("encode_flops must be >= 0")
        if self.repair_request_bytes < 0:
            raise ValueError("repair_request_bytes must be >= 0")
        if self.rack_size is not None and self.rack_size <= 0:
            raise ValueError("rack_size must be positive when set")
        if not self.rack_factor > 0:
            raise ValueError("rack_factor must be > 0")


@dataclass
class EventTrace:
    """Audit record of one event-driven iteration (for the property suites).

    ``tasks`` maps every dispatched task (``"natural:w"`` / ``"repair:w"``)
    to its terminal status — exactly one of ``"completed"`` or
    ``"cancelled"`` — and ``loop.history`` carries the pop order the
    invariant tests check.
    """

    loop: EventLoop
    topology: Topology
    tasks: dict[str, str]
    arrivals: dict[int, float]
    done_time: float
    deadline: float | None
    repaired: bool


@dataclass(frozen=True)
class EventDrivenIterationSim(CodedIterationSim):
    """Discrete-event backend for coded iterations (see module docstring)."""

    config: EventConfig = field(default_factory=EventConfig)

    #: Batch runners pass per-worker link factors when the simulator
    #: advertises this (the closed form has no links to degrade).
    wants_link_factors = True

    # ------------------------------------------------------------------
    # Scalar path
    # ------------------------------------------------------------------

    def run(
        self,
        plan: CodedWorkPlan,
        speeds: np.ndarray,
        failed_workers: frozenset[int] = frozenset(),
        link_factors: np.ndarray | None = None,
    ) -> CodedIterationOutcome:
        """Simulate one iteration through the event loop."""
        outcome, _ = self.run_detailed(plan, speeds, failed_workers, link_factors)
        return outcome

    def run_detailed(
        self,
        plan: CodedWorkPlan,
        speeds: np.ndarray,
        failed_workers: frozenset[int] = frozenset(),
        link_factors: np.ndarray | None = None,
    ) -> tuple[CodedIterationOutcome, EventTrace]:
        """Simulate and return the outcome plus the full event trace."""
        speeds = np.asarray(speeds, dtype=np.float64)
        n = plan.n_workers
        if speeds.shape != (n,):
            raise ValueError(f"speeds must have shape ({n},), got {speeds.shape}")
        if np.any(speeds <= 0):
            raise ValueError("actual speeds must be positive (model failures "
                             "via failed_workers)")
        _check_failed(failed_workers, n)
        factors = self._check_factors(link_factors, n)

        loop = EventLoop()
        topology = Topology(
            n,
            self.network,
            rack_size=self.config.rack_size,
            rack_factor=self.config.rack_factor,
        )
        stats = [WorkerIterationStats(worker=w) for w in range(n)]
        rows_of = np.zeros(n, dtype=np.int64)
        active: list[int] = []
        for w in range(n):
            rows = self.grid.row_count(plan.assignments[w].chunk_indices())
            rows_of[w] = rows
            stats[w].assigned_rows = rows
            if rows > 0:
                active.append(w)

        # --- Phase 0: encode + broadcast transmissions. --------------------
        broadcast = self._broadcast_cost  # nominal (reported)
        encode_end = self.config.encode_flops / self.cost.master_flops
        for w in range(n):
            recv = topology.send_down(
                w, encode_end, self._broadcast_bytes, factors[w]
            )
            loop.schedule(
                Event(time=recv, kind="recv", worker=w),
                _PRIORITY["recv"],
                tiebreak=w,
            )

        reply_bytes = float(self.cost.row_bytes(self.width_out))
        expected_finite = sum(1 for w in active if w not in failed_workers)
        arm_count = 0
        if self.timeout is not None and expected_finite > 0:
            k = self.timeout.min_responses or plan.coverage
            arm_count = min(k, expected_finite)

        # --- Event loop state. ---------------------------------------------
        recv_time: dict[int, float] = {}
        projected: dict[int, float] = {}  # exact on uncontended links
        arrivals: dict[int, float] = {}
        finite_values: list[float] = []
        need = np.full(plan.num_chunks, plan.coverage, dtype=np.int64)
        natural: dict[int, np.ndarray] = {}
        done_time = np.inf
        deadline: float | None = None
        tasks: dict[str, str] = {}
        repair_plan = None  # (finished, extra, extra_rows, laggards, cutoff)
        repair_contribs: dict[int, np.ndarray] = {}
        repair_arrivals: dict[int, float] = {}

        while loop:
            event = loop.pop()
            w = event.worker
            if event.kind == "recv":
                recv_time[w] = event.time
                if rows_of[w] == 0 or w in failed_workers:
                    continue
                rows = int(rows_of[w])
                speed = float(speeds[w])
                fixed = self.fixed_task_flops / (self.cost.worker_flops * speed)
                compute = self.cost.compute_time(rows, self.width, speed)
                compute_end = (event.time + fixed) + compute
                nbytes = rows * reply_bytes
                projected[w] = compute_end + (
                    self.network.latency
                    + nbytes / (self.network.bandwidth * factors[w])
                )
                tasks[f"natural:{w}"] = "dispatched"
                loop.schedule(
                    Event(time=compute_end, kind="compute", worker=w,
                          payload=nbytes),
                    _PRIORITY["compute"],
                    tiebreak=w,
                )
            elif event.kind == "compute":
                arrive = topology.send_up(w, event.time, event.payload, factors[w])
                loop.schedule(
                    Event(time=arrive, kind="arrival", worker=w),
                    _PRIORITY["arrival"],
                    tiebreak=w,
                )
            elif event.kind == "arrival":
                arrivals[w] = event.time
                # Incremental coverage walk in arrival order (pop order ==
                # (arrivals[w], w)): each worker's useful chunks are the
                # ones still lacking coverage (the master uses the first
                # ``coverage`` results per chunk and ignores the rest, §2).
                if done_time == np.inf:
                    chunks = plan.assignments[w].chunk_indices()
                    useful = chunks[need[chunks] > 0]
                    if useful.size:
                        natural[w] = useful
                        need[useful] -= 1
                        if not need.any():
                            done_time = event.time
                finite_values.append(event.time)
                if deadline is None and arm_count and len(finite_values) == arm_count:
                    first_k = sorted(finite_values)[:arm_count]
                    deadline = self.timeout.deadline(float(np.mean(first_k)))
                    loop.schedule(
                        Event(time=deadline, kind="timeout"),
                        _PRIORITY["timeout"],
                    )
            elif event.kind == "timeout":
                if not done_time > event.time:
                    continue  # coverage met by the deadline: no repair
                repair_plan = self._plan_repair(
                    plan, speeds, active, failed_workers, arrivals, projected,
                    event.time,
                )
                if repair_plan is None:
                    continue
                finished, extra, extra_rows, laggards, cutoff = repair_plan
                repair_contribs = {
                    v: chunks.copy() for v, chunks in finished.items()
                }
                for v, chunks in extra.items():
                    repair_contribs[v] = np.concatenate(
                        [repair_contribs[v], chunks]
                    )
                    recv2 = topology.send_down(
                        v, cutoff, self.config.repair_request_bytes, factors[v]
                    )
                    tasks[f"repair:{v}"] = "dispatched"
                    loop.schedule(
                        Event(time=recv2, kind="repair-recv", worker=v,
                              payload=extra_rows[v]),
                        _PRIORITY["repair-recv"],
                        tiebreak=v,
                    )
            elif event.kind == "repair-recv":
                rows = int(event.payload)
                speed = float(speeds[w])
                fixed = self.fixed_task_flops / (self.cost.worker_flops * speed)
                compute = self.cost.compute_time(rows, self.width, speed)
                compute_end = (event.time + fixed) + compute
                loop.schedule(
                    Event(time=compute_end, kind="repair-compute", worker=w,
                          payload=rows * reply_bytes),
                    _PRIORITY["repair-compute"],
                    tiebreak=w,
                )
            elif event.kind == "repair-compute":
                arrive = topology.send_up(w, event.time, event.payload, factors[w])
                loop.schedule(
                    Event(time=arrive, kind="repair-arrival", worker=w),
                    _PRIORITY["repair-arrival"],
                    tiebreak=w,
                )
            elif event.kind == "repair-arrival":
                repair_arrivals[w] = event.time

        # --- Resolution: opportunistic repair acceptance. -------------------
        contributions: dict[int, np.ndarray] = {}
        repaired = False
        timed_out: frozenset[int] = frozenset()
        extra_rows_final: dict[int, int] = {}
        if repair_plan is not None:
            finished, extra, extra_rows, laggards, cutoff = repair_plan
            for v in finished:
                if v in arrivals:
                    stats[v].response_time = arrivals[v]
            finish = cutoff
            for v in extra:
                finish = max(finish, repair_arrivals[v])
            if finish < done_time:
                repaired = True
                contributions = repair_contribs
                extra_rows_final = extra_rows
                timed_out = laggards
                done_time = finish
        if not repaired:
            if done_time == np.inf:
                raise RuntimeError(
                    "iteration cannot complete: coverage unsatisfiable with "
                    "the surviving workers and no repair possible"
                )
            contributions = natural

        # --- Accounting: computed vs used rows per worker. ------------------
        for w in active:
            rows = stats[w].assigned_rows
            arrival_w = arrivals.get(w, np.inf)
            if repaired and w in timed_out:
                stats[w].cancelled = True
                cap_time = deadline if deadline is not None else done_time
                if w in failed_workers:
                    stats[w].computed_rows = 0.0
                else:
                    stats[w].computed_rows = self._progress_rows(
                        speeds[w], recv_time[w], cap_time, rows
                    )
                continue
            if arrival_w <= done_time:
                stats[w].computed_rows = float(rows)
                stats[w].response_time = arrival_w
            else:
                stats[w].cancelled = True
                if w in failed_workers:
                    stats[w].computed_rows = 0.0
                else:
                    stats[w].computed_rows = self._progress_rows(
                        speeds[w], recv_time[w], done_time, rows
                    )
        for w, chunks in contributions.items():
            stats[w].used_rows = self.grid.row_count(chunks)
            if repaired and w in extra_rows_final:
                stats[w].computed_rows = float(rows_of[w] + extra_rows_final[w])
        decode = self.cost.decode_time(
            rows=self.grid.rows,
            coverage=plan.coverage,
            width_out=self.width_out,
            groups=max(1, len(contributions)),
        )
        completion = done_time + decode

        # --- Optional result shuffle back to the workers. -------------------
        if self.config.shuffle_output:
            result_bytes = (
                self.grid.rows * self.width_out * self.cost.bytes_per_element
            )
            for w in active:
                arrive = topology.send_down(w, completion, result_bytes, factors[w])
                completion = max(completion, arrive)

        # --- Task ledger: every dispatched task terminates exactly once. ----
        for w in active:
            key = f"natural:{w}"
            if key in tasks:
                tasks[key] = "cancelled" if stats[w].cancelled else "completed"
        if repair_plan is not None:
            for v in repair_plan[1]:
                tasks[f"repair:{v}"] = "completed" if repaired else "cancelled"

        outcome = CodedIterationOutcome(
            completion_time=completion,
            broadcast_time=broadcast,
            decode_time=decode,
            workers=stats,
            contributions=contributions,
            repaired=repaired,
            timed_out_workers=timed_out,
        )
        trace = EventTrace(
            loop=loop,
            topology=topology,
            tasks=tasks,
            arrivals=arrivals,
            done_time=done_time,
            deadline=deadline,
            repaired=repaired,
        )
        return outcome, trace

    def _plan_repair(
        self,
        plan: CodedWorkPlan,
        speeds: np.ndarray,
        active: list[int],
        failed_workers: frozenset[int],
        arrivals: dict[int, float],
        projected: dict[int, float],
        deadline: float,
    ):
        """§4.3 cutoff search at the timeout pop.

        Cancel the laggards at the deadline and reassign their chunks to
        the finished workers plus the idle ones (assigned nothing, but
        holding their coded partitions, §4.4).  When no reassignment
        restores coverage, the master waits for the next response and
        tries again, so only unreachable coverage makes repair fail.
        Returns ``(finished, extra, extra_rows, laggards, cutoff)`` or
        ``None`` (the master waits for stragglers).

        Arrival estimates use realised pop times where available and the
        uncontended link projection otherwise — identical values on
        dedicated links, a lower bound under rack contention (the realised
        repair traffic still queues physically afterwards).
        """
        est = {
            w: arrivals.get(w, projected.get(w, np.inf))
            if w not in failed_workers
            else np.inf
            for w in active
        }
        order = sorted(active, key=lambda w: (est[w], w))
        idle_alive = [
            w
            for w in range(plan.n_workers)
            if plan.assignments[w].num_chunks == 0 and w not in failed_workers
        ]
        later_arrivals = sorted(
            est[w] for w in order if deadline < est[w] < np.inf
        )
        for cutoff in [deadline, *later_arrivals]:
            finished = {
                w: plan.assignments[w].chunk_indices()
                for w in order
                if est[w] <= cutoff
            }
            for w in idle_alive:
                finished.setdefault(w, np.empty(0, dtype=np.int64))
            laggards = frozenset(w for w in order if est[w] > cutoff)
            if not laggards or not finished:
                return None
            try:
                extra = repair_assignments(plan, finished, speeds)
            except ValueError:
                continue  # wait for the next response, then reconsider
            extra_rows = {
                w: self.grid.row_count(chunks) for w, chunks in extra.items()
            }
            return finished, extra, extra_rows, laggards, cutoff
        return None

    @staticmethod
    def _check_factors(link_factors, *shape: int) -> np.ndarray:
        """Validated ``shape`` link factors (all ones when ``None``)."""
        if link_factors is None:
            return np.ones(shape)
        factors = np.asarray(link_factors, dtype=np.float64)
        if factors.shape != shape:
            raise ValueError(
                f"link_factors must have shape {shape}, got {factors.shape}"
            )
        if not np.all(np.isfinite(factors)) or np.any(factors <= 0):
            raise ValueError("link factors must be positive and finite")
        return factors

    # ------------------------------------------------------------------
    # Batched path
    # ------------------------------------------------------------------

    def run_batch(
        self,
        plans: CodedWorkPlan | list[CodedWorkPlan],
        speeds: np.ndarray,
        failed_workers: frozenset[int] | list[frozenset[int]] = frozenset(),
        link_factors: np.ndarray | None = None,
    ) -> BatchCodedOutcome:
        """Batched event simulation, bitwise-equal to looping :meth:`run`.

        On dedicated duplex links the event timeline is queue-free, so it
        runs through the shared closed-form kernel
        (:meth:`CodedIterationSim._batch_kernel`) with this backend's link
        terms: broadcast receipt ``encode_end + (latency + bytes /
        (bandwidth · factor))`` and reply bandwidth ``bandwidth · factor``.
        Armed trials resolve natively only where the repair round is
        provably queue-free too (unit factors, zero encode cost, zero-byte
        repair requests); those, plans of a general shape, and every trial
        of a shared-rack or shuffle topology replay through the scalar
        event loop.  ``link_factors`` is a ``(trials, workers)`` matrix
        (or ``None``).
        """
        speeds, trials, failed_list = _normalise_batch(speeds, failed_workers)
        n = speeds.shape[1]
        plan_list = self._batch_plan_list(plans, trials, n)
        factors = (
            None if link_factors is None
            else self._check_factors(link_factors, trials, n)
        )

        def run_one(t: int) -> CodedIterationOutcome:
            row = None if factors is None else factors[t]
            return self.run(plan_list[t], speeds[t], failed_list[t], row)

        if self.config.rack_size is not None or self.config.shuffle_output:
            # Shared ToR links queue repair behind result traffic, and the
            # shuffle reuses down-links: event ordering genuinely matters.
            out = _empty_batch_outcome(
                np.zeros((trials, n), np.int64), self._broadcast_cost
            )
            self._replay(out, np.ones(trials, dtype=bool), run_one)
            return out

        with span("broadcast"):
            bandwidth = self.network.bandwidth
            if factors is not None:
                bandwidth = bandwidth * factors
            recv = self.config.encode_flops / self.cost.master_flops + (
                self.network.latency + self._broadcast_bytes / bandwidth
            )
        # The kernel's arming test reads analytic event times, which the
        # loop's causality clamp never alters, so it is exact on dedicated
        # links for any factors; the *resolution* is native only where the
        # repair round is queue-free too.
        native = (
            self.config.encode_flops == 0.0
            and self.config.repair_request_bytes == 0.0
        )
        if factors is not None:
            native = native & np.all(factors == 1.0, axis=1)
        out, replay = self._batch_kernel(
            plan_list, speeds, failed_list, recv, bandwidth, native
        )
        self._replay(out, replay, run_one)
        return out
