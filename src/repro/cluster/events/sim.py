"""Event-driven coded-iteration simulator: the network-aware backend.

:class:`EventDrivenIterationSim` replays one coded iteration as a
discrete-event timeline — broadcast transmissions, per-worker compute,
result replies, §4.3 repair traffic — over an explicit
:class:`~repro.cluster.events.topology.Topology` of links, instead of
evaluating the closed form.  It subclasses
:class:`~repro.cluster.simulator.CodedIterationSim` so the cost helpers
(``_arrival``'s constituents, ``_progress_rows``, the timeout deadline)
are literally the same code, and accepts the same plans and speed
matrices.

**Equivalence contract.**  With the default :class:`EventConfig`
(dedicated duplex links, zero encode cost, zero-byte repair requests,
unit link factors) every float operation mirrors the closed form's
association order exactly:

* a result arrives at ``((recv + fixed) + compute) + reply`` where
  ``recv`` equals the broadcast time and ``reply`` equals
  ``NetworkModel.transfer_time`` bitwise (uncontended factor-1 links);
* the §4.3 deadline arms from the same ``np.mean`` over the same sorted
  arrival slice; repair dispatch lands at ``cutoff + latency`` because a
  zero-byte request costs exactly one latency; the cutoff search, greedy
  reassignment, opportunistic acceptance, and the wasted-work accounting
  replay :meth:`CodedIterationSim.run` step for step.

The pinned suites assert bitwise equality in the zero-network limit
(infinite bandwidth, zero latency) for every registered policy × scenario
pair — where transfers vanish and even degraded link factors are
irrelevant — and under the default controlled network for unit factors.

What the closed form structurally cannot express, this backend adds:
encode cost before the broadcast, per-worker link degradation
(``link_factors`` from the network scenarios), shared top-of-rack links
where repair traffic queues behind result traffic, and result-shuffle
transfers after decode.

**Batched kernel.**  :meth:`EventDrivenIterationSim.run_batch` does not
loop the event loop per trial.  On dedicated duplex links every link
carries at most one transmission per direction per phase, so the
timeline is queue-free and the pop order is fully determined by the
analytic schedule: ``recv = encode_end + (latency + bytes/(bw*factor))``
per worker, ``arrival = ((recv + fixed) + compute) + reply``, k-of-n
completion by a sorted-arrival reduction, and §4.3 arming by comparing
the natural completion against the vectorized deadline.  Those
``(trials, workers)`` arrays reproduce the event loop's floats bitwise
(same association order, term by term).  A conservative divergence
detector routes the rest to the scalar loop: topologies where events can
queue (``rack_size``, ``shuffle_output``) replay every trial, and armed
trials replay unless the repair round is provably queue-free too (unit
link factors, zero encode cost, zero-byte repair requests) — in which
case the closed form's native repair resolution applies unchanged.  The
pinned batch suites fuzz this contract: batched output bitwise-equal to
the per-trial loop for every route.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.simulator import (
    BatchCodedOutcome,
    CodedIterationOutcome,
    CodedIterationSim,
    WorkerIterationStats,
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

    Every default is the *identity* setting under which the event
    timeline is bitwise-equal to :meth:`CodedIterationSim.run`:

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
            rows = int(
                self.grid.rows_of_chunks(plan.assignments[w].chunk_indices()).size
            )
            rows_of[w] = rows
            stats[w].assigned_rows = rows
            if rows > 0:
                active.append(w)

        # --- Phase 0: encode + broadcast transmissions. --------------------
        bw_bytes = (
            self.broadcast_width if self.broadcast_width is not None else self.width
        ) * self.cost.bytes_per_element
        broadcast = self._broadcast_cost  # nominal (reported)
        encode_end = self.config.encode_flops / self.cost.master_flops
        for w in range(n):
            recv = topology.send_down(w, encode_end, bw_bytes, factors[w])
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
                # Incremental coverage walk, mirroring the closed-form
                # sorted-arrival pass (pop order == (arrivals[w], w)).
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
            base_chunks = plan.assignments[w].chunk_indices()
            used = self.grid.rows_of_chunks(np.asarray(chunks, dtype=np.int64))
            stats[w].used_rows = int(used.size)
            if repaired and w in extra_rows_final:
                stats[w].computed_rows = float(
                    self.grid.rows_of_chunks(base_chunks).size
                    + extra_rows_final[w]
                )
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
        """§4.3 cutoff search at the timeout pop, mirroring ``_attempt_repair``.

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
                w: int(self.grid.rows_of_chunks(chunks).size)
                for w, chunks in extra.items()
            }
            return finished, extra, extra_rows, laggards, cutoff
        return None

    @staticmethod
    def _check_factors(link_factors, n: int) -> np.ndarray:
        if link_factors is None:
            return np.ones(n)
        factors = np.asarray(link_factors, dtype=np.float64)
        if factors.shape != (n,):
            raise ValueError(
                f"link_factors must have shape ({n},), got {factors.shape}"
            )
        if not np.all(np.isfinite(factors)) or np.any(factors <= 0):
            raise ValueError("link factors must be positive and finite")
        return factors

    @staticmethod
    def _check_factors_batch(link_factors, trials: int, n: int) -> np.ndarray:
        if link_factors is None:
            return np.ones((trials, n))
        factors = np.asarray(link_factors, dtype=np.float64)
        if factors.shape != (trials, n):
            raise ValueError(
                f"link_factors must have shape ({trials}, {n}), "
                f"got {factors.shape}"
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

        On dedicated duplex links the event timeline is queue-free, so
        the per-trial schedules are precomputed as ``(trials, workers)``
        arrays mirroring the event loop's float-operation order term by
        term (see the module docstring).  Trials whose event ordering can
        actually diverge from that schedule — shared-rack or shuffle
        topologies, and repair-armed trials whose repair round is not
        provably queue-free — are replayed through the scalar event loop,
        so the fast path never has to be trusted beyond what the schedule
        proves.  ``link_factors`` is a ``(trials, workers)`` matrix (or
        ``None``).
        """
        speeds, trials, failed_list = _normalise_batch(speeds, failed_workers)
        n = speeds.shape[1]
        plan_list = self._batch_plan_list(plans, trials, n)
        factors = self._check_factors_batch(link_factors, trials, n)
        factor_rows: list[np.ndarray | None] = (
            [None] * trials
            if link_factors is None
            else [factors[t] for t in range(trials)]
        )
        broadcast = self._broadcast_cost

        def replay(out: BatchCodedOutcome, indices) -> None:
            """Scalar event loop as the semantics of record for ``indices``."""
            for t in indices:
                outcome = self.run(
                    plan_list[t], speeds[t], failed_list[t], factor_rows[t]
                )
                out.completion_time[t] = outcome.completion_time
                out.decode_time[t] = outcome.decode_time
                out.repaired[t] = outcome.repaired
                stats = outcome.workers
                out.assigned_rows[t] = [s.assigned_rows for s in stats]
                out.computed_rows[t] = [s.computed_rows for s in stats]
                out.used_rows[t] = [s.used_rows for s in stats]
                # The batch contract counts a response only when it was
                # accepted (a late response recorded during a rejected
                # repair probe stays a cancellation).
                out.responded[t] = [
                    s.response_time is not None and not s.cancelled
                    for s in stats
                ]

        if self.config.rack_size is not None or self.config.shuffle_output:
            # Shared ToR links queue repair behind result traffic, and the
            # shuffle reuses down-links: event ordering genuinely matters.
            out = _empty_batch_outcome(np.zeros((trials, n), np.int64), broadcast)
            with span("replay"):
                replay(out, range(trials))
            return out

        with span("plan"):
            profiles, rows_mat, kinds, coverages, failed_mask = self._profile_batch(
                plan_list, failed_list, n
            )
            active = rows_mat > 0

        # The analytic schedule, mirroring the scalar event handlers'
        # float-op order term by term (queue-free on dedicated links).
        with span("broadcast"):
            bw_bytes = (
                self.broadcast_width
                if self.broadcast_width is not None
                else self.width
            ) * self.cost.bytes_per_element
            encode_end = self.config.encode_flops / self.cost.master_flops
            recv = encode_end + (
                self.network.latency
                + bw_bytes / (self.network.bandwidth * factors)
            )
        with span("compute"):
            denom = self.cost.worker_flops * speeds
            fixed = self.fixed_task_flops / denom
            compute = (rows_mat * self.width * self.cost.flops_per_element) / denom
            compute_end = (recv + fixed) + compute
        with span("reply"):
            reply_bytes = float(self.cost.row_bytes(self.width_out))
            arrivals = compute_end + (
                self.network.latency
                + (rows_mat * reply_bytes) / (self.network.bandwidth * factors)
            )
            arrivals[failed_mask | ~active] = np.inf
            done, sorted_arr = self._natural_done(arrivals, active, kinds, coverages)

        # §4.3 arming and the divergence detector.  The vectorized arming
        # test uses analytic event times, which the loop's causality clamp
        # never alters, so it is exact on dedicated links for any factors;
        # the *resolution* is only native when the repair round itself is
        # queue-free and mirrors the closed form bitwise (unit factors,
        # zero encode cost, zero-byte repair requests).
        out = _empty_batch_outcome(rows_mat, broadcast)
        with span("repair"):
            deadlines = self._batch_deadlines(sorted_arr, coverages)
            general = kinds == "general"
            armed = ~general & ~np.isnan(deadlines) & (done > deadlines)
            native_ok = (
                self.config.encode_flops == 0.0
                and self.config.repair_request_bytes == 0.0
            )
            unit_links = np.all(factors == 1.0, axis=1)
            fallback = general | (armed & ~(native_ok & unit_links))
            armed_native = armed & ~fallback
            if np.any(armed_native):
                self._resolve_armed(
                    out, armed_native, plan_list, profiles, speeds, arrivals,
                    deadlines, done, failed_list,
                )

        # Partial progress of cancelled stragglers: the event accounting
        # starts each worker's clock at its recv time.
        self._settle_natural(
            out, ~fallback & ~out.repaired, recv, done, arrivals, rows_mat,
            failed_mask, denom, fixed, kinds, coverages, profiles,
        )

        if np.any(fallback):
            with span("replay"):
                replay(out, np.flatnonzero(fallback))

        return out
