"""Per-iteration cluster simulators for coded and uncoded strategies.

Because worker speeds are constant within an iteration (the measurement
granularity of the paper, §6.2), one iteration's timeline is a deterministic
function of the work plan, the actual speeds, and the cost models.
Mid-iteration control decisions (speculative execution in the replication
baseline, §4.3 timeout repair in S2C2) are points on that timeline and are
resolved exactly.

Three simulators, one per strategy family:

* :class:`CodedIterationSim` — conventional coded computation *and* S2C2
  (the plan encodes the difference), with optional timeout repair and
  worker-failure injection.
* :class:`ReplicationIterationSim` — uncoded r-replication with LATE-style
  speculative re-execution.
* :class:`OverDecompositionIterationSim` — Charm++-like over-decomposition
  with partition migration.

Every simulator returns an outcome carrying the iteration latency breakdown,
per-worker computed/used row counts (the wasted-computation accounting of
Figs 9/11), the bytes moved for load balancing, and the *contributions* the
master actually uses — which the runtime layer then executes numerically.

One coded-iteration timeline
----------------------------
The coded timeline — broadcast, per-worker compute and reply, k-of-n or
exact coverage, then the §4.3 timeout repair — has one scalar semantics
and one batched kernel:

* The discrete-event loop of
  :class:`~repro.cluster.events.EventDrivenIterationSim` is the semantics
  of record.  :meth:`CodedIterationSim.run` hands each iteration to it
  under the identity event configuration (dedicated, undegraded links).
* :meth:`CodedIterationSim._batch_kernel` evaluates the same timeline in
  closed form for a ``(trials, workers)`` speed matrix.  On the two plan
  shapes every scheduler here produces — *full* plans (conventional coded
  computation: everyone computes everything) and *exact-coverage* plans
  (S2C2's no-wasted-work wraparound layout) — arrivals, completion, §4.3
  arming and the computed/used accounting are stacked numpy arrays, and
  repair-armed trials resolve natively on the arrival matrix.  Per-worker
  link terms parameterise it, so both backends' ``run_batch`` share it.
  Trials it cannot settle (plans of any other shape, armed trials whose
  repair round may queue) replay through the scalar ``run``, so a batch
  stays bitwise-equal to a per-trial loop.

:meth:`ReplicationIterationSim.run_batch` vectorizes the arrival
computation and resolves the (inherently sequential) speculation decisions
per trial; :meth:`OverDecompositionIterationSim.run_batch` stacks the
per-worker chunk timelines — migration fetches, compute, reply — across
all trials at once, with the same bitwise-equality contract.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from repro.cluster.network import CostModel, NetworkModel
from repro.profiling import span
from repro.coding.partition import ChunkGrid
from repro.scheduling.base import CodedWorkPlan
from repro.scheduling.overdecomposition import OverDecompositionPlan
from repro.scheduling.replication import ReplicaPlacement, SpeculationConfig
from repro.scheduling.timeout import TimeoutPolicy, repair_assignments

__all__ = [
    "WorkerIterationStats",
    "CodedIterationOutcome",
    "BatchCodedOutcome",
    "BatchUncodedOutcome",
    "CodedIterationSim",
    "UncodedIterationOutcome",
    "ReplicationIterationSim",
    "OverDecompositionIterationSim",
]


def _normalise_batch(
    speeds: np.ndarray,
    failed_workers: frozenset[int] | Sequence[frozenset[int]],
    n_workers: int | None = None,
) -> tuple[np.ndarray, int, list[frozenset[int]]]:
    """Validate batch inputs shared by every ``run_batch``.

    Returns the ``(trials, workers)`` speed matrix, the trial count, and
    one failure set per trial (a single set is broadcast to all trials).
    """
    speeds = np.asarray(speeds, dtype=np.float64)
    expected = "workers" if n_workers is None else str(n_workers)
    if speeds.ndim != 2 or (n_workers is not None and speeds.shape[1] != n_workers):
        raise ValueError(
            f"speeds must be 2-D (trials, {expected}), got shape {speeds.shape}"
        )
    if np.any(speeds <= 0):
        raise ValueError("speeds must be positive (model failures via "
                         "failed_workers)")
    trials = speeds.shape[0]
    if isinstance(failed_workers, (frozenset, set)):
        failed_list = [frozenset(failed_workers)] * trials
    else:
        failed_list = [frozenset(f) for f in failed_workers]
        if len(failed_list) != trials:
            raise ValueError(
                f"got {len(failed_list)} failure sets for {trials} trials"
            )
    for failed in set(failed_list):
        _check_failed(failed, speeds.shape[1])
    return speeds, trials, failed_list


def _check_failed(failed_workers: frozenset[int], n: int) -> None:
    """Reject failure indices outside ``[0, n)``.

    Array indexing would wrap ``-1`` onto the last worker, and scalar
    membership tests would silently ignore ``n``.
    """
    for w in failed_workers:
        if not 0 <= w < n:
            raise ValueError(
                f"failed worker index {w} is out of range for {n} workers"
            )


@dataclass
class WorkerIterationStats:
    """Per-worker accounting for one iteration.

    ``computed_rows`` includes partial progress of cancelled tasks;
    ``used_rows`` counts only rows whose results entered the decoded (or
    assembled) output.  ``wasted = computed - used`` is the quantity of
    Figs 9 and 11.
    """

    worker: int
    assigned_rows: int = 0
    computed_rows: float = 0.0
    used_rows: int = 0
    response_time: float | None = None
    cancelled: bool = False

    @property
    def wasted_rows(self) -> float:
        """Rows of computation that did not contribute to the result."""
        return max(0.0, self.computed_rows - self.used_rows)

    @property
    def wasted_fraction(self) -> float:
        """Wasted share of this worker's computation (0 when it did nothing)."""
        if self.computed_rows <= 0:
            return 0.0
        return self.wasted_rows / self.computed_rows


@dataclass
class CodedIterationOutcome:
    """Result of simulating one coded iteration."""

    completion_time: float
    broadcast_time: float
    decode_time: float
    workers: list[WorkerIterationStats]
    contributions: dict[int, np.ndarray]
    repaired: bool = False
    timed_out_workers: frozenset[int] = frozenset()
    data_moved_bytes: float = 0.0

    def wasted_fraction_per_worker(self) -> np.ndarray:
        """Fig 9/11 series: per-worker wasted-computation fraction."""
        return np.array([w.wasted_fraction for w in self.workers])

    def total_wasted_rows(self) -> float:
        """Cluster-wide wasted row computations this iteration."""
        return float(sum(w.wasted_rows for w in self.workers))

    def total_computed_rows(self) -> float:
        """Cluster-wide row computations (used + wasted)."""
        return float(sum(w.computed_rows for w in self.workers))


@dataclass
class BatchCodedOutcome:
    """Stacked outcomes of ``trials`` coded iterations (one row per trial).

    Per-trial values equal what :meth:`CodedIterationSim.run` returns for
    that trial's (plan, speeds) pair; ``contributions`` are not materialised
    (latency/waste sweeps never read them — use the scalar path when the
    numeric result is needed).
    """

    completion_time: np.ndarray  # (trials,)
    broadcast_time: float
    decode_time: np.ndarray  # (trials,)
    assigned_rows: np.ndarray  # (trials, workers)
    computed_rows: np.ndarray  # (trials, workers)
    used_rows: np.ndarray  # (trials, workers)
    responded: np.ndarray  # (trials, workers) bool
    repaired: np.ndarray  # (trials,) bool

    @property
    def n_trials(self) -> int:
        return self.completion_time.size

    def wasted_rows(self) -> np.ndarray:
        """Per-trial per-worker rows computed but never used."""
        return np.maximum(0.0, self.computed_rows - self.used_rows)


@dataclass(frozen=True)
class _PlanProfile:
    """Per-plan constants the batch path reuses across trials."""

    kind: str  # "full" | "exact" | "general"
    rows: np.ndarray  # (n,) assigned rows per worker
    chunk_counts: np.ndarray  # (n,) assigned chunks per worker
    decode_groups: int  # groups for decode_time on the natural path

    def chunks_of(self, plan: CodedWorkPlan) -> list[np.ndarray]:
        """Every worker's sorted chunk indices, expanded once per plan.

        One pass over the plan's range table (sorted by worker, then
        begin) instead of one range expansion per worker; shared by every
        repair-armed trial of the plan as the read-only inputs of
        :func:`repair_assignments`.
        """
        cached = self.__dict__.get("_chunks")
        if cached is None:
            table = plan.range_table
            owner, begin, end = table[np.lexsort((table[:, 1], table[:, 0]))].T
            lengths = end - begin
            starts = np.cumsum(lengths) - lengths
            flat = np.arange(int(lengths.sum())) + np.repeat(begin - starts, lengths)
            bounds = np.cumsum(self.chunk_counts).tolist()
            cached = [flat[a:b] for a, b in zip([0, *bounds], bounds)]
            object.__setattr__(self, "_chunks", cached)
        return cached


@dataclass(frozen=True)
class CodedIterationSim:
    """Simulate one iteration of coded computation under a work plan.

    Parameters
    ----------
    grid:
        Chunk→row geometry of the encoded partitions.
    width:
        Columns of the encoded matrix (per-row compute/communicate cost).
    width_out:
        Width of each result row (1 for mat-vec).
    network, cost:
        Cost models.
    timeout:
        §4.3 repair policy; ``None`` disables repair (conventional coded
        computation always waits for coverage).
    """

    grid: ChunkGrid
    width: int
    width_out: int = 1
    broadcast_width: int | None = None
    #: Fixed per-task flops paid once by every worker that computes at
    #: least one row, regardless of how many rows it was assigned.  Models
    #: row-count-independent task phases such as the ``diag(x) B̃ᵢ``
    #: scaling pass of the polynomial-coded Hessian (§7.2.3), which is why
    #: S2C2's gains there stay below the n/k bound.
    fixed_task_flops: float = 0.0
    network: NetworkModel = field(default_factory=NetworkModel)
    cost: CostModel = field(default_factory=CostModel)
    timeout: TimeoutPolicy | None = None

    @functools.cached_property
    def _broadcast_bytes(self) -> float:
        """Size of the broadcast operand every worker receives."""
        width = self.broadcast_width if self.broadcast_width is not None else self.width
        return width * self.cost.bytes_per_element

    @functools.cached_property
    def _broadcast_cost(self) -> float:
        """Broadcast transfer time, computed once per simulator instance.

        Every path (scalar and batched, closed and event backend) reports
        the same nominal broadcast cost, and it only depends on frozen
        fields — so it is cached on the instance instead of being
        recomputed per trial.  (``functools.cached_property`` writes the
        instance ``__dict__`` directly, which frozen dataclasses permit.)
        """
        return self.network.transfer_time(self._broadcast_bytes)

    def _arrival(self, rows: int, speed: float, start: float) -> float:
        """Absolute arrival time at the master of a ``rows``-row task.

        The event loop's dispatch → compute → reply chain on an idle,
        factor-1 link, float-op for float-op.
        """
        compute = self.cost.compute_time(rows, self.width, speed)
        fixed = self.fixed_task_flops / (self.cost.worker_flops * speed)
        reply = self.network.transfer_time(
            rows * self.cost.row_bytes(self.width_out)
        )
        return start + fixed + compute + reply

    def _progress_rows(
        self, speed: float, start: float, until: float, cap: int
    ) -> float:
        """Rows finished by ``until`` for a task started at ``start``."""
        fixed = self.fixed_task_flops / (self.cost.worker_flops * speed)
        done = self.cost.rows_computable(until - start - fixed, self.width, speed)
        return float(min(cap, max(0.0, done)))

    def run(
        self,
        plan: CodedWorkPlan,
        speeds: np.ndarray,
        failed_workers: frozenset[int] = frozenset(),
    ) -> CodedIterationOutcome:
        """Simulate the iteration and return the outcome.

        ``speeds`` are the *actual* speeds (the plan may have been built
        from different, predicted speeds — that gap is what the timeout
        mechanism repairs).  ``failed_workers`` never respond, regardless
        of speed.

        The discrete-event loop is the one scalar semantics: this hands
        the iteration to :class:`~repro.cluster.events.EventDrivenIterationSim`
        under the identity :class:`~repro.cluster.events.EventConfig` and
        unit link factors, where its timeline is exactly the closed form.
        """
        # Imported here: ``events.sim`` subclasses this module, and
        # ``repro.cluster`` must import without ``repro.cluster.events``.
        from repro.cluster.events.sim import EventDrivenIterationSim

        event = EventDrivenIterationSim(
            **{f.name: getattr(self, f.name) for f in fields(CodedIterationSim)}
        )
        return event.run(plan, speeds, failed_workers)

    # ------------------------------------------------------------------
    # Batched Monte-Carlo path
    # ------------------------------------------------------------------

    def _profiles(self, plans: list[CodedWorkPlan]) -> list[_PlanProfile]:
        """Classify distinct plans and precompute their per-worker row counts.

        All plans of one batch are profiled together from their stacked
        range tables: row and chunk totals are offset differences summed
        per ``(plan, worker)`` slot, "full" means exactly one ``(0, C)``
        range per worker, and "exact" is a per-plan difference-array
        coverage count equal to the plan's coverage on every chunk — a few
        array passes per batch instead of expanding 10k-chunk index arrays
        the way the event loop does.
        """
        n = plans[0].n_workers
        m = len(plans)
        tables = [p.range_table for p in plans]
        which = np.repeat(np.arange(m), [len(t) for t in tables])
        owner, begin, end = np.concatenate(tables).T
        num_chunks = np.array([p.num_chunks for p in plans], dtype=np.int64)
        coverage = np.array([p.coverage for p in plans], dtype=np.int64)
        offsets = self.grid.chunk_offsets()
        slot = which * n + owner
        # Exact in float64: row and chunk totals are far below 2**53.
        rows = np.bincount(
            slot, weights=offsets[end] - offsets[begin], minlength=m * n
        ).astype(np.int64).reshape(m, n)
        chunk_counts = np.bincount(
            slot, weights=end - begin, minlength=m * n
        ).astype(np.int64).reshape(m, n)
        off_full = (begin != 0) | (end != num_chunks[which])
        full = (np.bincount(which, minlength=m) == n) & (
            np.bincount(which, weights=off_full, minlength=m) == 0
        )
        width = int(num_chunks.max()) + 1
        marks = np.bincount(which * width + begin, minlength=m * width)
        marks -= np.bincount(which * width + end, minlength=m * width)
        covered = np.cumsum(marks.reshape(m, width), axis=1)[:, :-1]
        beyond = np.arange(width - 1) >= num_chunks[:, None]
        exact = np.all((covered == coverage[:, None]) | beyond, axis=1)
        kinds = np.where(full, "full", np.where(exact, "exact", "general"))
        groups = np.where(
            full, coverage, np.where(exact, np.count_nonzero(rows, axis=1), 0)
        )
        return [
            _PlanProfile(kind=kind, rows=r, chunk_counts=c, decode_groups=g)
            for kind, r, c, g in zip(
                kinds.tolist(), rows, chunk_counts, groups.tolist()
            )
        ]

    def _batch_deadlines(
        self, sorted_active: np.ndarray, coverages: np.ndarray
    ) -> np.ndarray:
        """Per-trial §4.3 deadlines (NaN where the timeout cannot arm).

        The event loop's arming rule per trial: the mean of the first
        ``min(k, finite)`` sorted arrivals.  Trials are grouped by that
        slice length and each group reduced with one ``np.mean(axis=1)``
        over a contiguous copy — the same per-row pairwise summation as
        the scalar ``np.mean`` on one slice, so the armed deadline is
        bit-identical to the scalar path.
        """
        deadlines = np.full(sorted_active.shape[0], np.nan)
        if self.timeout is None:
            return deadlines
        k = self.timeout.min_responses or coverages
        # Finite arrivals are a prefix of each sorted row (inf sorts last).
        take = np.minimum(k, np.isfinite(sorted_active).sum(axis=1))
        for m in np.unique(take[take > 0]).tolist():
            group = take == m
            deadlines[group] = self.timeout.deadline(
                np.mean(sorted_active[group, :m], axis=1)
            )
        return deadlines

    def _repair_batch_trial(
        self,
        plan: CodedWorkPlan,
        profile: _PlanProfile,
        speeds_t: np.ndarray,
        arrivals_t: np.ndarray,
        deadline: float,
        natural_done: float,
        failed: frozenset[int],
        broadcast: float,
        chunk_sizes: np.ndarray,
    ):
        """Resolve the §4.3 repair decision for one armed trial, natively.

        Mirrors the event loop's cutoff search, opportunistic acceptance
        and repaired-branch accounting on the kernel's arrival row and the
        plan profile's cached chunk geometry.  It applies only where the
        repair round is queue-free (unit links, zero encode cost,
        zero-byte requests): there every float operation (repair arrivals
        via :meth:`_arrival`, cancelled progress via :meth:`_progress_rows`,
        the greedy :func:`repair_assignments`) is the same value the
        event loop computes, without re-simulating the whole trial.

        Returns ``None`` when the master falls back to waiting for
        stragglers (no feasible reassignment, or the repair would finish
        after the natural completion — the opportunistic rule), else
        ``(finish, decode, computed, used, responded)`` per-trial arrays.
        """
        n = plan.n_workers
        rows = profile.rows
        active = (rows > 0).nonzero()[0]
        # Arrival order, ties to the lower worker; ``finished`` at a cutoff
        # is then a prefix of ``order``.
        ranked = np.argsort(arrivals_t[active], kind="stable")
        order = active[ranked].tolist()
        arrived = arrivals_t[active][ranked]
        idle_alive = [
            w for w in (profile.chunk_counts == 0).nonzero()[0].tolist()
            if w not in failed
        ]
        later_arrivals = arrived[(arrived > deadline) & (arrived < np.inf)]
        chunks_of = profile.chunks_of(plan)
        # Python floats: the scalar cost helpers below then run on plain
        # float arithmetic (the same IEEE operations, bit for bit).
        speed = speeds_t.tolist()
        for cutoff in [deadline, *later_arrivals.tolist()]:
            n_done = int(np.searchsorted(arrived, cutoff, side="right"))
            finished = {w: chunks_of[w] for w in order[:n_done]}
            for w in idle_alive:
                finished.setdefault(w, np.empty(0, dtype=np.int64))
            if n_done == len(order) or not finished:
                return None  # no laggards left, or nobody to repair with
            try:
                extra = repair_assignments(plan, finished, speeds_t)
            except ValueError:
                continue  # wait for the next response, then reconsider
            break
        else:
            return None
        extra_rows = {w: int(chunk_sizes[chunks].sum()) for w, chunks in extra.items()}
        dispatch = cutoff + self.network.latency  # reassignment message
        finish = max(
            [cutoff]
            + [self._arrival(cnt, speed[w], dispatch) for w, cnt in extra_rows.items()]
        )
        # Opportunistic repair: accept only when it beats the stragglers.
        if finish >= natural_done:
            return None

        # Every worker that arrived by the cutoff responded in full; the
        # laggards were cancelled at the deadline.
        computed = np.zeros(n)
        used = np.zeros(n, dtype=np.int64)
        responded = np.zeros(n, dtype=bool)
        arrived_ok = order[:n_done]
        computed[arrived_ok] = rows[arrived_ok]
        used[arrived_ok] = rows[arrived_ok]
        responded[arrived_ok] = True
        for w in order[n_done:]:
            if w not in failed:
                computed[w] = self._progress_rows(
                    speed[w], broadcast, deadline, int(rows[w])
                )
        for w, cnt in extra_rows.items():
            used[w] += cnt
            computed[w] = float(int(rows[w]) + cnt)
        decode = self.cost.decode_time(
            rows=self.grid.rows,
            coverage=plan.coverage,
            width_out=self.width_out,
            groups=max(1, len(finished)),
        )
        return finish, decode, computed, used, responded

    def run_batch(
        self,
        plans: CodedWorkPlan | Sequence[CodedWorkPlan],
        speeds: np.ndarray,
        failed_workers: frozenset[int] | Sequence[frozenset[int]] = frozenset(),
    ) -> BatchCodedOutcome:
        """Simulate one iteration for a whole batch of trials at once.

        Parameters
        ----------
        plans:
            One plan shared by every trial, or one plan per trial (plans
            built from per-trial predictions).  Duplicate plan *objects*
            are profiled once.
        speeds:
            ``(trials, workers)`` matrix of actual speeds.
        failed_workers:
            A single frozenset applied to every trial, or one per trial.

        Returns per-trial results exactly equal to looping
        :meth:`run` — full and exact-coverage plans take the closed-form
        kernel (see :meth:`_batch_kernel`), repair-armed trials included;
        only plans of any other shape replay through the scalar path.
        """
        speeds, trials, failed_list = _normalise_batch(speeds, failed_workers)
        plan_list = self._batch_plan_list(plans, trials, speeds.shape[1])
        with span("broadcast"):
            broadcast = self._broadcast_cost
        out, replay = self._batch_kernel(
            plan_list, speeds, failed_list, broadcast, self.network.bandwidth, True
        )
        self._replay(
            out, replay, lambda t: self.run(plan_list[t], speeds[t], failed_list[t])
        )
        return out

    def _batch_kernel(
        self, plan_list, speeds, failed_list, recv, reply_bandwidth, native
    ) -> tuple[BatchCodedOutcome, np.ndarray]:
        """The one batched coded-iteration timeline, shared by both backends.

        Per-worker link terms parameterise it: ``recv`` is when each
        worker holds the broadcast (the nominal broadcast cost, or a
        ``(trials, workers)`` matrix of link receipt times) and
        ``reply_bandwidth`` the bandwidth of each worker's reply link.  A
        result then arrives at ``((recv + fixed) + compute) + (latency +
        bytes / reply_bandwidth)`` — the scalar event handlers' float-op
        order term by term, so every value is bitwise the event loop's.
        ``native`` says, per trial (or for all), whether an armed §4.3
        repair may resolve on the arrival matrix; elsewhere armed trials,
        like every trial of a general plan, are left for replay.

        Returns the outcome, filled for every trial the kernel settled,
        and the mask of trials the caller must replay through its scalar
        ``run``.
        """
        n = speeds.shape[1]
        with span("plan"):
            profiles, rows_mat, kinds, coverages, failed_mask = self._profile_batch(
                plan_list, failed_list, n
            )
            active = rows_mat > 0
            full_rows = kinds == "full"
            exact_rows = kinds == "exact"
        with span("compute"):
            denom = self.cost.worker_flops * speeds
            fixed = self.fixed_task_flops / denom
            compute = (rows_mat * self.width * self.cost.flops_per_element) / denom
        with span("reply"):
            reply = self.network.latency + (
                rows_mat * self.cost.row_bytes(self.width_out)
            ) / reply_bandwidth
            arrivals = ((recv + fixed) + compute) + reply
            arrivals[failed_mask | ~active] = np.inf
            # Natural completion: the k-th response on full plans; exact
            # plans need every active worker, so a failed active worker's
            # inf arrival propagates through the max as "never completes".
            done = np.full(arrivals.shape[0], np.inf)
            sorted_arr = np.sort(arrivals, axis=1)
            if np.any(full_rows):
                done[full_rows] = sorted_arr[full_rows, coverages[full_rows] - 1]
            if np.any(exact_rows):
                masked = np.where(active[exact_rows], arrivals[exact_rows], -np.inf)
                done[exact_rows] = masked.max(axis=1)

        out = _empty_batch_outcome(rows_mat, self._broadcast_cost)
        with span("repair"):
            deadlines = self._batch_deadlines(sorted_arr, coverages)
            general = ~full_rows & ~exact_rows
            armed = ~general & ~np.isnan(deadlines) & (done > deadlines)
            armed_native = armed & native
            replay = general | (armed & ~armed_native)
            if np.any(armed_native):
                self._resolve_armed(
                    out, armed_native, plan_list, profiles, speeds, arrivals,
                    deadlines, done, failed_list,
                )

        # Natural settlement of every trial neither replayed nor repaired;
        # each worker's compute clock starts at its ``recv``.
        fast = ~replay & ~out.repaired
        if np.any(np.isinf(done) & fast):
            raise RuntimeError(
                "iteration cannot complete: coverage unsatisfiable with "
                "the surviving workers and no repair possible"
            )
        if np.any(fast):
            with span("decode"):
                resp = active & (arrivals <= done[:, None]) & fast[:, None]
                # Partial progress of cancelled stragglers (mirrors
                # _progress_rows term by term).
                per_row = (self.width * self.cost.flops_per_element) / denom
                elapsed = (done[:, None] - recv) - fixed
                progress = np.where(elapsed <= 0, 0.0, elapsed / per_row)
                progress = np.minimum(rows_mat, np.maximum(0.0, progress))
                computed_fast = np.where(
                    resp,
                    rows_mat.astype(np.float64),
                    np.where(failed_mask, 0.0, progress),
                )
                computed_fast[~active] = 0.0
                out.computed_rows[fast] = computed_fast[fast]
                out.responded[fast] = resp[fast]
                # Used rows: every active worker on exact plans; the first
                # ``coverage`` responses (stable arrival order) on full plans.
                exact_fast = exact_rows & fast
                if np.any(exact_fast):
                    out.used_rows[exact_fast] = np.where(
                        active[exact_fast], rows_mat[exact_fast], 0
                    )
                full_fast = full_rows & fast
                if np.any(full_fast):
                    order = np.argsort(arrivals[full_fast], axis=1, kind="stable")
                    rank = np.argsort(order, axis=1)
                    out.used_rows[full_fast] = np.where(
                        rank < coverages[full_fast, None], rows_mat[full_fast], 0
                    )
                # One decode_time call per distinct (coverage, groups) pair.
                groups = [max(1, profile.decode_groups) for profile in profiles]
                decode_of: dict[tuple[int, int], float] = {}
                for t in np.flatnonzero(fast).tolist():
                    key = (int(coverages[t]), groups[t])
                    if key not in decode_of:
                        decode_of[key] = self.cost.decode_time(
                            rows=self.grid.rows,
                            coverage=key[0],
                            width_out=self.width_out,
                            groups=key[1],
                        )
                    out.decode_time[t] = decode_of[key]
                out.completion_time[fast] = done[fast] + out.decode_time[fast]
        return out, replay

    @staticmethod
    def _replay(out: BatchCodedOutcome, replay: np.ndarray, run_one) -> None:
        """Write ``run_one(t)``'s scalar outcome into ``out`` for ``replay`` trials.

        A response counts only when it was accepted: a late response
        recorded during a rejected repair probe stays a cancellation.
        """
        if not np.any(replay):
            return
        with span("replay"):
            for t in np.flatnonzero(replay):
                outcome = run_one(t)
                out.completion_time[t] = outcome.completion_time
                out.decode_time[t] = outcome.decode_time
                out.repaired[t] = outcome.repaired
                stats = outcome.workers
                out.assigned_rows[t] = [s.assigned_rows for s in stats]
                out.computed_rows[t] = [s.computed_rows for s in stats]
                out.used_rows[t] = [s.used_rows for s in stats]
                out.responded[t] = [
                    s.response_time is not None and not s.cancelled for s in stats
                ]

    # Stages of the batched kernel.

    @staticmethod
    def _batch_plan_list(plans, trials: int, n: int) -> list[CodedWorkPlan]:
        """One plan per trial, validated against the batch's shape."""
        if isinstance(plans, CodedWorkPlan):
            plan_list = [plans] * trials
        else:
            plan_list = list(plans)
            if len(plan_list) != trials:
                raise ValueError(
                    f"got {len(plan_list)} plans for {trials} trials"
                )
        if any(p.n_workers != n for p in plan_list):
            raise ValueError("every plan must span the batch's worker count")
        return plan_list

    def _profile_batch(self, plan_list, failed_list, n: int):
        """Profile each distinct plan object once and stack the per-trial view.

        Returns ``(profiles, rows, kinds, coverages, failed_mask)``: each
        trial's (shared) plan profile, the ``(trials, workers)`` assigned
        rows, per-trial plan kinds and coverages, and the failure mask.
        """
        failed_mask = np.zeros((len(plan_list), n), dtype=bool)
        for t, failed in enumerate(failed_list):
            if failed:
                failed_mask[t, list(failed)] = True
        slots: dict[int, int] = {}
        distinct: list[CodedWorkPlan] = []
        for p in plan_list:
            if id(p) not in slots:
                slots[id(p)] = len(distinct)
                distinct.append(p)
        index = [slots[id(p)] for p in plan_list]
        unique = self._profiles(distinct)
        profiles = [unique[i] for i in index]
        rows = np.stack([profile.rows for profile in unique])[index]
        kinds = np.array([profile.kind for profile in unique])[index]
        coverages = np.array([p.coverage for p in plan_list], dtype=np.int64)
        return profiles, rows, kinds, coverages, failed_mask

    def _resolve_armed(
        self, out, armed, plan_list, profiles, speeds, arrivals, deadlines,
        done, failed_list,
    ) -> None:
        """Resolve every armed trial with :meth:`_repair_batch_trial` in place."""
        chunk_sizes = self.grid.chunk_sizes()
        for t in np.flatnonzero(armed):
            result = self._repair_batch_trial(
                plan_list[t],
                profiles[t],
                speeds[t],
                arrivals[t],
                float(deadlines[t]),
                float(done[t]),
                failed_list[t],
                out.broadcast_time,
                chunk_sizes,
            )
            if result is None:
                continue  # rejected: the trial completes naturally
            finish, decode_t, computed_t, used_t, responded_t = result
            out.repaired[t] = True
            out.completion_time[t] = finish + decode_t
            out.decode_time[t] = decode_t
            out.computed_rows[t] = computed_t
            out.used_rows[t] = used_t
            out.responded[t] = responded_t


def _empty_batch_outcome(rows_mat: np.ndarray, broadcast: float) -> BatchCodedOutcome:
    """A zeroed outcome for ``rows_mat``'s batch, filled in place by stage."""
    trials, n = rows_mat.shape
    return BatchCodedOutcome(
        completion_time=np.zeros(trials),
        broadcast_time=broadcast,
        decode_time=np.zeros(trials),
        assigned_rows=rows_mat.copy(),
        computed_rows=np.zeros((trials, n)),
        used_rows=np.zeros((trials, n), dtype=np.int64),
        responded=np.zeros((trials, n), dtype=bool),
        repaired=np.zeros(trials, dtype=bool),
    )


@dataclass
class UncodedIterationOutcome:
    """Result of simulating one uncoded (replication / over-decomp) iteration."""

    completion_time: float
    broadcast_time: float
    workers: list[WorkerIterationStats]
    partition_owner: dict[int, int]
    data_moved_bytes: float = 0.0
    speculative_launches: int = 0
    migrations: int = 0

    def wasted_fraction_per_worker(self) -> np.ndarray:
        """Per-worker wasted-computation fraction (duplicated task copies)."""
        return np.array([w.wasted_fraction for w in self.workers])


@dataclass
class BatchUncodedOutcome:
    """Stacked outcomes of ``trials`` uncoded iterations (one row per trial).

    Per-trial values equal what the scalar ``run`` returns for that trial's
    (plan, speeds) pair; the ``partition_owner`` map is not materialised
    (latency/waste sweeps never read it — use the scalar path when the
    ownership detail is needed).
    """

    completion_time: np.ndarray  # (trials,)
    broadcast_time: float
    assigned_rows: np.ndarray  # (trials, workers)
    computed_rows: np.ndarray  # (trials, workers)
    used_rows: np.ndarray  # (trials, workers)
    responded: np.ndarray  # (trials, workers) bool
    data_moved_bytes: np.ndarray  # (trials,)
    migrations: np.ndarray  # (trials,)

    @property
    def n_trials(self) -> int:
        return self.completion_time.size


@dataclass(frozen=True)
class ReplicationIterationSim:
    """Uncoded r-replication with speculative re-execution (§7.1 baseline).

    Every worker computes its primary partition.  When ``watch_fraction``
    of the tasks have completed, the master speculatively relaunches the
    still-running tasks on idle (already finished) workers — preferring
    replica holders, paying a partition transfer otherwise — up to
    ``max_speculative`` launches.  A task finishes when its fastest copy
    does; the other copy's work is wasted.
    """

    placement: ReplicaPlacement
    config: SpeculationConfig
    rows_per_partition: int
    width: int
    width_out: int = 1
    network: NetworkModel = field(default_factory=NetworkModel)
    cost: CostModel = field(default_factory=CostModel)

    def _arrival(self, rows: int, speed: float, start: float) -> float:
        compute = self.cost.compute_time(rows, self.width, speed)
        reply = self.network.transfer_time(rows * self.cost.row_bytes(self.width_out))
        return start + compute + reply

    def _primary_arrivals(
        self, speeds: np.ndarray, failed: Sequence[frozenset[int]]
    ) -> np.ndarray:
        """Vectorized primary-task arrivals for a ``(trials, n)`` batch.

        Term-by-term mirror of :meth:`_arrival`, so per-trial rows are
        bit-identical to the scalar computation.
        """
        rows = self.rows_per_partition
        broadcast = self.network.transfer_time(self.width * self.cost.bytes_per_element)
        compute = (rows * self.width * self.cost.flops_per_element) / (
            self.cost.worker_flops * speeds
        )
        reply = self.network.transfer_time(rows * self.cost.row_bytes(self.width_out))
        arrivals = (broadcast + compute) + reply
        for t, failed_set in enumerate(failed):
            if failed_set:
                arrivals[t, list(failed_set)] = np.inf
        return arrivals

    def run(
        self,
        speeds: np.ndarray,
        failed_workers: frozenset[int] = frozenset(),
    ) -> UncodedIterationOutcome:
        """Simulate one iteration; every partition must produce one result."""
        n = self.placement.n_workers
        speeds = np.asarray(speeds, dtype=np.float64)
        if speeds.shape != (n,):
            raise ValueError(f"speeds must have shape ({n},), got {speeds.shape}")
        if np.any(speeds <= 0):
            raise ValueError("speeds must be positive; use failed_workers")
        _check_failed(failed_workers, n)
        primary = self._primary_arrivals(speeds[None, :], [failed_workers])[0]
        return self._complete(speeds, primary, failed_workers)

    def run_batch(
        self,
        speeds: np.ndarray,
        failed_workers: frozenset[int] | Sequence[frozenset[int]] = frozenset(),
    ) -> list[UncodedIterationOutcome]:
        """Simulate a ``(trials, n)`` batch; one outcome per trial.

        Arrivals are computed for the whole batch at once; the speculation
        decisions (inherently sequential: a bounded number of relaunches on
        whichever workers happen to be idle) are resolved per trial by the
        same code the scalar path uses.
        """
        speeds, trials, failed_list = _normalise_batch(
            speeds, failed_workers, n_workers=self.placement.n_workers
        )
        arrivals = self._primary_arrivals(speeds, failed_list)
        return [
            self._complete(speeds[t], arrivals[t], failed_list[t])
            for t in range(trials)
        ]

    def _complete(
        self,
        speeds: np.ndarray,
        primary_arrival: np.ndarray,
        failed_workers: frozenset[int],
    ) -> UncodedIterationOutcome:
        """Resolve speculation and accounting for one trial."""
        n = self.placement.n_workers
        rows = self.rows_per_partition
        broadcast = self.network.transfer_time(self.width * self.cost.bytes_per_element)
        stats = [WorkerIterationStats(worker=w, assigned_rows=rows) for w in range(n)]
        finite = np.sort(primary_arrival[np.isfinite(primary_arrival)])
        watch_count = max(1, int(np.ceil(self.config.watch_fraction * n)))
        if finite.size >= watch_count:
            watch_time = float(finite[watch_count - 1])
        else:
            watch_time = float(finite[-1]) if finite.size else broadcast

        # Speculation: relaunch the laggard tasks on idle finished workers.
        laggards = [
            p for p in range(n) if primary_arrival[p] > watch_time
        ]
        laggards.sort(key=lambda p: -primary_arrival[p])  # slowest first
        idle = [
            w
            for w in range(n)
            if primary_arrival[w] <= watch_time and w not in failed_workers
        ]
        idle.sort(key=lambda w: -speeds[w])  # fastest first
        spec_tasks: dict[int, tuple[int, float, float]] = {}  # p -> (holder, start, arrival)
        data_moved = 0.0
        launches = 0
        partition_bytes = rows * self.cost.row_bytes(self.width)
        for p in laggards:
            if launches >= self.config.max_speculative or not idle:
                break
            # Prefer an idle replica holder; otherwise move the data (if the
            # policy allows it — strict-locality Hadoop does not).
            holder = next(
                (w for w in idle if self.placement.has_copy(w, p)), None
            )
            start = watch_time + self.network.latency
            if holder is None:
                if not self.config.allow_data_movement:
                    continue
                holder = idle[0]
                start += self.network.transfer_time(partition_bytes)
                data_moved += partition_bytes
            idle.remove(holder)
            spec_tasks[p] = (holder, start, self._arrival(rows, speeds[holder], start))
            launches += 1

        owner: dict[int, int] = {}
        completion = 0.0
        for p in range(n):
            candidates = [(primary_arrival[p], p)]
            if p in spec_tasks:
                holder, _start, t = spec_tasks[p]
                candidates.append((t, holder))
            t_done, who = min(candidates)
            if t_done == np.inf:
                raise RuntimeError(
                    f"partition {p} cannot complete: primary failed and no "
                    "speculative copy was launched"
                )
            owner[p] = who
            completion = max(completion, t_done)

        # Accounting. Primary copies: full if arrived before completion,
        # partial otherwise (cancelled at iteration end).
        for w in range(n):
            if w in failed_workers:
                stats[w].computed_rows = 0.0
                stats[w].cancelled = True
                continue
            if primary_arrival[w] <= completion:
                stats[w].computed_rows = float(rows)
                stats[w].response_time = float(primary_arrival[w])
            else:
                elapsed = completion - broadcast
                stats[w].computed_rows = float(
                    min(rows, self.cost.rows_computable(elapsed, self.width, speeds[w]))
                )
                stats[w].cancelled = True
        for p, (holder, start, arrival) in spec_tasks.items():
            # The speculative copy also computed (fully if it beat the end,
            # partially if it was cancelled when the primary finished first).
            if arrival <= completion:
                done = float(rows)
            else:
                done = min(
                    float(rows),
                    self.cost.rows_computable(
                        completion - start, self.width, speeds[holder]
                    ),
                )
            stats[holder].computed_rows += max(0.0, done)
        for p, w in owner.items():
            stats[w].used_rows += rows
        return UncodedIterationOutcome(
            completion_time=completion,
            broadcast_time=broadcast,
            workers=stats,
            partition_owner=owner,
            data_moved_bytes=data_moved,
            speculative_launches=launches,
        )


@dataclass(frozen=True)
class OverDecompositionIterationSim:
    """Charm++-like over-decomposition with migration (§7.2 baseline).

    The per-iteration plan (built by
    :class:`~repro.scheduling.overdecomposition.OverDecompositionPlacement`
    from *predicted* speeds) assigns each partition to one worker; migrated
    partitions are fetched over the worker's link before it starts
    computing.  Completion is the slowest worker's finish — mis-predicted
    speeds directly inflate it, which is why this baseline trails S2C2 in
    the high-churn environment (Fig 10).
    """

    rows_per_partition: int
    width: int
    width_out: int = 1
    network: NetworkModel = field(default_factory=NetworkModel)
    cost: CostModel = field(default_factory=CostModel)

    def run(
        self,
        plan: OverDecompositionPlan,
        speeds: np.ndarray,
        failed_workers: frozenset[int] = frozenset(),
    ) -> UncodedIterationOutcome:
        """Simulate one iteration of the over-decomposition strategy."""
        speeds = np.asarray(speeds, dtype=np.float64)
        n = speeds.size
        if np.any(speeds <= 0):
            raise ValueError("speeds must be positive; use failed_workers")
        _check_failed(failed_workers, n)
        if failed_workers & set(np.unique(plan.owner).tolist()):
            raise RuntimeError(
                "a failed worker owns partitions; over-decomposition has no "
                "repair path within an iteration"
            )
        rows = self.rows_per_partition
        broadcast = self.network.transfer_time(self.width * self.cost.bytes_per_element)
        partition_bytes = rows * self.cost.row_bytes(self.width)
        stats = [WorkerIterationStats(worker=w) for w in range(n)]
        owner: dict[int, int] = {}
        completion = 0.0
        data_moved = 0.0
        for w in range(n):
            mine = plan.partitions_of(w)
            if mine.size == 0:
                continue
            migrations = int(plan.migrated[mine].sum())
            fetch = sum(
                self.network.transfer_time(partition_bytes)
                for _ in range(migrations)
            )
            data_moved += migrations * partition_bytes
            total_rows = int(rows * mine.size)
            stats[w].assigned_rows = total_rows
            compute = self.cost.compute_time(total_rows, self.width, speeds[w])
            reply = self.network.transfer_time(
                total_rows * self.cost.row_bytes(self.width_out)
            )
            arrival = broadcast + fetch + compute + reply
            stats[w].computed_rows = float(total_rows)
            stats[w].used_rows = total_rows
            stats[w].response_time = arrival
            completion = max(completion, arrival)
            for p in mine:
                owner[int(p)] = w
        return UncodedIterationOutcome(
            completion_time=completion,
            broadcast_time=broadcast,
            workers=stats,
            partition_owner=owner,
            data_moved_bytes=data_moved,
            migrations=int(plan.migrated.sum()),
        )

    def run_batch(
        self,
        plans: OverDecompositionPlan | Sequence[OverDecompositionPlan],
        speeds: np.ndarray,
        failed_workers: frozenset[int] | Sequence[frozenset[int]] = frozenset(),
    ) -> BatchUncodedOutcome:
        """Simulate a ``(trials, workers)`` batch of over-decomposition trials.

        ``plans`` is one plan shared by every trial or one per trial
        (long-running sessions re-plan each iteration as copies migrate,
        so the per-trial form is the common one).  The per-worker chunk
        timelines — migration fetches, compute, reply — are evaluated with
        stacked arrays across all trials, mirroring :meth:`run` float-op
        for float-op: per-trial results are bitwise-equal to a scalar loop.
        """
        speeds, trials, failed_list = _normalise_batch(speeds, failed_workers)
        n = speeds.shape[1]
        if isinstance(plans, OverDecompositionPlan):
            plan_list: list[OverDecompositionPlan] = [plans] * trials
        else:
            plan_list = list(plans)
            if len(plan_list) != trials:
                raise ValueError(
                    f"got {len(plan_list)} plans for {trials} trials"
                )

        # Per-distinct-plan constants (duplicate plan objects profiled once):
        # partition and migration counts per worker, plus the owner set for
        # the failure check.
        profiles: dict[int, tuple[np.ndarray, np.ndarray, frozenset[int]]] = {}
        for p in plan_list:
            if id(p) not in profiles:
                owner = np.asarray(p.owner)
                if owner.size and (owner.min() < 0 or owner.max() >= n):
                    raise ValueError("plan owner index out of range for batch")
                counts = np.bincount(owner, minlength=n).astype(np.int64)
                migr = np.bincount(
                    owner[np.asarray(p.migrated, dtype=bool)], minlength=n
                ).astype(np.int64)
                profiles[id(p)] = (counts, migr, frozenset(np.unique(owner).tolist()))
        for t, failed in enumerate(failed_list):
            if failed & profiles[id(plan_list[t])][2]:
                raise RuntimeError(
                    "a failed worker owns partitions; over-decomposition has "
                    "no repair path within an iteration"
                )

        counts_mat = np.stack([profiles[id(p)][0] for p in plan_list])
        migr_mat = np.stack([profiles[id(p)][1] for p in plan_list])
        active = counts_mat > 0
        rows_mat = self.rows_per_partition * counts_mat

        broadcast = self.network.transfer_time(
            self.width * self.cost.bytes_per_element
        )
        partition_bytes = self.rows_per_partition * self.cost.row_bytes(self.width)
        # The scalar path charges each migration fetch as a separate
        # left-to-right float addition; a cumulative table replays that
        # exact rounding sequence for every possible migration count.
        max_migr = int(migr_mat.max()) if migr_mat.size else 0
        fetch_table = np.concatenate(
            [
                [0.0],
                np.cumsum(
                    np.full(max_migr, self.network.transfer_time(partition_bytes))
                ),
            ]
        )
        fetch = fetch_table[migr_mat]
        # Compute and reply mirror CostModel.compute_time / transfer_time
        # term by term so batched arrivals are bit-identical.
        compute = (rows_mat * self.width * self.cost.flops_per_element) / (
            self.cost.worker_flops * speeds
        )
        reply = self.network.latency + (
            rows_mat * self.cost.row_bytes(self.width_out)
        ) / self.network.bandwidth
        arrival = ((broadcast + fetch) + compute) + reply

        completion = np.max(arrival, axis=1, initial=0.0, where=active)
        # Scalar accumulation order: workers ascending, one addition each.
        data_moved = np.zeros(trials)
        for w in range(n):
            data_moved = data_moved + migr_mat[:, w] * partition_bytes
        migrations = np.array(
            [int(np.asarray(p.migrated).sum()) for p in plan_list], dtype=np.int64
        )
        return BatchUncodedOutcome(
            completion_time=completion,
            broadcast_time=broadcast,
            assigned_rows=np.where(active, rows_mat, 0),
            computed_rows=np.where(active, rows_mat, 0).astype(np.float64),
            used_rows=np.where(active, rows_mat, 0),
            responded=active,
            data_moved_bytes=data_moved,
            migrations=migrations,
        )
