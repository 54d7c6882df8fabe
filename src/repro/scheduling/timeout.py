"""Mis-prediction / failure repair via timeout reassignment (paper §4.3).

S2C2 plans have *exact* coverage, so a single worker dying or drastically
slowing leaves some chunks undecodable.  The paper's mechanism: once the
first ``k`` workers have returned, the master measures their average
response time; if the remaining workers do not respond within
``(1 + slack)`` × that average (slack = 15%, chosen to match the speed
predictor's ~16.7% MAPE), their pending chunks are cancelled and reassigned
among the workers that already finished.

This module holds the *planning* half (which chunks go where); the timing
half (when the timeout fires, how long repairs take) lives in
:mod:`repro.cluster.simulator`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.scheduling.base import CodedWorkPlan

__all__ = ["TimeoutPolicy", "repair_assignments"]


@dataclass(frozen=True)
class TimeoutPolicy:
    """Configuration of the §4.3 timeout mechanism.

    Attributes
    ----------
    slack:
        Fractional slack over the average completed-response time before
        laggards are declared failed (paper: 0.15).
    min_responses:
        How many full responses must arrive before the timeout arms;
        ``None`` means the code's coverage ``k`` (the paper's choice).
    max_rounds:
        Validated (``>= 1``) but read by no simulator.  A timeout issues
        exactly one repair round, at the first cutoff — the deadline or a
        later response — where reassigning among the finished (and idle)
        workers restores coverage.
    """

    slack: float = 0.15
    min_responses: int | None = None
    max_rounds: int = 3

    def __post_init__(self) -> None:
        if self.slack < 0:
            raise ValueError("slack must be >= 0")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if self.min_responses is not None and self.min_responses < 1:
            raise ValueError("min_responses must be >= 1 when given")

    def deadline(self, mean_response_time: float) -> float:
        """Absolute response-time deadline for the remaining workers."""
        return (1.0 + self.slack) * mean_response_time


def repair_assignments(
    plan: CodedWorkPlan,
    completed: dict[int, np.ndarray],
    speeds: np.ndarray,
) -> dict[int, np.ndarray]:
    """Reassign undecodable chunks among the workers that finished.

    Parameters
    ----------
    plan:
        The original coded work plan (defines ``coverage``).
    completed:
        Mapping of finished worker → chunk indices it already contributed.
        These are the only workers eligible for extra work, and a worker is
        never asked to recompute a chunk it already sent (its contribution
        for that chunk would be linearly dependent — useless for decoding).
    speeds:
        Observed speeds used to balance the extra load (higher speed →
        proportionally more of the repair work).

    Returns
    -------
    Mapping of worker → extra chunk indices (only workers that receive new
    work appear).  Appending these contributions to ``completed`` makes
    every chunk meet ``plan.coverage``.

    Raises
    ------
    ValueError
        If some chunk cannot reach coverage even using every finished
        worker — the iteration is unrecoverable without the cancelled
        workers (the caller then waits for stragglers instead).
    """
    speeds = np.asarray(speeds, dtype=np.float64)
    coverage = plan.coverage
    workers = sorted(completed)
    held = [np.asarray(completed[w], dtype=np.int64) for w in workers]
    flat = np.concatenate(held) if held else np.empty(0, dtype=np.int64)
    deficit = coverage - np.bincount(flat, minlength=plan.num_chunks)
    needy = (deficit > 0).nonzero()[0]
    if needy.size == 0:
        return {}
    if not workers:
        raise ValueError("no completed workers to repair with")
    # holds[i, j]: worker ``workers[i]`` already contributed needy chunk j.
    # Chunk c can gain at most one contribution per finished worker not
    # already holding it, so feasibility is one reduction over the matrix.
    holds = np.zeros((len(workers), plan.num_chunks), dtype=bool)
    holds[np.repeat(np.arange(len(workers)), [a.size for a in held]), flat] = True
    holds = holds[:, needy]
    need = deficit[needy]
    eligible = len(workers) - holds.sum(axis=0)
    short = (eligible < need).nonzero()[0]
    if short.size:
        j = short[0]
        raise ValueError(
            f"chunk {int(needy[j])} needs {int(need[j])} more "
            f"contributions but only {int(eligible[j])} finished workers can help"
        )
    # Greedy balanced assignment: per chunk (ascending), pick the eligible
    # workers with the smallest (load + 1) / speed, ties to the lower
    # worker — i.e. keep estimated finish times of the repair work level
    # across workers.  ``key`` caches each worker's current (load + 1) /
    # speed.  Consecutive needy chunks usually share one holder pattern
    # and deficit, so the chunks are walked in such runs, each with its
    # eligible list built once; when a run's deficit takes every eligible
    # worker (always so when exactly ``coverage`` workers finished), the
    # keys cannot change the pick and the whole run is handed out at once.
    rate = np.maximum(speeds[workers], 1e-12).tolist()
    key = [1.0 / r for r in rate]
    extra: list[list[int]] = [[] for _ in workers]
    changed = (holds[:, 1:] != holds[:, :-1]).any(axis=0) | (need[1:] != need[:-1])
    bounds = [0, *(changed.nonzero()[0] + 1).tolist(), needy.size]
    chunks, deficits = needy.tolist(), need.tolist()
    patterns = holds[:, bounds[:-1]].T.tolist()
    for lo, hi, pattern in zip(bounds, bounds[1:], patterns):
        eligible_idx = [i for i, h in enumerate(pattern) if not h]
        d = deficits[lo]
        if d == len(eligible_idx):
            for i in eligible_idx:
                extra[i] += chunks[lo:hi]
                key[i] = (len(extra[i]) + 1.0) / rate[i]
            continue
        for chunk in chunks[lo:hi]:
            if d == 1:
                picked = [min(eligible_idx, key=key.__getitem__)]
            else:
                picked = sorted(eligible_idx, key=key.__getitem__)[:d]
            for i in picked:
                extra[i].append(chunk)
                key[i] = (len(extra[i]) + 1.0) / rate[i]
    return {
        w: np.asarray(chunks, dtype=np.int64)
        for w, chunks in zip(workers, extra)
        if chunks
    }
