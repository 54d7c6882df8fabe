"""S2C2 work allocation: the paper's basic (§4.1) and general (§4.2) forms.

Both strategies take the conservatively-encoded (n, k) data *as stored* and
shrink the amount of each partition actually computed so that every chunk is
covered by **exactly** ``k`` workers — the minimum for decodability — with
per-worker shares proportional to predicted speeds.

The chunk-allocation core (:func:`allocate_chunks`) implements the paper's
Algorithm 1 in an order-independent form:

1. over-decompose each partition into ``C`` chunks;
2. the decodable total is ``k · C`` chunk-computations, shared among the
   workers with positive speed;
3. water-fill the per-worker cap: every worker whose proportional share
   ``uᵢ / Σ uⱼ × remaining`` reaches ``C`` is pinned at ``C`` (a worker
   cannot compute more than its whole partition), and the rest re-share
   what remains, until no share reaches the cap;
4. floor the remaining proportional shares, then hand out the rounding
   shortfall one chunk at a time to the worker whose finish time
   ``(countᵢ + 1) / uᵢ`` would grow least, ties to the lower worker.
   Each worker's successive candidates ``(⌊shareᵢ⌋ + j) / uᵢ`` increase
   with ``j``, so this greedy is a k-way merge: the shortfall goes to the
   first candidates in stable ``(time, worker)`` order, with candidates
   past the cap ``C`` dropped — one sort per call;
5. lay the shares out consecutively around the ``C``-chunk circle
   (:func:`wraparound_plan`, largest share first), which covers every
   chunk exactly ``k`` times because every share is ≤ ``C``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import check_positive_int
from repro.scheduling.base import (
    ChunkAssignment,
    CodedWorkPlan,
    as_speed_matrix,
    full_plan,
    plan_unique_rows,
)

__all__ = [
    "allocate_chunks",
    "wraparound_plan",
    "GeneralS2C2Scheduler",
    "BasicS2C2Scheduler",
]


def allocate_chunks(
    speeds: np.ndarray, coverage: int, num_chunks: int
) -> np.ndarray:
    """Algorithm 1's allocation step: per-worker chunk counts.

    Parameters
    ----------
    speeds:
        Predicted per-worker speeds; non-positive entries mark workers to
        skip entirely (dead or full stragglers).
    coverage:
        Required per-chunk coverage ``k``.
    num_chunks:
        Chunks per partition ``C`` (each worker's cap).

    Returns
    -------
    ``(n,)`` int array summing to ``coverage * num_chunks`` with every entry
    in ``[0, num_chunks]``.

    Raises
    ------
    ValueError
        If fewer than ``coverage`` workers have positive speed — the demand
        ``k·C`` cannot be met under the per-worker cap ``C``.  Callers fall
        back to :func:`~repro.scheduling.base.full_plan` (paper §4.4).
    """
    speeds = np.asarray(speeds, dtype=np.float64)
    if speeds.ndim != 1:
        raise ValueError("speeds must be 1-D")
    check_positive_int(coverage, "coverage")
    check_positive_int(num_chunks, "num_chunks")
    alive = speeds > 0
    n_alive = int(np.count_nonzero(alive))
    if n_alive < coverage:
        raise ValueError(
            f"only {n_alive} workers have positive speed; "
            f"coverage {coverage} is infeasible under the per-worker cap"
        )
    total = coverage * num_chunks
    counts = np.zeros(speeds.size, dtype=np.int64)
    # Water-fill the per-worker cap: workers whose proportional share
    # exceeds a full partition are pinned at C and their excess re-spreads
    # over the rest (the paper's "re-assigns these extra chunks to next
    # worker" step, order-independently).
    active = alive.nonzero()[0]
    remaining = total
    while True:
        rates = speeds[active]
        share = rates / float(rates.sum()) * remaining
        capped = share >= num_chunks
        n_capped = int(np.count_nonzero(capped))
        if not n_capped:
            break
        counts[active[capped]] = num_chunks
        remaining -= num_chunks * n_capped
        active = active[~capped]
        if not active.size:
            break
    if remaining > 0:
        # Integerise the proportional shares: floor, then hand out the
        # rounding shortfall one chunk at a time to whichever worker's
        # finish time (count+1)/speed grows least, ties to the lower
        # worker.  Plain largest-remainder rounding can give the extra
        # chunk to the *slowest* worker, whose finish time then dominates
        # the whole iteration at coarse granularities.  Each worker's
        # candidate finish times (floor+1)/s, (floor+2)/s, … increase, so
        # that one-at-a-time greedy is a k-way merge: the first
        # ``shortfall`` candidates in stable (time, worker) order, with
        # candidates beyond the cap C dropped.
        floors = np.floor(share).astype(np.int64)
        counts[active] = floors
        shortfall = remaining - int(floors.sum())
        if shortfall:
            after = floors[:, None] + np.arange(1, shortfall + 1)
            open_ = after <= num_chunks
            finish = (after / rates[:, None])[open_]
            owner = np.nonzero(open_)[0]
            picked = owner[np.argsort(finish, kind="stable")[:shortfall]]
            counts[active] += np.bincount(picked, minlength=active.size)
    if counts.sum() != total or counts.max(initial=0) > num_chunks:
        raise AssertionError("allocation failed to converge")  # pragma: no cover
    return counts


def wraparound_plan(
    counts: np.ndarray, coverage: int, num_chunks: int
) -> CodedWorkPlan:
    """Lay out per-worker chunk counts consecutively around the chunk circle.

    Workers are traversed in descending ``counts`` order, ties to the lower
    worker; each receives the next ``counts[w]`` chunks modulo
    ``num_chunks``, so an arc that runs past the last chunk wraps to chunk
    0 as a second range.  Because ``counts`` sums to ``coverage · num_chunks``
    and every count is ≤ ``num_chunks``, the resulting plan covers every
    chunk exactly ``coverage`` times.
    """
    counts = np.asarray(counts, dtype=np.int64)
    n = counts.size
    if counts.sum() != coverage * num_chunks:
        raise ValueError(
            f"counts sum {counts.sum()} != coverage*num_chunks "
            f"{coverage * num_chunks}"
        )
    if counts.max(initial=0) > num_chunks:
        raise ValueError("a worker count exceeds num_chunks")
    order = np.argsort(-counts, kind="stable")
    shares = counts[order]
    begins = ((np.cumsum(shares) - shares) % num_chunks).tolist()
    ranges_per_worker: list[tuple[tuple[int, int], ...]] = [()] * n
    for worker, share, begin in zip(order.tolist(), shares.tolist(), begins):
        if share == 0:
            continue
        end = begin + share
        if end <= num_chunks:
            ranges_per_worker[worker] = ((begin, end),)
        else:
            ranges_per_worker[worker] = ((begin, num_chunks), (0, end - num_chunks))
    assignments = tuple(
        ChunkAssignment(worker=w, ranges=ranges_per_worker[w]) for w in range(n)
    )
    return CodedWorkPlan(
        n_workers=n,
        num_chunks=num_chunks,
        coverage=coverage,
        assignments=assignments,
    )


@dataclass(frozen=True)
class GeneralS2C2Scheduler:
    """General S2C2 (paper Algorithm 1): speed-proportional slack squeeze.

    Parameters
    ----------
    coverage:
        The code's recovery threshold (``k`` for MDS, ``a·b`` for
        polynomial codes).
    num_chunks:
        Over-decomposition granularity ``C`` (chunks per partition).  The
        paper sets ``C ≈ Σ uᵢ``; any value ≥ a few × ``n`` works — see the
        chunk-granularity ablation.
    straggler_speed_floor:
        Speeds below this fraction of the *median* alive speed are treated
        as zero (full stragglers get no work; the code's redundancy absorbs
        them).  Set to 0 to always assign proportionally.
    """

    coverage: int
    num_chunks: int = 60
    straggler_speed_floor: float = 0.0

    def __post_init__(self) -> None:
        check_positive_int(self.coverage, "coverage")
        check_positive_int(self.num_chunks, "num_chunks")
        if self.straggler_speed_floor < 0:
            raise ValueError("straggler_speed_floor must be >= 0")

    def plan(self, speeds: np.ndarray) -> CodedWorkPlan:
        """Build the per-iteration plan from predicted speeds.

        Falls back to the conventional full plan when fewer than
        ``coverage`` workers look alive (robustness guarantee, §4.4).
        """
        speeds = np.asarray(speeds, dtype=np.float64).copy()
        if self.straggler_speed_floor > 0:
            alive = speeds[speeds > 0]
            if alive.size:
                floor = self.straggler_speed_floor * float(np.median(alive))
                speeds[speeds < floor] = 0.0
        try:
            counts = allocate_chunks(speeds, self.coverage, self.num_chunks)
        except ValueError:
            return full_plan(speeds.size, self.num_chunks, self.coverage)
        return wraparound_plan(counts, self.coverage, self.num_chunks)


@dataclass(frozen=True)
class BasicS2C2Scheduler:
    """Basic S2C2 (paper §4.1): binary fast/straggler classification.

    All non-straggler workers are treated as equally fast, so each of the
    ``s`` fast workers computes ``k·C/s`` chunks — the ``D/s`` rows of the
    paper.  A worker is a straggler when its speed is below
    ``straggler_threshold`` × the fastest predicted speed (the paper's
    controlled cluster defines stragglers as ≥5× slower, i.e. a threshold
    of 0.2 with a little margin).
    """

    coverage: int
    num_chunks: int = 60
    straggler_threshold: float = 0.5

    def __post_init__(self) -> None:
        check_positive_int(self.coverage, "coverage")
        check_positive_int(self.num_chunks, "num_chunks")
        if not 0 < self.straggler_threshold <= 1:
            raise ValueError("straggler_threshold must be in (0, 1]")

    def plan(self, speeds: np.ndarray) -> CodedWorkPlan:
        """Classify stragglers, then split work equally among the fast set."""
        speeds = np.asarray(speeds, dtype=np.float64)
        return self._plan_binary(self._classify(speeds))

    def plan_batch(self, speeds: np.ndarray) -> list[CodedWorkPlan]:
        """Per-trial plans, deduplicated on the binary classification.

        Distinct speed rows usually collapse to the same fast/straggler
        pattern, so a Monte-Carlo batch typically needs only a handful of
        distinct plans — which the batched simulator then profiles once
        each.
        """
        speeds = as_speed_matrix(speeds)
        return plan_unique_rows(self._classify(speeds), self._plan_binary)

    def _classify(self, speeds: np.ndarray) -> np.ndarray:
        """1.0 for fast workers, 0.0 for stragglers, row by row.

        Works on one speed vector or a ``(trials, workers)`` matrix: each
        row's threshold is scaled by that row's own fastest speed.
        """
        fastest = speeds.max(axis=-1, initial=0.0, keepdims=True)
        return (speeds >= self.straggler_threshold * fastest).astype(np.float64)

    def _plan_binary(self, binary: np.ndarray) -> CodedWorkPlan:
        try:
            counts = allocate_chunks(binary, self.coverage, self.num_chunks)
        except ValueError:
            return full_plan(binary.size, self.num_chunks, self.coverage)
        return wraparound_plan(counts, self.coverage, self.num_chunks)
