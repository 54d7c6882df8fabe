"""Scalar reference implementations pinned against the array-native code.

These are the original per-chunk / per-worker loop forms of the §4.3
repair greedy, Algorithm 1's allocation step, the §4.3 deadline rule and
basic S2C2's straggler classification, kept verbatim as independent
oracles: the production versions in :mod:`repro.scheduling` and
:mod:`repro.cluster.simulator` must reproduce them bit for bit (values,
dtypes, dict key order and error messages).
"""

from __future__ import annotations

import numpy as np

from repro._util import check_positive_int
from repro.scheduling.base import CodedWorkPlan
from repro.scheduling.timeout import TimeoutPolicy


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
    have = np.zeros(plan.num_chunks, dtype=np.int64)
    holders: dict[int, set[int]] = {}
    for worker, chunks in completed.items():
        chunk_arr = np.asarray(chunks, dtype=np.int64)
        holders[worker] = set(int(c) for c in chunk_arr)
        np.add.at(have, chunk_arr, 1)
    deficit = coverage - have
    needy = np.flatnonzero(deficit > 0)
    if needy.size == 0:
        return {}
    workers = sorted(completed)
    if not workers:
        raise ValueError("no completed workers to repair with")
    # Feasibility: chunk c can gain at most one contribution per finished
    # worker not already holding it.
    for chunk in needy:
        eligible = sum(1 for w in workers if chunk not in holders[w])
        if eligible < deficit[chunk]:
            raise ValueError(
                f"chunk {int(chunk)} needs {int(deficit[chunk])} more "
                f"contributions but only {eligible} finished workers can help"
            )
    # Greedy balanced assignment: per chunk, pick the eligible workers with
    # the smallest (load + 1) / speed — i.e. keep estimated finish times of
    # the repair work level across workers.
    load = {w: 0.0 for w in workers}
    extra: dict[int, list[int]] = {w: [] for w in workers}
    for chunk in needy:
        eligible = [w for w in workers if chunk not in holders[w]]
        eligible.sort(key=lambda w: ((load[w] + 1.0) / max(speeds[w], 1e-12), w))
        for w in eligible[: int(deficit[chunk])]:
            extra[w].append(int(chunk))
            load[w] += 1.0
    return {
        w: np.asarray(chunks, dtype=np.int64)
        for w, chunks in extra.items()
        if chunks
    }


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
    n = speeds.size
    alive = speeds > 0
    if int(alive.sum()) < coverage:
        raise ValueError(
            f"only {int(alive.sum())} workers have positive speed; "
            f"coverage {coverage} is infeasible under the per-worker cap"
        )
    total = coverage * num_chunks
    counts = np.zeros(n, dtype=np.int64)
    # Water-fill the per-worker cap: workers whose proportional share
    # exceeds a full partition are pinned at C and their excess re-spreads
    # over the rest (the paper's "re-assigns these extra chunks to next
    # worker" step, order-independently).
    active = [int(i) for i in np.flatnonzero(alive)]
    remaining = total
    while True:
        share_sum = float(speeds[active].sum())
        capped = [
            w for w in active if speeds[w] / share_sum * remaining >= num_chunks
        ]
        if not capped:
            break
        for w in capped:
            counts[w] = num_chunks
            active.remove(w)
        remaining -= num_chunks * len(capped)
        if not active:
            break
    if remaining > 0:
        # Integerise the proportional shares: floor, then hand out the
        # rounding shortfall one chunk at a time to whichever worker's
        # finish time (count+1)/speed grows least.  Plain largest-remainder
        # rounding can give the extra chunk to the *slowest* worker, whose
        # finish time then dominates the whole iteration at coarse
        # granularities.
        share_sum = float(speeds[active].sum())
        exact = speeds[active] / share_sum * remaining
        floors = np.floor(exact).astype(np.int64)
        counts[active] = floors
        shortfall = remaining - int(floors.sum())
        for _ in range(shortfall):
            candidates = [w for w in active if counts[w] < num_chunks]
            best = min(candidates, key=lambda w: ((counts[w] + 1) / speeds[w], w))
            counts[best] += 1
    if counts.sum() != total or counts.max(initial=0) > num_chunks:
        raise AssertionError("allocation failed to converge")  # pragma: no cover
    return counts


def timeout_deadline(
    policy: TimeoutPolicy, coverage: int, arrivals: np.ndarray
) -> float | None:
    """The §4.3 arming rule on one trial's arrival row.

    Kept verbatim from the retired closed-form scalar simulator's
    ``_timeout_deadline``; the event loop arms the same way incrementally.
    """
    k = policy.min_responses or coverage
    finite = [a for a in arrivals if a < np.inf]
    if not finite:
        return None
    first_k = sorted(finite)[: min(k, len(finite))]
    return policy.deadline(float(np.mean(first_k)))


def classify(speeds: np.ndarray, threshold: float) -> np.ndarray:
    """Basic S2C2's per-row fast (1.0) / straggler (0.0) classification."""
    fastest = float(speeds.max(initial=0.0))
    return np.where(speeds >= threshold * fastest, 1.0, 0.0)
