"""Array-native scheduling kernels pinned bitwise against scalar oracles.

The §4.3 repair greedy, Algorithm 1's allocation step, the batched §4.3
deadlines and basic S2C2's straggler classification all run as a few
numpy passes per call.  Their original loop forms live in ``oracles.py``;
these property suites require the production code to reproduce them bit
for bit — values, dtypes, dict key order and ``ValueError`` messages —
over the input corners the kernels actually meet: idle workers, wrapping
holdings, zero / tiny / tied speeds, capped water-fills, infeasible rows
and all-inf arrival rows.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from repro.cluster.simulator import CodedIterationSim
from repro.coding.partition import ChunkGrid
from repro.scheduling.base import (
    ChunkAssignment,
    CodedWorkPlan,
    full_plan,
    plan_batch,
    plan_unique_rows,
)
from repro.scheduling.s2c2 import (
    BasicS2C2Scheduler,
    GeneralS2C2Scheduler,
    allocate_chunks,
    wraparound_plan,
)
from repro.scheduling.timeout import TimeoutPolicy, repair_assignments

#: Speeds that stress the tie-breaks and the ``1e-12`` floor.
CORNER_SPEEDS = st.sampled_from([0.0, 1e-13, 1e-12, 0.25, 0.5, 1.0, 1.0, 2.0, 7.5])
SPEED = st.one_of(CORNER_SPEEDS, st.floats(1e-3, 10.0))


def _outcome(fn, *args):
    """``("ok", value)`` or ``("error", message)`` of one call."""
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "error", str(exc)


def _assert_same_repair(got, want):
    assert got[0] == want[0]
    if got[0] == "error":
        assert got[1] == want[1]
        return
    assert list(got[1]) == list(want[1])  # key order too
    for w, chunks in want[1].items():
        assert got[1][w].dtype == chunks.dtype
        np.testing.assert_array_equal(got[1][w], chunks)


@st.composite
def repair_cases(draw):
    n = draw(st.integers(1, 16))
    num_chunks = draw(st.integers(1, 80))
    coverage = draw(st.integers(1, n))
    plan = full_plan(n, num_chunks, coverage)  # only coverage/C are read
    finished = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    completed = {}
    for w in finished:
        kind = draw(st.sampled_from(["idle", "arc", "arc", "all", "repeated"]))
        if kind == "idle":
            completed[w] = np.empty(0, dtype=np.int64)
        elif kind == "all":
            completed[w] = np.arange(num_chunks, dtype=np.int64)
        else:
            begin = draw(st.integers(0, num_chunks - 1))
            length = draw(st.integers(1, num_chunks))
            # Wrapping arcs come out unsorted, as the plan lays them out.
            arc = (begin + np.arange(length)) % num_chunks
            # A chunk listed twice counts twice toward coverage but makes
            # its worker ineligible only once.
            completed[w] = (
                np.concatenate([arc, arc[: length // 2]])
                if kind == "repeated"
                else arc
            )
    speeds = np.array(draw(st.lists(SPEED, min_size=n, max_size=n)))
    return plan, completed, speeds


class TestRepairAssignmentsOracle:
    @settings(max_examples=400, deadline=None)
    @given(repair_cases())
    def test_matches_scalar_greedy(self, case):
        plan, completed, speeds = case
        _assert_same_repair(
            _outcome(repair_assignments, plan, completed, speeds),
            _outcome(oracles.repair_assignments, plan, completed, speeds),
        )

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 16), st.integers(1, 80), st.data())
    def test_matches_on_wraparound_plans(self, n, num_chunks, data):
        # The real call shape: finished workers hold their plan arcs,
        # laggards' arcs are the deficits, idle workers hold nothing.
        coverage = data.draw(st.integers(1, n - 1))
        planned = np.array(data.draw(st.lists(SPEED, min_size=n, max_size=n)))
        plan = GeneralS2C2Scheduler(coverage, num_chunks).plan(planned)
        done = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        completed = {
            w: a.chunk_indices()
            for w, a in enumerate(plan.assignments)
            if done[w] or a.is_empty()
        }
        speeds = np.array(data.draw(st.lists(SPEED, min_size=n, max_size=n)))
        _assert_same_repair(
            _outcome(repair_assignments, plan, completed, speeds),
            _outcome(oracles.repair_assignments, plan, completed, speeds),
        )

    def test_no_completed_workers(self):
        plan = full_plan(4, 6, 2)
        _assert_same_repair(
            _outcome(repair_assignments, plan, {}, np.ones(4)),
            _outcome(oracles.repair_assignments, plan, {}, np.ones(4)),
        )

    def test_infeasible_message_names_first_needy_chunk(self):
        plan = full_plan(4, 6, 3)
        completed = {0: np.arange(6), 2: np.arange(3)}
        with pytest.raises(ValueError, match=r"^chunk 0 needs 1 more"):
            repair_assignments(plan, completed, np.ones(4))


class TestAllocateChunksOracle:
    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 16), st.integers(1, 80), st.data())
    def test_matches_scalar_walk(self, n, num_chunks, data):
        coverage = data.draw(st.integers(1, n))
        speeds = np.array(
            data.draw(
                st.lists(
                    st.one_of(SPEED, st.just(-1.0), st.floats(50.0, 1e4)),
                    min_size=n,
                    max_size=n,
                )
            )
        )
        got = _outcome(allocate_chunks, speeds, coverage, num_chunks)
        want = _outcome(oracles.allocate_chunks, speeds, coverage, num_chunks)
        assert got[0] == want[0]
        if got[0] == "error":
            assert got[1] == want[1]
        else:
            assert got[1].dtype == want[1].dtype
            np.testing.assert_array_equal(got[1], want[1])

    def test_capped_water_fill(self):
        # One worker dominates: it is pinned at C and the rest re-spread.
        speeds = np.array([100.0, 1.0, 1.0, 1.0, 1.0])
        counts = allocate_chunks(speeds, 3, 10)
        np.testing.assert_array_equal(
            counts, oracles.allocate_chunks(speeds, 3, 10)
        )
        assert counts[0] == 10

    def test_tied_shortfall_goes_to_lower_worker(self):
        speeds = np.ones(3)
        np.testing.assert_array_equal(allocate_chunks(speeds, 1, 4), [2, 1, 1])

    def test_infeasible_row(self):
        with pytest.raises(ValueError, match="only 1 workers have positive"):
            allocate_chunks(np.array([0.0, 1.0, -2.0]), 2, 5)


class TestWraparoundPlan:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 16), st.integers(1, 80), st.data())
    def test_exact_coverage_in_descending_count_order(self, n, num_chunks, data):
        coverage = data.draw(st.integers(1, n))
        speeds = np.array(data.draw(st.lists(SPEED, min_size=n, max_size=n)))
        try:
            counts = allocate_chunks(speeds, coverage, num_chunks)
        except ValueError:
            return
        plan = wraparound_plan(counts, coverage, num_chunks)
        plan.validate(exact=True)
        np.testing.assert_array_equal(plan.chunks_per_worker(), counts)
        # Arcs start where the previous (larger-count) worker's arc ended.
        cursor = 0
        for w in sorted(range(n), key=lambda w: (-counts[w], w)):
            if counts[w]:
                assert plan.assignments[w].ranges[0][0] == cursor % num_chunks
            cursor += counts[w]


class TestBatchDeadlinesOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 40),
        st.integers(1, 24),
        st.one_of(st.none(), st.integers(1, 30)),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_scalar_rule(self, trials, n, min_responses, seed):
        rng = np.random.default_rng(seed)
        # Wide magnitude spread, so any change of summation order shows.
        arrivals = np.exp(rng.normal(0.0, 6.0, (trials, n)))
        arrivals[rng.random((trials, n)) < 0.3] = np.inf
        arrivals[rng.random(trials) < 0.1] = np.inf  # all-inf rows
        coverages = rng.integers(1, n + 1, trials)
        policy = TimeoutPolicy(slack=0.15, min_responses=min_responses)
        sim = CodedIterationSim(grid=ChunkGrid(8, 4), width=1, timeout=policy)
        got = sim._batch_deadlines(np.sort(arrivals, axis=1), coverages)
        want = [
            oracles.timeout_deadline(policy, int(coverages[t]), arrivals[t])
            for t in range(trials)
        ]
        want = np.array([np.nan if d is None else d for d in want])
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()

    def test_wide_rows_cross_the_pairwise_blocks(self):
        # numpy's pairwise sum unrolls by 8 and blocks by 128 elements.
        rng = np.random.default_rng(11)
        arrivals = np.exp(rng.normal(0.0, 6.0, (32, 300)))
        arrivals[rng.random((32, 300)) < 0.2] = np.inf
        coverages = rng.integers(100, 301, 32)
        policy = TimeoutPolicy()
        sim = CodedIterationSim(grid=ChunkGrid(8, 4), width=1, timeout=policy)
        got = sim._batch_deadlines(np.sort(arrivals, axis=1), coverages)
        want = np.array([
            oracles.timeout_deadline(policy, int(c), row)
            for c, row in zip(coverages, arrivals)
        ])
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()

    def test_disabled_timeout_is_all_nan(self):
        sim = CodedIterationSim(grid=ChunkGrid(8, 4), width=1)
        got = sim._batch_deadlines(np.ones((3, 4)), np.full(3, 2))
        assert np.isnan(got).all()

    @pytest.mark.parametrize("width", [1, 7, 8, 9, 16, 17, 129, 300])
    def test_grouped_mean_is_rowwise_pairwise_sum(self, width):
        # The fact _batch_deadlines rests on: np.mean(axis=1) over a
        # contiguous row block sums each row exactly like np.mean on it.
        rows = np.exp(np.random.default_rng(width).normal(0.0, 8.0, (64, width)))
        block = np.mean(rows, axis=1)
        single = np.array([np.mean(r) for r in rows])
        assert block.view(np.int64).tolist() == single.view(np.int64).tolist()


class TestBasicClassifyOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 12),
        st.integers(1, 16),
        st.sampled_from([0.05, 0.2, 0.5, 1.0]),
        st.integers(0, 2**32 - 1),
    )
    def test_matrix_form_matches_per_row(self, trials, n, threshold, seed):
        rng = np.random.default_rng(seed)
        speeds = rng.choice([0.0, 1e-13, 0.3, 1.0, 1.0, 4.0], (trials, n))
        speeds[: trials // 2] = rng.uniform(-1.0, 3.0, (trials // 2, n))
        sched = BasicS2C2Scheduler(coverage=1, num_chunks=4,
                                   straggler_threshold=threshold)
        got = sched._classify(speeds)
        want = np.stack([oracles.classify(row, threshold) for row in speeds])
        assert got.dtype == want.dtype
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
        for row, plan in zip(speeds, plan_batch(sched, speeds)):
            assert plan.assignments == sched.plan(row).assignments


class TestPlanGeometry:
    def _plans(self):
        rng = np.random.default_rng(5)
        for n, k, chunks in [(1, 1, 1), (5, 3, 7), (12, 8, 60), (16, 4, 80)]:
            yield full_plan(n, chunks, k)
            speeds = rng.uniform(0.0, 2.0, n)
            yield GeneralS2C2Scheduler(k, chunks).plan(speeds)
        # A general (over-covered, multi-range, idle-worker) plan.
        yield CodedWorkPlan(
            n_workers=3,
            num_chunks=6,
            coverage=1,
            assignments=(
                ChunkAssignment(0, ((4, 6), (0, 2))),
                ChunkAssignment(1, ()),
                ChunkAssignment(2, ((1, 5), (5, 5))),
            ),
        )

    def test_range_table_reductions_match_assignment_loops(self):
        for plan in self._plans():
            coverage = np.zeros(plan.num_chunks, dtype=np.int64)
            for a in plan.assignments:
                coverage[a.chunk_indices()] += 1
            got = plan.chunk_coverage()
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, coverage)
            counts = plan.chunks_per_worker()
            assert counts.dtype == np.int64
            np.testing.assert_array_equal(
                counts, [a.num_chunks for a in plan.assignments]
            )

    def test_profile_matches_chunk_expansion(self):
        grid = ChunkGrid(97, 7)
        sim = CodedIterationSim(grid=grid, width=1)
        for plan in self._plans():
            if plan.num_chunks != 7:
                plan = GeneralS2C2Scheduler(plan.coverage, 7).plan(
                    np.linspace(0.5, 1.5, plan.n_workers)
                )
            profile = sim._profiles([plan])[0]
            expanded = profile.chunks_of(plan)
            for w, a in enumerate(plan.assignments):
                np.testing.assert_array_equal(expanded[w], a.chunk_indices())
                assert profile.rows[w] == grid.rows_of_chunks(
                    a.chunk_indices()
                ).size
            assert profile.chunk_counts.tolist() == [
                a.num_chunks for a in plan.assignments
            ]

    def test_unique_rows_share_plans_in_first_seen_order(self):
        calls = []

        def plan_fn(row):
            calls.append(row.tolist())
            return full_plan(2, 2, 1)

        rows = np.array([[2.0, 1.0], [1.0, 2.0], [2.0, 1.0]])
        plans = plan_unique_rows(rows, plan_fn)
        assert calls == [[2.0, 1.0], [1.0, 2.0]]
        assert plans[0] is plans[2] and plans[0] is not plans[1]
