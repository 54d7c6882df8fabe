"""Scenario registry behaviour and per-generator statistical invariants.

Every built-in scenario is checked for the property that *defines* it —
not just shapes: dip frequency for ``bursty``, the stationary slow
fraction for ``markov``, within-rack equality for ``rack``, the
preemption floor for ``spot``, exact trace replay for ``traces`` — plus
the shared contracts (positivity, seeded determinism, random-access
replay, batch trial-for-trial equivalence with single-trial models).
"""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scenario_oracles
from repro.cluster import scenarios as scn
from repro.cluster.scenarios import (
    BurstySpeeds,
    GeneratedSpeeds,
    LinkBurstySpeeds,
    MarkovOnOffSpeeds,
    NetworkSlowSpeeds,
    RackCongestSpeeds,
    RackSlowdownSpeeds,
    ScenarioSpec,
    SpotPreemptionSpeeds,
    available_scenarios,
    get_scenario,
    register_scenario,
    registry_digest,
    scenario_batch,
    scenario_speed_model,
)
from repro.cluster.events.factors import link_factors_batch, link_factors_of
from repro.cluster.speed_models import ConstantSpeeds
from repro.prediction.traces import VOLATILE, generate_speed_traces

N = 12
BUILT_INS = (
    "bursty",
    "constant",
    "controlled",
    "markov",
    "rack",
    "spot",
    "traces",
)


#: The network-straggler trio: healthy compute, degraded link factors.
NETWORK = ("netslow", "rackcongest", "linkbursty")
#: Scenarios whose batch steps every trial at once.
TRIAL_AXIS = ("bursty", "markov", "rack", "spot") + NETWORK
ITERATIONS = 12


def _stack(model, iterations: int) -> np.ndarray:
    return np.stack([model.speeds(i) for i in range(iterations)])


def _assert_factor_rows(batch, models, iteration: int) -> None:
    """``link_factors_batch`` row ``t`` is ``link_factors_of(models[t])``."""
    factors = link_factors_batch(batch, iteration)
    rows = [link_factors_of(m, iteration) for m in models]
    if all(row is None for row in rows):
        assert factors is None
        return
    assert factors.shape == (len(models), batch.n_workers)
    for got, row in zip(factors, rows):
        np.testing.assert_array_equal(
            got, np.ones(batch.n_workers) if row is None else row
        )


class TestRegistry:
    def test_built_ins_registered(self):
        assert set(BUILT_INS) <= set(available_scenarios())
        assert len(available_scenarios()) >= 6

    def test_get_unknown_lists_available(self):
        with pytest.raises(KeyError, match="available:.*controlled"):
            get_scenario("no-such-scenario")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scenario("constant", "dup")(lambda **kw: None)

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="no parameter"):
            scenario_speed_model("markov", N, seed=0, bogus=1)

    def test_override_applies(self):
        model = scenario_speed_model("constant", N, seed=0, spread=0.5)
        speeds = model.speeds(0)
        assert speeds.min() >= 0.5 and speeds.max() <= 1.0
        assert len(set(np.round(speeds, 12))) > 1  # heterogeneous

    def test_specs_carry_metadata(self):
        for name in BUILT_INS:
            spec = get_scenario(name)
            assert spec.summary and spec.models, name

    def test_digest_deterministic_and_registry_sensitive(self, monkeypatch):
        before = registry_digest()
        assert before == registry_digest()
        spec = ScenarioSpec(
            name="zz-test",
            summary="ephemeral",
            models="test",
            builder=lambda n_workers, seed: ConstantSpeeds(np.ones(n_workers)),
        )
        monkeypatch.setitem(scn._REGISTRY, "zz-test", spec)
        assert registry_digest() != before


class TestSharedContracts:
    @pytest.mark.parametrize("name", BUILT_INS)
    def test_positive_and_shaped(self, name):
        model = scenario_speed_model(name, N, seed=3)
        for it in range(8):
            speeds = model.speeds(it)
            assert speeds.shape == (N,)
            assert np.all(speeds > 0)
            assert np.all(speeds <= 1.0 + 1e-12) or name == "controlled"

    @pytest.mark.parametrize("name", BUILT_INS)
    def test_seeded_determinism(self, name):
        a = _stack(scenario_speed_model(name, N, seed=5), 6)
        b = _stack(scenario_speed_model(name, N, seed=5), 6)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("name", sorted(set(BUILT_INS) - {"controlled"}))
    def test_random_access_replay(self, name):
        model = scenario_speed_model(name, N, seed=1)
        later = model.speeds(5)
        earlier = model.speeds(2)  # revisit an earlier iteration
        fresh = scenario_speed_model(name, N, seed=1)
        np.testing.assert_array_equal(earlier, fresh.speeds(2))
        np.testing.assert_array_equal(later, fresh.speeds(5))

    @pytest.mark.parametrize("name", BUILT_INS + NETWORK)
    def test_batch_matches_singles(self, name):
        # 12 rounds: long enough for every Markov / rack / spot /
        # congestion chain to change state at these seeds.
        seeds = [2, 9, 23]
        batch = scenario_batch(name, N, seeds)
        assert batch.n_trials == len(seeds) and batch.n_workers == N
        for it in range(ITERATIONS):
            got = batch.speeds_batch(it)
            assert got.shape == (len(seeds), N)
        singles = [
            _stack(scenario_speed_model(name, N, seed=s), ITERATIONS)
            for s in seeds
        ]
        fresh_batch = scenario_batch(name, N, seeds)
        for it in range(ITERATIONS):
            got = fresh_batch.speeds_batch(it)
            for t in range(len(seeds)):
                np.testing.assert_array_equal(got[t], singles[t][it])
        models = [scenario_speed_model(name, N, seed=s) for s in seeds]
        for it in range(ITERATIONS):
            _assert_factor_rows(batch, models, it)
        if name in ("markov", "rack", "spot"):
            assert np.any(np.diff(np.stack(singles), axis=1) != 0)
        if name == "rackcongest":
            factors = [link_factors_batch(batch, it) for it in range(ITERATIONS)]
            assert np.any(np.diff(np.stack(factors), axis=0) != 0)


class TestTrialAxisDraws:
    """Trial-axis batches replay per-seed models under any query order."""

    @pytest.mark.parametrize("name", TRIAL_AXIS)
    def test_built_ins_step_on_the_trial_axis(self, name):
        batch = scenario_batch(name, N, [1, 2])
        assert batch.trial_axis is not None and batch.models == ()

    @pytest.mark.parametrize(
        "name", ("constant", "controlled", "traces", "mix(bursty,netslow)")
    )
    def test_other_scenarios_stack_per_seed_models(self, name):
        batch = scenario_batch(name, N, [1, 2])
        assert batch.trial_axis is None and len(batch.models) == 2

    def test_leaf_override_keeps_the_trial_axis(self):
        name = "netslow(num_slow=1,slowdown=2.0)"
        seeds = [4, 5, 6]
        batch = scenario_batch(name, N, seeds)
        assert batch.trial_axis is not None
        models = [scenario_speed_model(name, N, seed=s) for s in seeds]
        for it in range(3):
            _assert_factor_rows(batch, models, it)

    @pytest.mark.parametrize("name", TRIAL_AXIS)
    def test_interleaved_random_access_replay(self, name):
        seeds = [3, 14, 15, 92]
        models = [scenario_speed_model(name, N, seed=s) for s in seeds]
        speeds = np.stack([_stack(m, ITERATIONS) for m in models], axis=1)
        batch = scenario_batch(name, N, seeds)
        order = np.random.default_rng(7).permutation(2 * ITERATIONS)
        for step in list(order) + list(order[::-1]):
            it = int(step) % ITERATIONS
            if step < ITERATIONS:
                np.testing.assert_array_equal(batch.speeds_batch(it), speeds[it])
            else:
                _assert_factor_rows(batch, models, it)

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(TRIAL_AXIS),
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5),
        n_workers=st.integers(1, 16),
        data=st.data(),
    )
    def test_batch_matches_singles_property(self, name, seeds, n_workers, data):
        overrides = {}
        if name in ("rack", "rackcongest"):
            overrides["n_racks"] = data.draw(
                st.one_of(st.just(n_workers), st.integers(1, n_workers)),
                label="n_racks",
            )
        if name == "netslow":
            overrides["num_slow"] = data.draw(
                st.integers(0, n_workers), label="num_slow"
            )
        batch = scenario_batch(name, n_workers, seeds, **overrides)
        models = [
            scenario_speed_model(name, n_workers, seed=s, **overrides)
            for s in seeds
        ]
        for it in range(ITERATIONS):
            got = batch.speeds_batch(it)
            for t, model in enumerate(models):
                np.testing.assert_array_equal(got[t], model.speeds(it))
            _assert_factor_rows(batch, models, it)

    def test_runtime_scenario_with_a_1d_step_stays_per_trial(self, monkeypatch):
        # The docs/scenarios.md example: a custom subclass defining only
        # the 1-D ``_step`` is stacked one model per seed, bitwise.
        @dataclass
        class DiurnalSpeeds(GeneratedSpeeds):
            period: int = 24
            depth: float = 0.5

            def _step(self, iteration: int) -> np.ndarray:
                wave = 1.0 - self.depth * (
                    0.5 + 0.5 * np.sin(2 * np.pi * iteration / self.period)
                )
                jitter = 1.0 - 0.05 * self._rng.random(self.n_workers)
                return wave * jitter

        monkeypatch.setattr(scn, "_REGISTRY", dict(scn._REGISTRY))
        register_scenario("diurnal", "load wave", period=24, depth=0.5)(
            lambda n_workers, seed, period, depth: DiurnalSpeeds(
                n_workers, seed=seed, period=period, depth=depth
            )
        )
        seeds = [0, 8, 21]
        batch = scenario_batch("diurnal", N, seeds, period=5)
        assert batch.trial_axis is None and len(batch.models) == len(seeds)
        for t, seed in enumerate(seeds):
            expected = DiurnalSpeeds(N, seed=seed, period=5)
            for it in range(ITERATIONS):
                np.testing.assert_array_equal(
                    batch.speeds_batch(it)[t], expected.speeds(it)
                )
        with pytest.raises(TypeError, match="one model per seed"):
            DiurnalSpeeds(N, seed=(1, 2))

    def test_runtime_trial_axis_scenario(self, monkeypatch):
        # The docs/scenarios.md recipe for trial-axis stepping.
        @dataclass
        class StickySpeeds(GeneratedSpeeds):
            def _start(self, trials: int) -> None:
                self._level = np.ones((trials, self.n_workers))

            def _step_trials(self, iteration: int) -> np.ndarray:
                self._level = np.minimum(self._level, self._uniform(self.n_workers))
                return self._level + 0.1

        monkeypatch.setattr(scn, "_REGISTRY", dict(scn._REGISTRY))
        register_scenario("sticky", "running minimum", trial_axis=True)(
            lambda n_workers, seed: StickySpeeds(n_workers, seed=seed)
        )
        seeds = [4, 40, 400]
        batch = scenario_batch("sticky", N, seeds)
        assert batch.trial_axis is not None
        singles = [_stack(scenario_speed_model("sticky", N, seed=s), 6) for s in seeds]
        for it in range(6):
            np.testing.assert_array_equal(
                batch.speeds_batch(it), np.stack([m[it] for m in singles])
            )


#: Each trial-axis class, its per-trial oracle, and parameters that make
#: every chain move within ``ITERATIONS`` rounds.
ORACLE_CASES = {
    "bursty": (
        BurstySpeeds,
        scenario_oracles.BurstySpeeds,
        {"dip_prob": 0.3, "dip_depth": 0.4, "jitter": 0.2},
    ),
    "markov": (
        MarkovOnOffSpeeds,
        scenario_oracles.MarkovOnOffSpeeds,
        {"slow_prob": 0.3, "recover_prob": 0.4, "slow_speed": 0.2},
    ),
    "rack": (
        RackSlowdownSpeeds,
        scenario_oracles.RackSlowdownSpeeds,
        {"n_racks": 4, "slow_prob": 0.3, "recover_prob": 0.3, "slow_speed": 0.25},
    ),
    "spot": (
        SpotPreemptionSpeeds,
        scenario_oracles.SpotPreemptionSpeeds,
        {"preempt_prob": 0.2, "restore_prob": 0.3, "floor": 0.05},
    ),
    "netslow": (
        NetworkSlowSpeeds,
        scenario_oracles.NetworkSlowSpeeds,
        {"num_slow": 3, "slowdown": 2.0},
    ),
    "rackcongest": (
        RackCongestSpeeds,
        scenario_oracles.RackCongestSpeeds,
        {"n_racks": 4, "congest_prob": 0.3, "recover_prob": 0.3, "slowdown": 3.0},
    ),
    "linkbursty": (
        LinkBurstySpeeds,
        scenario_oracles.LinkBurstySpeeds,
        {"dip_prob": 0.3, "dip_depth": 0.5},
    ),
}


class TestPerTrialOracle:
    """Trial-axis draws equal the original one-model-per-seed classes."""

    @pytest.mark.parametrize("n_workers", [5, 12])
    @pytest.mark.parametrize("name", sorted(ORACLE_CASES))
    def test_rows_match_per_seed_oracles(self, name, n_workers):
        new_cls, old_cls, params = ORACLE_CASES[name]
        seeds = (0, 5, 77, 2**31)
        batch = new_cls(n_workers, seed=seeds, **params)
        olds = [old_cls(n_workers, seed=s, **params) for s in seeds]
        network = hasattr(old_cls, "link_factors")
        for it in range(ITERATIONS):
            np.testing.assert_array_equal(
                batch.speeds_rows(it), np.stack([m.speeds(it) for m in olds])
            )
            if network:
                np.testing.assert_array_equal(
                    batch.link_factor_rows(it),
                    np.stack([m.link_factors(it) for m in olds]),
                )


class TestConstant:
    def test_constant_across_iterations(self):
        model = scenario_speed_model("constant", N, seed=0)
        first = model.speeds(0)
        np.testing.assert_array_equal(first, np.ones(N))
        np.testing.assert_array_equal(first, model.speeds(17))

    def test_bad_spread_rejected(self):
        with pytest.raises(ValueError, match="spread"):
            scenario_speed_model("constant", N, seed=0, spread=1.5)


class TestControlled:
    def test_stragglers_slow(self):
        model = scenario_speed_model(
            "controlled", N, seed=0, num_stragglers=3, slowdown=5.0
        )
        speeds = model.speeds(0)
        slow, fast = np.sort(speeds)[:3], np.sort(speeds)[3:]
        assert slow.max() * 2 < fast.min()


class TestBursty:
    def test_dip_frequency_and_depth(self):
        dip_prob, dip_depth, jitter = 0.15, 0.3, 0.1
        model = BurstySpeeds(
            50, seed=7, dip_prob=dip_prob, dip_depth=dip_depth, jitter=jitter
        )
        draws = _stack(model, 400)
        # dipped speeds sit in [(1-jitter)*depth, depth]; undipped ones in
        # [1-jitter, 1] — disjoint bands, so the depth threshold separates.
        dipped = draws <= dip_depth + 1e-12
        assert np.all(draws[dipped] >= (1.0 - jitter) * dip_depth - 1e-12)
        rate = dipped.mean()
        assert abs(rate - dip_prob) < 0.02
        undipped = draws[~dipped]
        assert undipped.min() >= 1.0 - jitter - 1e-12
        assert undipped.max() <= 1.0

    def test_memoryless(self):
        # Dips are i.i.d.: dipping today does not predict dipping tomorrow.
        model = BurstySpeeds(40, seed=3, dip_prob=0.2, dip_depth=0.2, jitter=0.0)
        draws = _stack(model, 500) < 0.5
        given_dip = draws[1:][draws[:-1]].mean()
        assert abs(given_dip - 0.2) < 0.03


class TestMarkov:
    def test_stationary_slow_fraction(self):
        slow_prob, recover_prob = 0.1, 0.3
        model = MarkovOnOffSpeeds(
            40, seed=11, slow_prob=slow_prob, recover_prob=recover_prob,
            slow_speed=0.2,
        )
        draws = _stack(model, 600)
        assert set(np.unique(draws)) <= {0.2, 1.0}
        stationary = slow_prob / (slow_prob + recover_prob)
        assert abs((draws == 0.2).mean() - stationary) < 0.02

    def test_spell_persistence(self):
        # Slow spells are geometric with mean 1/recover_prob: a slow worker
        # stays slow with probability 1 - recover_prob.
        model = MarkovOnOffSpeeds(
            40, seed=2, slow_prob=0.1, recover_prob=0.25, slow_speed=0.1
        )
        slow = _stack(model, 600) < 0.5
        stay = slow[1:][slow[:-1]].mean()
        assert abs(stay - 0.75) < 0.03


class TestRack:
    def test_within_rack_correlation(self):
        model = RackSlowdownSpeeds(
            11, seed=4, n_racks=3, slow_prob=0.2, recover_prob=0.3,
            slow_speed=0.25,
        )
        racks = model.rack_of
        assert racks.shape == (11,) and set(racks) == {0, 1, 2}
        for it in range(60):
            speeds = model.speeds(it)
            for r in range(3):
                assert len(set(speeds[racks == r])) == 1, (it, r)

    def test_racks_move_independently(self):
        model = RackSlowdownSpeeds(
            12, seed=0, n_racks=4, slow_prob=0.3, recover_prob=0.3,
            slow_speed=0.25,
        )
        draws = _stack(model, 200)
        rack_state = draws[:, ::3] < 0.5  # one worker per rack
        # Not all racks share one state trajectory.
        assert np.any(rack_state.any(axis=1) & ~rack_state.all(axis=1))

    def test_n_racks_validated(self):
        with pytest.raises(ValueError, match="n_racks"):
            RackSlowdownSpeeds(4, n_racks=5)


class TestSpot:
    def test_floor_and_recovery(self):
        model = SpotPreemptionSpeeds(
            40, seed=6, preempt_prob=0.1, restore_prob=0.25, floor=0.02
        )
        draws = _stack(model, 500)
        assert set(np.unique(draws)) <= {0.02, 1.0}
        down = draws == 0.02
        assert down.any() and not down.all()
        # Preemption from the up state happens at ~preempt_prob.
        preempted = down[1:][~down[:-1]].mean()
        assert abs(preempted - 0.1) < 0.03
        # Replacements do arrive: a preempted worker eventually returns.
        restored = (~down[1:])[down[:-1]].mean()
        assert abs(restored - 0.25) < 0.04


class TestTraces:
    def test_exact_replay_of_generator(self):
        model = scenario_speed_model(
            "traces", N, seed=9, preset="volatile", horizon=20
        )
        expected = generate_speed_traces(N, 20, VOLATILE, seed=9)
        for it in (0, 7, 19, 23):  # includes wrap-around
            np.testing.assert_array_equal(
                model.speeds(it), expected[:, it % 20]
            )

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="preset"):
            scenario_speed_model("traces", N, seed=0, preset="nope")
