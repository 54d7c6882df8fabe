"""Per-trial reference implementations of the generated scenarios.

The original one-model-per-seed forms of the built-in generated
scenarios (``bursty``, ``markov``, ``rack``, ``spot`` and the network
trio), kept verbatim as independent oracles: each draws one
``(n_workers,)`` vector per iteration from its own generator.  The
trial-axis classes in :mod:`repro.cluster.scenarios` must reproduce
every trial of them bit for bit, speeds and link factors alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util import as_rng, check_positive_int, check_probability


@dataclass
class GeneratedSpeeds:
    n_workers: int
    seed: int | None = 0
    _rng: np.random.Generator = field(init=False, repr=False)
    _history: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        check_positive_int(self.n_workers, "n_workers")
        self._validate()
        self._rng = as_rng(self.seed)
        self._history = []

    def _validate(self) -> None:
        """Subclass hook for parameter validation (runs before the RNG)."""

    def speeds(self, iteration: int) -> np.ndarray:
        if iteration < 0:
            raise ValueError("iteration must be >= 0")
        while len(self._history) <= iteration:
            self._history.append(self._step(len(self._history)))
        return self._history[iteration].copy()

    def _step(self, iteration: int) -> np.ndarray:
        raise NotImplementedError


@dataclass
class BurstySpeeds(GeneratedSpeeds):
    dip_prob: float = 0.08
    dip_depth: float = 0.25
    jitter: float = 0.1

    def _validate(self) -> None:
        check_probability(self.dip_prob, "dip_prob")
        if not 0 < self.dip_depth <= 1:
            raise ValueError("dip_depth must be in (0, 1]")
        if not 0 <= self.jitter < 1:
            raise ValueError("jitter must be in [0, 1)")

    def _step(self, iteration: int) -> np.ndarray:
        level = 1.0 - self.jitter * self._rng.random(self.n_workers)
        dips = self._rng.random(self.n_workers) < self.dip_prob
        return np.where(dips, level * self.dip_depth, level)


@dataclass
class MarkovOnOffSpeeds(GeneratedSpeeds):
    slow_prob: float = 0.05
    recover_prob: float = 0.3
    slow_speed: float = 0.2
    _slow: np.ndarray = field(init=False, repr=False)

    def _validate(self) -> None:
        check_probability(self.slow_prob, "slow_prob")
        check_probability(self.recover_prob, "recover_prob")
        if not 0 < self.slow_speed <= 1:
            raise ValueError("slow_speed must be in (0, 1]")
        self._slow = np.zeros(self.n_workers, dtype=bool)

    def _step(self, iteration: int) -> np.ndarray:
        u = self._rng.random(self.n_workers)
        self._slow = np.where(
            self._slow, u >= self.recover_prob, u < self.slow_prob
        )
        return np.where(self._slow, self.slow_speed, 1.0)


@dataclass
class RackSlowdownSpeeds(GeneratedSpeeds):
    n_racks: int = 3
    slow_prob: float = 0.05
    recover_prob: float = 0.25
    slow_speed: float = 0.25
    _slow: np.ndarray = field(init=False, repr=False)
    _rack_of: np.ndarray = field(init=False, repr=False)

    def _validate(self) -> None:
        check_positive_int(self.n_racks, "n_racks")
        if self.n_racks > self.n_workers:
            raise ValueError("n_racks must be <= n_workers")
        check_probability(self.slow_prob, "slow_prob")
        check_probability(self.recover_prob, "recover_prob")
        if not 0 < self.slow_speed <= 1:
            raise ValueError("slow_speed must be in (0, 1]")
        self._slow = np.zeros(self.n_racks, dtype=bool)
        self._rack_of = (
            np.arange(self.n_workers) * self.n_racks // self.n_workers
        )

    @property
    def rack_of(self) -> np.ndarray:
        return self._rack_of.copy()

    def _step(self, iteration: int) -> np.ndarray:
        u = self._rng.random(self.n_racks)
        self._slow = np.where(
            self._slow, u >= self.recover_prob, u < self.slow_prob
        )
        return np.where(self._slow[self._rack_of], self.slow_speed, 1.0)


@dataclass
class SpotPreemptionSpeeds(GeneratedSpeeds):
    preempt_prob: float = 0.03
    restore_prob: float = 0.2
    floor: float = 0.02
    _down: np.ndarray = field(init=False, repr=False)

    def _validate(self) -> None:
        check_probability(self.preempt_prob, "preempt_prob")
        check_probability(self.restore_prob, "restore_prob")
        if not 0 < self.floor < 1:
            raise ValueError("floor must be in (0, 1)")
        self._down = np.zeros(self.n_workers, dtype=bool)

    def _step(self, iteration: int) -> np.ndarray:
        u = self._rng.random(self.n_workers)
        self._down = np.where(
            self._down, u >= self.restore_prob, u < self.preempt_prob
        )
        return np.where(self._down, self.floor, 1.0)


@dataclass
class LinkDegradedSpeeds(GeneratedSpeeds):
    _factor_history: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        self._factor_history = []

    def _step(self, iteration: int) -> np.ndarray:
        return np.ones(self.n_workers)

    def link_factors(self, iteration: int) -> np.ndarray:
        if iteration < 0:
            raise ValueError("iteration must be >= 0")
        while len(self._factor_history) <= iteration:
            self._factor_history.append(
                self._factor_step(len(self._factor_history))
            )
        return self._factor_history[iteration].copy()

    def _factor_step(self, iteration: int) -> np.ndarray:
        raise NotImplementedError


@dataclass
class NetworkSlowSpeeds(LinkDegradedSpeeds):
    num_slow: int = 2
    slowdown: float = 4.0
    _slow_links: np.ndarray | None = field(
        init=False, repr=False, default=None
    )

    def _validate(self) -> None:
        if not isinstance(self.num_slow, (int, np.integer)) or self.num_slow < 0:
            raise ValueError(f"num_slow must be an int >= 0, got {self.num_slow!r}")
        if self.num_slow > self.n_workers:
            raise ValueError("num_slow must be <= n_workers")
        if self.slowdown < 1:
            raise ValueError("slowdown must be >= 1")

    def _factor_step(self, iteration: int) -> np.ndarray:
        if self._slow_links is None:
            slow = self._rng.permutation(self.n_workers)[: self.num_slow]
            mask = np.zeros(self.n_workers, dtype=bool)
            mask[slow] = True
            self._slow_links = mask
        return np.where(self._slow_links, 1.0 / self.slowdown, 1.0)


@dataclass
class RackCongestSpeeds(LinkDegradedSpeeds):
    n_racks: int = 3
    congest_prob: float = 0.08
    recover_prob: float = 0.3
    slowdown: float = 4.0
    _congested: np.ndarray = field(init=False, repr=False)
    _rack_of: np.ndarray = field(init=False, repr=False)

    def _validate(self) -> None:
        check_positive_int(self.n_racks, "n_racks")
        if self.n_racks > self.n_workers:
            raise ValueError("n_racks must be <= n_workers")
        check_probability(self.congest_prob, "congest_prob")
        check_probability(self.recover_prob, "recover_prob")
        if self.slowdown < 1:
            raise ValueError("slowdown must be >= 1")
        self._congested = np.zeros(self.n_racks, dtype=bool)
        self._rack_of = (
            np.arange(self.n_workers) * self.n_racks // self.n_workers
        )

    def _factor_step(self, iteration: int) -> np.ndarray:
        u = self._rng.random(self.n_racks)
        self._congested = np.where(
            self._congested, u >= self.recover_prob, u < self.congest_prob
        )
        return np.where(
            self._congested[self._rack_of], 1.0 / self.slowdown, 1.0
        )


@dataclass
class LinkBurstySpeeds(LinkDegradedSpeeds):
    dip_prob: float = 0.1
    dip_depth: float = 0.2

    def _validate(self) -> None:
        check_probability(self.dip_prob, "dip_prob")
        if not 0 < self.dip_depth <= 1:
            raise ValueError("dip_depth must be in (0, 1]")

    def _factor_step(self, iteration: int) -> np.ndarray:
        dips = self._rng.random(self.n_workers) < self.dip_prob
        return np.where(dips, self.dip_depth, 1.0)
