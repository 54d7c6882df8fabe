"""The tight P² fold against the one-call-per-observation oracle.

:func:`repro.engine.reduce._p2_feed` keeps the five markers in locals
and finds an observation's cell with one four-way compare.  It must leave
the marker state bit for bit where the textbook update in
``tests/engine/oracles.py`` leaves it — for every probe quantile, for
streams full of ties, duplicates and integer-valued floats, for fewer
than five observations, and when a feed continues an existing state.
"""

import importlib.util
import inspect
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import reduce as reduce_module
from repro.engine.reduce import QUANTILE_PROBES, _p2_feed, _p2_new

# Loaded by path: ``tests/scheduling`` has an ``oracles`` module too.
_SPEC = importlib.util.spec_from_file_location(
    "engine_oracles", Path(__file__).with_name("oracles.py")
)
oracles = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(oracles)

#: Few distinct values, so ties between observations and markers are common.
_TIED = st.sampled_from([-2.0, 0.0, 0.5, 1.0, 1.0, 2.0, 3.0, 7.0])
_VALUES = st.one_of(
    _TIED,
    st.integers(-4, 4).map(float),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


def _fold(feed, prob: float, xs: list[float], cuts: list[int]) -> str:
    """``repr`` of the state after feeding ``xs`` split at ``cuts``."""
    state = _p2_new(prob)
    bounds = [0, *sorted(cuts), len(xs)]
    for lo, hi in zip(bounds, bounds[1:]):
        feed(state, xs[lo:hi])
    return repr(state)


def _oracle(prob: float, xs: list[float], cuts: list[int]) -> str:
    state = oracles.p2_new(prob)
    bounds = [0, *sorted(cuts), len(xs)]
    for lo, hi in zip(bounds, bounds[1:]):
        oracles.p2_feed(state, np.asarray(xs[lo:hi], dtype=np.float64))
    return repr(state)


@st.composite
def _streams(draw):
    xs = draw(st.lists(_VALUES, max_size=80))
    cuts = draw(st.lists(st.integers(0, len(xs)), max_size=3))
    return xs, cuts


class TestTightFoldMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(prob=st.sampled_from(QUANTILE_PROBES), stream=_streams())
    def test_bitwise_equal(self, prob, stream):
        xs, cuts = stream
        assert _fold(_p2_feed, prob, xs, cuts) == _oracle(prob, xs, cuts)

    def test_every_probe_on_a_long_tied_stream(self):
        rng = np.random.default_rng(5)
        xs = [float(v) for v in rng.integers(0, 6, size=400)]
        for prob in QUANTILE_PROBES:
            assert _fold(_p2_feed, prob, xs, [3, 97]) == _oracle(prob, xs, [3, 97])

    def test_fewer_than_five_observations_stay_buffered(self):
        state = _p2_new(0.5)
        _p2_feed(state, [3.0, 1.0])
        _p2_feed(state, [2.0])
        assert state == {"p": 0.5, "init": [3.0, 1.0, 2.0], "heights": [], "pos": []}

    def test_tie_break_mutant_is_caught(self):
        # The check must see a ``<=`` for ``<`` slip in the cell search: an
        # observation equal to a marker belongs to the cell above it.
        source = inspect.getsource(reduce_module._p2_feed)
        assert "elif x < q1:" in source
        namespace = dict(vars(reduce_module))
        exec(source.replace("elif x < q1:", "elif x <= q1:"), namespace)
        mutant = namespace["_p2_feed"]
        rng = np.random.default_rng(6)
        streams = [
            [float(v) for v in rng.integers(0, 4, size=size)]
            for size in (6, 12, 40, 80)
        ]
        assert all(
            _fold(_p2_feed, prob, xs, []) == _oracle(prob, xs, [])
            for prob in QUANTILE_PROBES
            for xs in streams
        )
        assert any(
            _fold(mutant, prob, xs, []) != _oracle(prob, xs, [])
            for prob in QUANTILE_PROBES
            for xs in streams
        )
