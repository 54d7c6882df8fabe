"""The forecaster fit kernels pinned bit for bit against their loop oracles.

``LSTMSpeedModel`` trains on a time-major BPTT kernel and
``ARIMA111Model`` evaluates its CSS objective row-vectorised.  Their
per-step / per-scalar forms live in ``fit_oracles.py``; these suites
require the kernels to reproduce them exactly — compared as raw float
bits, so even a flipped last bit or a signed zero fails — over the
corners that matter: hidden sizes 1–6, batches 1–70 (BLAS switches
kernels on small shapes), windows as long as the series, batches of one,
pre-activations beyond the ±50 sigmoid clip, gradient norms above the
global-norm clip, and CSS shapes down to one node of three samples.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fit_oracles
from repro.prediction.arima import ARIMA111Model
from repro.prediction.lstm import LSTMSpeedModel, _BPTTKernel
from repro.prediction.traces import MEASURED, STABLE, generate_speed_traces


def bits(value) -> np.ndarray:
    return np.asarray(value, dtype=np.float64).view(np.int64)


def assert_bitwise(actual, expected) -> None:
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(bits(actual), bits(expected))


def perturbed_model(hidden: int, seed: int, scale: float = 0.5) -> LSTMSpeedModel:
    """A model whose parameters are all nonzero (the init zeroes ``b``/``by``)."""
    model = LSTMSpeedModel(hidden=hidden, seed=seed)
    rng = np.random.default_rng(seed + 1)
    for key, value in model._params.items():
        model._params[key] = value + scale * rng.standard_normal(value.shape)
    return model


def kernel_step(model: LSTMSpeedModel, x: np.ndarray):
    """One forward + backward of the kernel on a batch-major ``(B, T)`` batch."""
    batch, steps = x.shape
    kernel = _BPTTKernel(steps, batch, model.hidden)
    x_tm = np.ascontiguousarray(x.T)
    preds = kernel.forward(model._params, x_tm)
    loss, grads = kernel.backward(model._params, x_tm, preds)
    return preds.T, loss, grads


def oracle_step(model: LSTMSpeedModel, x: np.ndarray):
    preds, caches = fit_oracles.forward(model, x)
    loss, grads = fit_oracles.backward(model, x, preds, caches)
    return preds, loss, grads


def assert_same_step(model: LSTMSpeedModel, x: np.ndarray) -> None:
    preds, loss, grads = kernel_step(model, x)
    o_preds, o_loss, o_grads = oracle_step(model, x)
    assert_bitwise(preds, o_preds)
    assert_bitwise(loss, o_loss)
    # Key order is the global-norm clip's summation order.
    assert list(grads) == list(o_grads) == ["W", "b", "Wy", "by"]
    for key in o_grads:
        assert_bitwise(grads[key], o_grads[key])


def fit_pair(hidden, seed, series, prepare=None, **kwargs):
    """Fit twin models, one with the kernel and one with the oracle loop."""
    fast = LSTMSpeedModel(hidden=hidden, seed=seed)
    slow = LSTMSpeedModel(hidden=hidden, seed=seed)
    if prepare is not None:
        prepare(fast)
        prepare(slow)
    losses = fast.fit(series, **kwargs)
    o_losses = fit_oracles.fit(slow, series, **kwargs)
    return fast, slow, losses, o_losses


def assert_same_model(fast: LSTMSpeedModel, slow: LSTMSpeedModel) -> None:
    for key in slow._params:
        assert_bitwise(fast._params[key], slow._params[key])
    assert fast._steps == slow._steps
    for key in slow._adam or {}:
        assert_bitwise(fast._adam[key], slow._adam[key])
    assert_bitwise(fast._mu, slow._mu)
    assert_bitwise(fast._sigma, slow._sigma)


class TestLSTMKernelStep:
    @settings(max_examples=80, deadline=None)
    @given(
        hidden=st.integers(1, 6),
        batch=st.integers(1, 70),
        steps=st.integers(2, 50),
        seed=st.integers(0, 2**16),
    )
    def test_forward_backward_match_oracle(self, hidden, batch, steps, seed):
        model = perturbed_model(hidden, seed)
        x = np.random.default_rng(seed).standard_normal((batch, steps))
        assert_same_step(model, x)

    @pytest.mark.parametrize("hidden", [1, 2, 4, 6])
    @pytest.mark.parametrize("batch", [1, 2, 8, 9, 64, 70])
    def test_shape_corners(self, hidden, batch):
        model = perturbed_model(hidden, 7)
        x = np.random.default_rng(batch).standard_normal((batch, 40))
        assert_same_step(model, x)

    def test_saturated_gates_hit_the_clip(self):
        # Pre-activations far beyond ±50: the clip decides the sigmoid.
        model = perturbed_model(4, 3, scale=30.0)
        x = 20.0 * np.random.default_rng(3).standard_normal((16, 12))
        z = np.concatenate([x[:, :1], np.zeros((16, 4))], axis=1)
        assert np.abs(z @ model._params["W"].T + model._params["b"]).max() > 50.0
        assert_same_step(model, x)

    def test_kernel_reuse_across_batches(self):
        # Buffers are reused every epoch; stale state must not leak.
        model = perturbed_model(3, 11)
        kernel = _BPTTKernel(9, 5, 3)
        rng = np.random.default_rng(11)
        for _ in range(3):
            x = rng.standard_normal((5, 9))
            preds = kernel.forward(model._params, np.ascontiguousarray(x.T))
            loss, grads = kernel.backward(
                model._params, np.ascontiguousarray(x.T), preds
            )
            o_preds, o_loss, o_grads = oracle_step(model, x)
            assert_bitwise(preds.T, o_preds)
            assert_bitwise(loss, o_loss)
            for key in o_grads:
                assert_bitwise(grads[key], o_grads[key])


class TestLSTMFitMatchesOracle:
    def test_paper_configuration(self):
        # The §6.1 shape: hidden 4, window 40, batch 64 on measured traces.
        traces = generate_speed_traces(12, 120, MEASURED, seed=0)
        fast, slow, losses, o_losses = fit_pair(4, 0, traces, epochs=25, window=40)
        assert_bitwise(losses, o_losses)
        assert_same_model(fast, slow)
        assert_bitwise(
            fast.predict_series(traces), fit_oracles.predict_series(slow, traces)
        )

    @settings(max_examples=25, deadline=None)
    @given(
        hidden=st.integers(1, 6),
        batch_size=st.integers(1, 70),
        window=st.integers(2, 50),
        length=st.integers(2, 60),
        nodes=st.integers(1, 5),
        seed=st.integers(0, 2**16),
    )
    def test_drawn_configurations(
        self, hidden, batch_size, window, length, nodes, seed
    ):
        traces = generate_speed_traces(nodes, length, STABLE, seed=seed)
        fast, slow, losses, o_losses = fit_pair(
            hidden, seed, traces, epochs=3, window=window, batch_size=batch_size
        )
        assert_bitwise(losses, o_losses)
        assert_same_model(fast, slow)

    def test_window_equals_length_and_batch_of_one(self):
        traces = generate_speed_traces(3, 30, STABLE, seed=5)
        for kwargs in (
            {"window": 30, "batch_size": 4},
            {"window": 10, "batch_size": 1},
        ):
            fast, slow, losses, o_losses = fit_pair(4, 5, traces, epochs=6, **kwargs)
            assert_bitwise(losses, o_losses)
            assert_same_model(fast, slow)

    def test_gradient_norm_clip_active(self):
        # Scaled weights push the gradient norm past 5, so the clip's
        # summation over the gradients (in key order) shapes every step.
        def scale(model):
            for key in model._params:
                model._params[key] *= 25.0

        traces = generate_speed_traces(6, 60, MEASURED, seed=8)
        probe = LSTMSpeedModel(hidden=4, seed=8)
        scale(probe)
        probe._mu, probe._sigma = float(traces.mean()), float(traces.std())
        x = (traces[:, :40] - probe._mu) / probe._sigma
        _, _, grads = kernel_step(probe, x)
        assert np.sqrt(sum(float((g**2).sum()) for g in grads.values())) > 5.0
        fast, slow, losses, o_losses = fit_pair(
            4, 8, traces, prepare=scale, epochs=12, window=40, lr=0.5
        )
        assert_bitwise(losses, o_losses)
        assert_same_model(fast, slow)

    def test_predict_series_shapes(self):
        model = perturbed_model(4, 2)
        model._mu, model._sigma = 0.7, 0.2
        series = np.random.default_rng(2).uniform(0.2, 1.0, (7, 33))
        out = model.predict_series(series)
        assert out.flags.c_contiguous
        assert_bitwise(out, fit_oracles.predict_series(model, series))


class TestLSTMStepMatchesOracle:
    @pytest.mark.parametrize("hidden", [1, 4, 6])
    def test_step_sequence(self, hidden):
        traces = generate_speed_traces(5, 25, MEASURED, seed=hidden)
        fast, slow, _, _ = fit_pair(hidden, 1, traces, epochs=4, window=20)
        state, o_state = fast.initial_state(5), slow.initial_state(5)
        for t in range(25):
            out = fast.step(state, traces[:, t])
            assert_bitwise(out, fit_oracles.step(slow, o_state, traces[:, t]))
            assert_bitwise(state.h, o_state.h)
            assert_bitwise(state.c, o_state.c)

    def test_step_saturated(self):
        model = perturbed_model(4, 9, scale=30.0)
        state, o_state = model.initial_state(3), model.initial_state(3)
        x = np.array([40.0, -35.0, 0.5])
        for _ in range(4):
            assert_bitwise(model.step(state, x), fit_oracles.step(model, o_state, x))

    def test_step_stacked(self):
        model = perturbed_model(4, 4)
        trials, nodes = 3, 4
        state = model.initial_state(trials * nodes)
        o_state = model.initial_state(trials * nodes)
        rng = np.random.default_rng(4)
        for _ in range(6):
            x = rng.uniform(0.1, 1.0, (trials, nodes))
            out = model.step_stacked(state, x)
            expected = fit_oracles.step(model, o_state, x.reshape(-1))
            assert_bitwise(out, expected.reshape(trials, nodes))


class TestFitArguments:
    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"epochs": -1}, "epochs"),
            ({"epochs": 2.0}, "epochs"),
            ({"epochs": True}, "epochs"),
            ({"batch_size": 0}, "batch_size"),
            ({"batch_size": -3}, "batch_size"),
            ({"batch_size": 4.5}, "batch_size"),
            ({"window": 1}, "window"),
            ({"window": 0}, "window"),
            ({"window": 10.0}, "window"),
            ({"lr": -1.0}, "lr"),
            ({"lr": 0.0}, "lr"),
            ({"lr": float("nan")}, "lr"),
            ({"lr": float("inf")}, "lr"),
            ({"lr": "0.1"}, "lr"),
        ],
    )
    def test_bad_values_name_the_parameter(self, kwargs, name):
        model = LSTMSpeedModel(seed=0)
        with pytest.raises(ValueError, match=name):
            model.fit(np.ones((3, 20)), **kwargs)
        assert model._steps == 0  # rejected before any training

    def test_zero_epochs_and_numpy_ints_accepted(self):
        model = LSTMSpeedModel(seed=0)
        assert model.fit(np.ones((3, 20)), epochs=0) == []
        losses = model.fit(
            np.ones((3, 20)),
            epochs=np.int64(2),
            batch_size=np.int32(2),
            window=np.int64(5),
        )
        assert len(losses) == 2

    def test_short_series_message_kept(self):
        with pytest.raises(ValueError, match="series too short"):
            LSTMSpeedModel().fit(np.ones((2, 1)))


class TestARIMACss:
    @settings(max_examples=150, deadline=None)
    @given(
        nodes=st.integers(1, 6),
        length=st.integers(3, 40),
        c=st.floats(-1.0, 1.0),
        phi=st.floats(-2.0, 2.0),
        theta=st.floats(-1.5, 1.5),
        seed=st.integers(0, 2**16),
    )
    def test_css_matches_scalar_loop(self, nodes, length, c, phi, theta, seed):
        series = np.random.default_rng(seed).standard_normal((nodes, length))
        diffs = np.ascontiguousarray(np.diff(series, axis=1).T)
        params = np.array([c, phi, theta])
        expected = fit_oracles.css(params, [np.diff(row) for row in series])
        assert_bitwise(ARIMA111Model._css(params, diffs), expected)

    def test_smallest_shape(self):
        series = np.array([[0.3, 0.9, 0.4]])
        diffs = np.ascontiguousarray(np.diff(series, axis=1).T)
        params = np.array([0.01, 0.4, -0.2])
        assert_bitwise(
            ARIMA111Model._css(params, diffs),
            fit_oracles.css(params, [np.diff(series[0])]),
        )

    @pytest.mark.parametrize("nodes, length", [(1, 3), (2, 12), (32, 250)])
    def test_fitted_parameters_match(self, nodes, length):
        traces = generate_speed_traces(nodes, length, MEASURED, seed=nodes)
        model = ARIMA111Model().fit(traces)
        assert_bitwise(
            [model.intercept, model.phi, model.theta], fit_oracles.arima_fit(traces)
        )
