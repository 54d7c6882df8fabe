"""Loop oracles for the forecaster fit kernels.

These are the per-step / per-scalar forms the fast kernels in
``repro.prediction.lstm`` and ``repro.prediction.arima`` replaced, kept
verbatim as free functions over a model instance.  The tests in
``test_fit_kernels.py`` pin the kernels against them **bit for bit**:
losses, parameters, Adam state, forecasts and CSS values.  Nothing here
is imported by ``src/``.
"""

from __future__ import annotations

import numpy as np
from scipy import optimize

from repro._util import as_rng


# --------------------------------------------------------------------- LSTM
def sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -50.0, 50.0)))


def forward(model, x: np.ndarray):
    """Run the LSTM over a ``(B, T)`` batch; return preds and caches."""
    p = model._params
    h_dim = model.hidden
    batch, steps = x.shape
    h = np.zeros((batch, h_dim))
    c = np.zeros((batch, h_dim))
    caches = []
    preds = np.empty((batch, steps))
    for t in range(steps):
        z = np.concatenate([x[:, t : t + 1], h], axis=1)
        a = z @ p["W"].T + p["b"]
        i = sigmoid(a[:, :h_dim])
        f = sigmoid(a[:, h_dim : 2 * h_dim])
        g = np.tanh(a[:, 2 * h_dim : 3 * h_dim])
        o = sigmoid(a[:, 3 * h_dim :])
        c_prev = c
        c = f * c + i * g
        tanh_c = np.tanh(c)
        h = o * tanh_c
        preds[:, t] = (h @ p["Wy"].T + p["by"])[:, 0]
        caches.append((z, i, f, g, o, c_prev, c, tanh_c, h))
    return preds, caches


def backward(model, x: np.ndarray, preds: np.ndarray, caches):
    """BPTT for the one-step-ahead MSE loss; returns loss and grads."""
    p = model._params
    h_dim = model.hidden
    batch, steps = x.shape
    targets = x[:, 1:]
    errors = preds[:, :-1] - targets
    count = errors.size
    loss = float(np.mean(errors**2))
    grads = {k: np.zeros_like(v) for k, v in p.items()}
    dh_next = np.zeros((batch, h_dim))
    dc_next = np.zeros((batch, h_dim))
    for t in range(steps - 1, -1, -1):
        z, i, f, g, o, c_prev, c, tanh_c, h = caches[t]
        if t < steps - 1:
            dy = (2.0 / count) * errors[:, t : t + 1]
        else:
            dy = np.zeros((batch, 1))
        grads["Wy"] += dy.T @ h
        grads["by"] += dy.sum(axis=0)
        dh = dy @ p["Wy"] + dh_next
        do = dh * tanh_c
        dc = dh * o * (1.0 - tanh_c**2) + dc_next
        df = dc * c_prev
        di = dc * g
        dg = dc * i
        da = np.concatenate(
            [
                di * i * (1.0 - i),
                df * f * (1.0 - f),
                dg * (1.0 - g**2),
                do * o * (1.0 - o),
            ],
            axis=1,
        )
        grads["W"] += da.T @ z
        grads["b"] += da.sum(axis=0)
        dz = da @ p["W"]
        dh_next = dz[:, 1:]
        dc_next = dc * f
    return loss, grads


def adam_step(model, grads: dict[str, np.ndarray], lr: float) -> None:
    if model._adam is None:
        model._adam = {}
        for k, v in model._params.items():
            model._adam["m_" + k] = np.zeros_like(v)
            model._adam["v_" + k] = np.zeros_like(v)
    model._steps += 1
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    norm = np.sqrt(sum(float((g**2).sum()) for g in grads.values()))
    if norm > 5.0:
        grads = {k: g * (5.0 / norm) for k, g in grads.items()}
    for k, g in grads.items():
        m = model._adam["m_" + k] = beta1 * model._adam["m_" + k] + (1 - beta1) * g
        v = model._adam["v_" + k] = beta2 * model._adam["v_" + k] + (1 - beta2) * g**2
        m_hat = m / (1 - beta1**model._steps)
        v_hat = v / (1 - beta2**model._steps)
        model._params[k] -= lr * m_hat / (np.sqrt(v_hat) + eps)


def fit(
    model,
    series: np.ndarray,
    epochs: int = 60,
    window: int = 40,
    batch_size: int = 64,
    lr: float = 2e-2,
) -> list[float]:
    """``LSTMSpeedModel.fit`` as it was: per-window ``np.stack`` batches."""
    series = np.asarray(series, dtype=np.float64)
    n_nodes, length = series.shape
    window = min(window, length)
    rng = as_rng(model.seed)
    model._mu = float(series.mean())
    model._sigma = float(series.std()) or 1.0
    normed = (series - model._mu) / model._sigma
    losses = []
    for _ in range(epochs):
        rows = rng.integers(0, n_nodes, size=batch_size)
        if length == window:
            starts = np.zeros(batch_size, dtype=np.int64)
        else:
            starts = rng.integers(0, length - window, size=batch_size)
        batch = np.stack([normed[r, s : s + window] for r, s in zip(rows, starts)])
        preds, caches = forward(model, batch)
        loss, grads = backward(model, batch, preds, caches)
        adam_step(model, grads, lr)
        losses.append(loss)
    return losses


def predict_series(model, series: np.ndarray) -> np.ndarray:
    series = np.asarray(series, dtype=np.float64)
    preds, _ = forward(model, (series - model._mu) / model._sigma)
    return preds * model._sigma + model._mu


def step(model, state, x: np.ndarray) -> np.ndarray:
    """``LSTMSpeedModel.step`` as it was: three separate gate sigmoids."""
    p = model._params
    h_dim = model.hidden
    x = np.asarray(x, dtype=np.float64)
    z = np.concatenate([((x - model._mu) / model._sigma)[:, None], state.h], axis=1)
    a = z @ p["W"].T + p["b"]
    i = sigmoid(a[:, :h_dim])
    f = sigmoid(a[:, h_dim : 2 * h_dim])
    g = np.tanh(a[:, 2 * h_dim : 3 * h_dim])
    o = sigmoid(a[:, 3 * h_dim :])
    state.c = f * state.c + i * g
    state.h = o * np.tanh(state.c)
    return (state.h @ p["Wy"].T + p["by"])[:, 0] * model._sigma + model._mu


# -------------------------------------------------------------------- ARIMA
def css(params: np.ndarray, diffs_list: list[np.ndarray]) -> float:
    """``ARIMA111Model._css`` as it was: a scalar loop over every residual."""
    c, phi, theta = params
    total = 0.0
    for diffs in diffs_list:
        err_prev = 0.0
        for t in range(1, diffs.size):
            err = diffs[t] - c - phi * diffs[t - 1] - theta * err_prev
            total += err * err
            err_prev = err
    return total


def arima_fit(series: np.ndarray) -> tuple[float, float, float]:
    """``ARIMA111Model.fit`` as it was; returns ``(intercept, phi, theta)``."""
    series = np.asarray(series, dtype=np.float64)
    diffs_list = [np.diff(row) for row in series]
    result = optimize.minimize(
        css,
        x0=np.array([0.0, 0.2, 0.1]),
        args=(diffs_list,),
        method="Nelder-Mead",
        options={"maxiter": 2000, "xatol": 1e-6, "fatol": 1e-9},
    )
    return tuple(float(v) for v in result.x)
