"""From-scratch NumPy LSTM for one-step speed forecasting (paper §6.1).

The paper's best model is deliberately tiny: a single LSTM layer with a
4-dimensional hidden state, 1-dimensional input and output, tanh cell
activation, fed the previous iteration's speed and predicting the next.
That is small enough to implement and train directly in NumPy (full BPTT +
Adam) with no deep-learning framework, which is exactly what this module
does.

At this size training is bound by interpreter round trips, not
arithmetic, so fits and forecasts run on a time-major kernel
(:class:`_BPTTKernel`): ``(T, ·, B)`` buffers allocated once per fit and
reused every epoch, with the batch on the contiguous last axis so each
per-step ufunc covers whole blocks; one clipped sigmoid over all ``4H``
gate pre-activations per step (:func:`_activate`, shared with the online
:meth:`LSTMSpeedModel.step`); one stacked readout after the forward
loop; backward multipliers precomputed once per batch so the reverse
recursion carries only ``dh``/``dc``; and the weight gradients as
stacked products summed in reverse time after the loop.  Every product
keeps its association order and every sum its summation order, so
losses, parameters and forecasts are bit for bit those of the per-step
loop kept in ``tests/prediction/fit_oracles.py``.  Where that rests on
how BLAS rounds (the per-step matmuls run transposed), the oracle tests
pin it over hidden sizes 1–6 and batches 1–70.

The public API speaks batch-major: a batch of ``B`` windows of length
``T`` is an array ``(B, T)``; the model predicts element ``t+1`` from the
prefix ending at ``t``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from repro._util import as_rng, check_positive_int

__all__ = ["LSTMSpeedModel", "LSTMState", "MAPE_EPS", "mape"]

#: Floor applied to MAPE denominators.  Straggler scenarios (e.g. spot
#: preemption) drive actual speeds arbitrarily close to zero, and a single
#: near-zero actual would otherwise blow the mean up to astronomical values
#: (or, at an exact zero, divide by zero).  The floor is far below every
#: generator's speed floor, so ordinary traces are unaffected bit for bit.
MAPE_EPS = 1e-8


#: Sigmoid constants as 0-d arrays: ufuncs take them without the
#: per-call conversion a Python float costs.
_CLIP_LO, _CLIP_HI, _ONE = np.array(-50.0), np.array(50.0), np.array(1.0)


def _activate(a: np.ndarray, out: np.ndarray, g_slot, g_out: np.ndarray) -> None:
    """Write the ``[i, f, ·, o]`` gates of pre-activations ``a`` into ``out``.

    One sigmoid over all ``4H`` slots — clipped for numerical robustness
    under exploratory learning rates, with ``np.minimum(np.maximum(·))``
    standing in for ``np.clip`` and its costly Python wrapper — then the
    cell candidate ``g = tanh(a[g_slot])`` goes to ``g_out`` (which may be
    ``out[g_slot]`` itself).
    """
    np.maximum(a, _CLIP_LO, out=out)
    np.minimum(out, _CLIP_HI, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.add(out, _ONE, out=out)
    np.divide(_ONE, out, out=out)
    np.tanh(a[g_slot], out=g_out)


def _reverse_time_sum(stack: np.ndarray) -> np.ndarray:
    """Sum per-step terms ``stack[t]`` from ``t = T-1`` down to ``0``.

    ``np.cumsum`` accumulates strictly in order (``add.reduce`` over a
    contiguous axis would sum pairwise), and the leading ``0.0 +``
    normalises signed zeros as accumulating into a zeroed array does.
    """
    return 0.0 + np.cumsum(stack[::-1], axis=0)[-1]


class _BPTTKernel:
    """Time-major forward/backward buffers for one ``(T, B)`` batch shape.

    Allocated once per :meth:`LSTMSpeedModel.fit` (or forecast) and
    reused every epoch.  Inside a step the batch is the contiguous last
    axis, so every per-step ufunc runs over whole ``(H, B)`` blocks
    rather than ``H``-wide column slices of ``(B, 4H)`` rows.  The two
    per-step matmuls (``W @ z`` and ``W.T @ da``) round exactly as the
    batch-major ``z @ W.T`` and ``da @ W`` do; the readout and the
    gradient products, which do not, run batch-major after the loop on
    transposed copies.  Layout, per step ``t``:

    * ``z[t]`` — the ``(1 + H, B)`` matmul input ``[x_t; h_{t-1}]``; the
      step writes ``h_t`` straight into ``z[t + 1, 1:]``;
    * ``gates[t]`` — ``(4H, B)`` sigmoids ``[i; f; ·; o]`` (``tanh`` of the
      ``g`` slot goes to ``pair``; the slot itself is scratch);
    * ``pair[t]`` — ``(5, H, B)`` operands paired up so each product is
      one ufunc call: ``[g_t, c_{t-1}]`` against ``[i_t, f_t]`` forward;
      ``[g_t, c_{t-1}, i_t]`` against ``dc`` and ``[tanh c_t, o_t]``
      against ``dh`` backward (``c_t`` lives in ``pair[t + 1, 1]``).
    """

    def __init__(self, steps: int, batch: int, h_dim: int) -> None:
        h = self.h_dim = h_dim
        self.z = np.zeros((steps + 1, 1 + h, batch))
        self.gates = np.empty((steps, 4 * h, batch))
        self.pair = np.zeros((steps + 1, 5, h, batch))
        self.h_bm = np.empty((steps, batch, h))  # batch-major h_t, for readout
        self.a = np.empty((4 * h, batch))
        self.prod = np.empty((2, h, batch))
        self.g_slot = np.s_[2 * h : 3 * h]
        gates4 = self.gates.reshape(steps, 4, h, batch)
        self._forward_views = [
            (self.z[t], self.gates[t], gates4[t, :2], gates4[t, 3],
             self.pair[t, 0], self.pair[t, :2], self.pair[t + 1, 1],
             self.pair[t, 3], self.z[t + 1, 1:])
            for t in range(steps)
        ]  # fmt: skip
        self._backward_views = None

    def forward(self, params: dict[str, np.ndarray], x: np.ndarray) -> np.ndarray:
        """Run the LSTM over time-major ``x`` (``(T, B)``); return ``(T, B)`` preds."""
        w, bias, a, g_slot = params["W"], params["b"][:, None], self.a, self.g_slot
        prod = self.prod
        i_g, f_c = prod
        self.z[:-1, 0] = x
        for z, gates, i_f, o, g, g_c, c, tanh_c, h in self._forward_views:
            np.matmul(w, z, out=a)
            np.add(a, bias, out=a)
            _activate(a, gates, g_slot, g)
            np.multiply(g_c, i_f, out=prod)  # [i·g, f·c_{t-1}]
            np.add(f_c, i_g, out=c)
            np.tanh(c, out=tanh_c)
            np.multiply(o, tanh_c, out=h)
        np.copyto(self.h_bm, self.z[1:, 1:].transpose(0, 2, 1))
        # One stacked readout; each slice is a per-step ``h @ Wy.T``.
        return (self.h_bm @ params["Wy"].T + params["by"])[..., 0]

    def _init_backward(self) -> None:
        steps, h, batch = self.gates.shape[0], self.h_dim, self.a.shape[1]
        self.da = np.empty((steps, 4 * h, batch))
        self.dhw = np.empty((steps, h, batch))
        self.dtanh = np.empty((steps, h, batch))
        self.u = np.empty((5, h, batch))  # [dc·g, dc·c, dc·i, dh·tanh c, dh·o]
        self.dz = np.empty((1 + h, batch))
        self.dh = np.empty((h, batch))
        self.dc = np.empty((h, batch))
        # The gates are dead once the reverse loop is done; their buffer
        # holds the batch-major copy of da until the next forward.
        self.da_bm = self.gates.reshape(steps, batch, 4 * h)
        # [z_t, 1]: the ones column makes BLAS sum da over the batch in
        # order, which is the per-step ``da.sum(axis=0)`` bit for bit.
        self.z_bm = np.ones((steps, batch, 2 + h))
        gates4 = self.gates.reshape(steps, 4, h, batch)
        da4 = self.da.reshape(steps, 4, h, batch)
        self._backward_views = [
            (self.dhw[t], self.pair[t, 3:], self.dtanh[t], self.pair[t, :3],
             gates4[t], da4[t], self.da[t], gates4[t, 1])
            for t in range(steps - 1, -1, -1)
        ]  # fmt: skip

    def backward(
        self, params: dict[str, np.ndarray], x: np.ndarray, preds: np.ndarray
    ) -> tuple[float, dict[str, np.ndarray]]:
        """BPTT for the one-step-ahead MSE loss after :meth:`forward`."""
        if self._backward_views is None:
            self._init_backward()
        h = self.h_dim
        gates, pair, da = self.gates, self.pair, self.da
        errors = preds[:-1] - x[1:]
        count = errors.size
        # The batch-major order the mean has always summed in.
        loss = float(np.mean(np.square(errors.T, order="C")))
        dy = np.zeros_like(x)
        np.multiply(2.0 / count, errors, out=dy[:-1])
        np.multiply(dy[:, None, :], params["Wy"][0][:, None], out=self.dhw)

        # Per-step multipliers, once per batch: pair gets i and o, da
        # starts as [1-i, 1-f, 1-g², 1-o], gates become [i, f, 1, o].
        pair[:-1, 2] = gates[:, :h]
        pair[:-1, 4] = gates[:, 3 * h :]
        np.subtract(1.0, gates, out=da)
        g, g_slot = pair[:-1, 0], da[:, self.g_slot]
        np.multiply(g, g, out=g_slot)
        np.subtract(1.0, g_slot, out=g_slot)
        gates[:, self.g_slot] = 1.0
        tanh_c = pair[:-1, 3]
        np.multiply(tanh_c, tanh_c, out=self.dtanh)
        np.subtract(1.0, self.dtanh, out=self.dtanh)

        w_t, dz, dh, dc = params["W"].T, self.dz, self.dh, self.dc
        u, u_dc, u_dh, dh_o = self.u[:4], self.u[:3], self.u[3:], self.u[4]
        dh_next = dz[1:]
        dh_next[...] = 0.0
        dc[...] = 0.0
        for dhw, tc_o, dtanh, partners, m1, da4, da_t, f in self._backward_views:
            np.add(dhw, dh_next, out=dh)
            np.multiply(dh, tc_o, out=u_dh)  # [do, dh·o]
            np.multiply(dh_o, dtanh, out=dh_o)
            np.add(dh_o, dc, out=dc)
            np.multiply(dc, partners, out=u_dc)  # [di, df, dg]
            np.multiply(u, m1, out=u)
            np.multiply(u, da4, out=da4)
            np.matmul(w_t, da_t, out=dz)
            np.multiply(dc, f, out=dc)

        # Gradient products and batch sums in the batch-major orientation
        # they have always been computed in.
        da_bm = self.da_bm
        np.copyto(da_bm, da.transpose(0, 2, 1))
        np.copyto(self.z_bm[..., :-1], self.z[:-1].transpose(0, 2, 1))
        w_b = _reverse_time_sum(np.matmul(da_bm.transpose(0, 2, 1), self.z_bm))
        # Contiguous copies, in this key order: the global-norm clip sums
        # each gradient in memory order and the gradients in key order.
        grads = {
            "W": w_b[:, :-1].copy(),
            "b": w_b[:, -1].copy(),
            "Wy": _reverse_time_sum(np.matmul(dy[:, None, :], self.h_bm)),
            "by": _reverse_time_sum(dy.sum(axis=1)[:, None]),
        }
        return loss, grads


def _check_fit_args(epochs, window, batch_size, lr) -> None:
    """Reject bad :meth:`LSTMSpeedModel.fit` arguments by name."""

    def is_int(value) -> bool:
        return isinstance(value, numbers.Integral) and not isinstance(value, bool)

    if not is_int(epochs) or epochs < 0:
        raise ValueError(f"epochs must be a non-negative int, got {epochs!r}")
    if not is_int(batch_size) or batch_size < 1:
        raise ValueError(f"batch_size must be a positive int, got {batch_size!r}")
    if not is_int(window) or window < 2:
        raise ValueError(f"window must be an int >= 2, got {window!r}")
    real = isinstance(lr, numbers.Real) and not isinstance(lr, bool)
    if not (real and math.isfinite(lr) and lr > 0):
        raise ValueError(f"lr must be positive and finite, got {lr!r}")


def mape(
    predicted: np.ndarray, actual: np.ndarray, eps: float = MAPE_EPS
) -> float:
    """Mean absolute percentage error, the paper's accuracy metric (§6.1).

    Denominators are floored at ``eps`` (see :data:`MAPE_EPS`), so a
    preempted near-zero speed sample cannot dominate — or crash — the
    mean.  Speeds are nonnegative by the simulators' contract; negative
    actuals indicate a caller bug and are rejected.
    """
    predicted = np.asarray(predicted, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if predicted.shape != actual.shape:
        raise ValueError("predicted and actual must have the same shape")
    if eps <= 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    if np.any(actual < 0):
        raise ValueError("actual values must be nonnegative for MAPE")
    return float(np.mean(np.abs(predicted - actual) / np.maximum(actual, eps)))


@dataclass
class LSTMState:
    """Recurrent state for online (per-iteration) prediction."""

    h: np.ndarray
    c: np.ndarray


@dataclass
class LSTMSpeedModel:
    """Single-layer LSTM with linear readout, trained by full BPTT + Adam.

    Parameters
    ----------
    hidden:
        Hidden-state dimension (paper: 4).
    seed:
        Parameter-initialisation and batching seed.
    """

    hidden: int = 4
    seed: int | None = 0
    _params: dict[str, np.ndarray] = field(init=False, repr=False)
    _adam: dict[str, np.ndarray] | None = field(init=False, repr=False, default=None)
    _steps: int = field(init=False, default=0)
    #: Input/target standardisation (fitted mean and scale). Standardising
    #: makes the near-identity mapping the data demands vastly easier to
    #: learn for a 4-unit network than raw speeds in (0, 1].
    _mu: float = field(init=False, default=0.0)
    _sigma: float = field(init=False, default=1.0)

    def __post_init__(self) -> None:
        check_positive_int(self.hidden, "hidden")
        rng = as_rng(self.seed)
        h = self.hidden
        scale = 1.0 / np.sqrt(h + 1)
        weights = rng.standard_normal((4 * h, 1 + h)) * scale
        bias = np.zeros(4 * h)
        bias[h : 2 * h] = 1.0  # forget-gate bias init: remember by default
        self._params = {
            "W": weights,
            "b": bias,
            "Wy": rng.standard_normal((1, h)) * scale,
            "by": np.zeros(1),
        }

    # ------------------------------------------------------------------ core
    def _adam_step(self, grads: dict[str, np.ndarray], lr: float) -> None:
        if self._adam is None:
            self._adam = {}
            for k, v in self._params.items():
                self._adam["m_" + k] = np.zeros_like(v)
                self._adam["v_" + k] = np.zeros_like(v)
        self._steps += 1
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        # Global-norm gradient clipping keeps tiny-batch BPTT stable.
        norm = np.sqrt(sum(float((g**2).sum()) for g in grads.values()))
        if norm > 5.0:
            grads = {k: g * (5.0 / norm) for k, g in grads.items()}
        for k, g in grads.items():
            m = self._adam["m_" + k] = beta1 * self._adam["m_" + k] + (1 - beta1) * g
            v = self._adam["v_" + k] = beta2 * self._adam["v_" + k] + (1 - beta2) * g**2
            m_hat = m / (1 - beta1**self._steps)
            v_hat = v / (1 - beta2**self._steps)
            self._params[k] -= lr * m_hat / (np.sqrt(v_hat) + eps)

    # ------------------------------------------------------------------ API
    def fit(
        self,
        series: np.ndarray,
        epochs: int = 60,
        window: int = 40,
        batch_size: int = 64,
        lr: float = 2e-2,
    ) -> list[float]:
        """Train on windows sampled from ``series`` (``(N, L)``).

        Returns the per-epoch training losses (decreasing loss is the
        training sanity check used by the tests).  ``epochs`` must be a
        non-negative int, ``batch_size`` a positive int, ``window`` an int
        of at least 2 (capped at the series length) and ``lr`` positive
        and finite; each batch gathers ``batch_size`` random windows.
        """
        _check_fit_args(epochs, window, batch_size, lr)
        series = np.asarray(series, dtype=np.float64)
        if series.ndim != 2:
            raise ValueError("series must be 2-D (nodes, length)")
        n_nodes, length = series.shape
        window = min(window, length)
        if window < 2:
            raise ValueError("series too short: need at least 2 samples")
        rng = as_rng(self.seed)
        self._mu = float(series.mean())
        self._sigma = float(series.std()) or 1.0
        normed = (series - self._mu) / self._sigma
        kernel = _BPTTKernel(window, batch_size, self.hidden)
        offsets = np.arange(window)[:, None]
        losses = []
        for _ in range(epochs):
            rows = rng.integers(0, n_nodes, size=batch_size)
            if length == window:
                starts = np.zeros(batch_size, dtype=np.int64)
            else:
                starts = rng.integers(0, length - window, size=batch_size)
            batch = normed[rows, starts + offsets]  # (window, batch_size)
            preds = kernel.forward(self._params, batch)
            loss, grads = kernel.backward(self._params, batch, preds)
            self._adam_step(grads, lr)
            losses.append(loss)
        return losses

    def predict_series(self, series: np.ndarray) -> np.ndarray:
        """One-step-ahead predictions for each time step of ``(N, L)``.

        ``out[:, t]`` is the model's forecast of ``series[:, t + 1]`` given
        the prefix through ``t``; the last column forecasts the step after
        the series ends.
        """
        series = np.asarray(series, dtype=np.float64)
        if series.ndim != 2:
            raise ValueError("series must be 2-D (nodes, length)")
        normed = (series - self._mu) / self._sigma
        kernel = _BPTTKernel(series.shape[1], series.shape[0], self.hidden)
        preds = kernel.forward(self._params, normed.T)
        return np.ascontiguousarray(preds.T) * self._sigma + self._mu

    def evaluate_mape(self, series: np.ndarray) -> float:
        """One-step-ahead MAPE over a held-out ``(N, L)`` set (§6.1 metric)."""
        series = np.asarray(series, dtype=np.float64)
        preds = self.predict_series(series)
        return mape(preds[:, :-1], series[:, 1:])

    def initial_state(self, batch: int) -> LSTMState:
        """Fresh recurrent state for ``batch`` parallel nodes."""
        check_positive_int(batch, "batch")
        return LSTMState(
            h=np.zeros((batch, self.hidden)), c=np.zeros((batch, self.hidden))
        )

    def step(self, state: LSTMState, x: np.ndarray) -> np.ndarray:
        """Advance one time step: observe speeds ``x`` (B,), predict next.

        Mutates ``state`` in place and returns the ``(B,)`` forecasts —
        the online path used by the S2C2 master every iteration (§6.2).
        """
        p = self._params
        h_dim = self.hidden
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (state.h.shape[0],):
            raise ValueError(
                f"x must have shape ({state.h.shape[0]},), got {x.shape}"
            )
        z = np.concatenate(
            [((x - self._mu) / self._sigma)[:, None], state.h], axis=1
        )
        a = z @ p["W"].T + p["b"]
        gates = np.empty_like(a)
        g_slot = np.s_[:, 2 * h_dim : 3 * h_dim]
        _activate(a, gates, g_slot, gates[g_slot])
        i, f, g, o = gates.reshape(-1, 4, h_dim).transpose(1, 0, 2)
        state.c = f * state.c + i * g
        state.h = o * np.tanh(state.c)
        return (state.h @ p["Wy"].T + p["by"])[:, 0] * self._sigma + self._mu

    def step_stacked(self, state: LSTMState, x: np.ndarray) -> np.ndarray:
        """Advance one step for a stacked ``(trials, nodes)`` observation.

        The recurrent math is row-independent, so a whole Monte-Carlo
        batch shares one ``initial_state(trials * nodes)`` and advances in
        a single :meth:`step` call per round; row ``(t, n)`` evolves bit
        for bit as node ``n`` of an independent trial-``t`` state would.
        This is the kernel behind
        :class:`~repro.prediction.predictor.BatchLSTMPredictor`.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"x must be 2-D (trials, nodes), got shape {x.shape}")
        return self.step(state, x.reshape(-1)).reshape(x.shape)
