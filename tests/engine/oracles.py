"""Scalar reference implementation pinned against the tight P² fold.

The original one-call-per-observation P² update (Jain & Chlamtac '85) of
the ``quantile`` reducer, kept verbatim as an independent oracle:
:func:`repro.engine.reduce._p2_feed` must reproduce its marker heights
and positions bit for bit.
"""

from __future__ import annotations

import numpy as np


def p2_new(prob: float) -> dict:
    """Fresh P² marker state for one probe quantile."""
    return {"p": prob, "init": [], "heights": [], "pos": []}


def p2_update(state: dict, x: float) -> None:
    """Feed one observation into a P² estimator (Jain & Chlamtac '85)."""
    p = state["p"]
    if state["pos"] == []:
        state["init"].append(x)
        if len(state["init"]) == 5:
            state["heights"] = sorted(state["init"])
            state["pos"] = [1.0, 2.0, 3.0, 4.0, 5.0]
            state["init"] = []
        return
    q, n = state["heights"], state["pos"]
    if x < q[0]:
        q[0] = x
        k = 0
    elif x >= q[4]:
        q[4] = x
        k = 3
    else:
        k = next(i for i in range(4) if q[i] <= x < q[i + 1])
    for i in range(k + 1, 5):
        n[i] += 1.0
    count = n[4]
    desired = [
        1.0,
        1.0 + (count - 1.0) * p / 2.0,
        1.0 + (count - 1.0) * p,
        1.0 + (count - 1.0) * (1.0 + p) / 2.0,
        count,
    ]
    for i in (1, 2, 3):
        d = desired[i] - n[i]
        if (d >= 1.0 and n[i + 1] - n[i] > 1.0) or (
            d <= -1.0 and n[i - 1] - n[i] < -1.0
        ):
            d = 1.0 if d >= 0 else -1.0
            # Parabolic (P²) adjustment, falling back to linear when it
            # would leave the markers unordered.
            hp = q[i] + d / (n[i + 1] - n[i - 1]) * (
                (n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1])
            )
            if not q[i - 1] < hp < q[i + 1]:
                hp = q[i] + d * (q[i + int(d)] - q[i]) / (n[i + int(d)] - n[i])
            q[i] = hp
            n[i] += d


def p2_feed(state: dict, xs: np.ndarray) -> None:
    for x in xs:
        p2_update(state, float(x))
