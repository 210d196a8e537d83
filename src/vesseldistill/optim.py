"""AdamW optimizer and the step learning-rate schedule."""

from __future__ import annotations

import numpy as np

from .network import _check_flat

_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # Adam's defaults (Kingma & Ba 2015)


class AdamW:
    """AdamW with decoupled weight decay over one flat weight array, stepped
    in place, and one flat m and one flat v of its layout."""

    def __init__(self, weights, lr=1e-3, weight_decay=1e-5):
        self.weights = weights
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = np.zeros_like(weights)
        self.v = np.zeros_like(weights)

    def step(self, grad, lr=None):
        """One step with the flat gradient `grad` of all the weights, zero outside the loss's
        graph; ValueError naming both shapes, changing nothing, unless it has their shape."""
        if grad.shape != self.weights.shape:
            raise ValueError(f"gradient of shape {grad.shape} does not match "
                             f"the weights' shape {self.weights.shape}")
        if lr is not None:
            self.lr = lr
        self.t += 1
        bc1, bc2 = 1.0 - _BETA1 ** self.t, 1.0 - _BETA2 ** self.t
        w, m, v = self.weights, self.m, self.v
        w -= self.lr * self.weight_decay * w
        m[...] = _BETA1 * m + (1.0 - _BETA1) * grad
        v[...] = _BETA2 * v + (1.0 - _BETA2) * (grad * grad)
        w -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + _EPS)

    def state_arrays(self):
        """t, and copies of the flat m and v."""
        return {"t": np.array(self.t, dtype=np.int64), "m": self.m.copy(), "v": self.v.copy()}

    def load_state_arrays(self, state):
        """Inverse of state_arrays; KeyError if `state` lacks t, m or v, and ValueError
        unless t is a 0-d integer array >= 0 and m and v are flat arrays of the weights'
        length (else naming both lengths) and dtype."""
        t = np.asarray(state["t"])
        if t.shape != () or t.dtype.kind not in "iu" or t < 0:
            raise ValueError(f"optimizer state 't' is {t!r}, not a 0-d integer array >= 0")
        self.t = int(t)
        for kind in ("m", "v"):
            moment = _check_flat(state[kind], len(self.weights), f"optimizer state {kind!r}",
                                 "the weights")
            if moment.dtype != self.weights.dtype:
                raise ValueError(f"optimizer state {kind!r} has dtype {moment.dtype}, "
                                 f"but the weights {self.weights.dtype}")
            getattr(self, kind)[...] = moment


def lr_at(t, initial_lr, gamma, step_every):
    """Learning rate for epoch t (1-based): times gamma every step_every epochs."""
    if t < 1:
        raise ValueError(f"epoch must be >= 1, got {t}")
    if not step_every >= 1:  # 0 divides by zero, below it the rate grows, NaN fails it too
        raise ValueError(f"step_every must be >= 1, got {step_every}")
    return initial_lr * gamma ** ((t - 1) // step_every)
