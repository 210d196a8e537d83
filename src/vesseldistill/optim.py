"""AdamW optimizer and the step learning-rate schedule."""

from __future__ import annotations

import numpy as np


class AdamW:
    """AdamW with decoupled weight decay over a list of parameter tensors."""

    def __init__(self, params, lr=1e-3, weight_decay=1e-5,
                 beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self, lr=None):
        if lr is not None:
            self.lr = lr
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for i, p in enumerate(self.params):
            # decay is decoupled: applied even when the gradient is zero/absent
            p.data = p.data - self.lr * self.weight_decay * p.data
            if p.grad is None:
                continue
            g = p.grad
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * (g * g)
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_arrays(self):
        state = {"t": np.array(self.t, dtype=np.int64)}
        for i in range(len(self.params)):
            state[f"m{i}"] = self.m[i].copy()
            state[f"v{i}"] = self.v[i].copy()
        return state

    def load_state_arrays(self, state):
        self.t = int(state["t"])
        for i, p in enumerate(self.params):
            self.m[i] = np.asarray(state[f"m{i}"], dtype=p.data.dtype).copy()
            self.v[i] = np.asarray(state[f"v{i}"], dtype=p.data.dtype).copy()


def lr_at(t, initial_lr, gamma=0.3, step_every=10):
    """Learning rate for epoch t (1-based): times gamma every step_every epochs."""
    if t < 1:
        raise ValueError(f"epoch must be >= 1, got {t}")
    return initial_lr * gamma ** ((t - 1) // step_every)
