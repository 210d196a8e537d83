"""AdamW optimizer and the step learning-rate schedule."""

from __future__ import annotations

import numpy as np

_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # Adam's defaults (Kingma & Ba 2015)


class AdamW:
    """AdamW with decoupled weight decay over a list of parameter tensors."""

    def __init__(self, params, lr=1e-3, weight_decay=1e-5):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self, lr=None):
        if lr is not None:
            self.lr = lr
        self.t += 1
        bc1 = 1.0 - _BETA1 ** self.t
        bc2 = 1.0 - _BETA2 ** self.t
        for i, p in enumerate(self.params):
            # decay is decoupled: applied even when the gradient is zero/absent
            p.data = p.data - self.lr * self.weight_decay * p.data
            if p.grad is None:
                continue
            g = p.grad
            self.m[i] = _BETA1 * self.m[i] + (1.0 - _BETA1) * g
            self.v[i] = _BETA2 * self.v[i] + (1.0 - _BETA2) * (g * g)
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + _EPS)
            p.grad = None  # consumed: a later graph without p must not reapply it

    def state_arrays(self):
        """t, and one flat m and one flat v: every parameter's moment
        raveled in parameter order."""
        return {"t": np.array(self.t, dtype=np.int64),
                "m": np.concatenate([m.ravel() for m in self.m]),
                "v": np.concatenate([v.ravel() for v in self.v])}

    def load_state_arrays(self, state):
        """Inverse of state_arrays; KeyError if `state` lacks t, m or v."""
        self.t = int(state["t"])
        self.m = self._moments(state["m"], "m")
        self.v = self._moments(state["v"], "v")

    def _moments(self, flat, kind):
        sizes = [p.data.size for p in self.params]
        if flat.size != sum(sizes):
            raise ValueError(f"optimizer state {kind!r} holds {flat.size} values, "
                             f"but the {len(sizes)} parameters need {sum(sizes)}")
        parts = np.split(flat, np.cumsum(sizes)[:-1])
        return [np.asarray(a, dtype=p.data.dtype).reshape(p.data.shape).copy()
                for a, p in zip(parts, self.params)]


def lr_at(t, initial_lr, gamma, step_every):
    """Learning rate for epoch t (1-based): times gamma every step_every epochs."""
    if t < 1:
        raise ValueError(f"epoch must be >= 1, got {t}")
    return initial_lr * gamma ** ((t - 1) // step_every)
