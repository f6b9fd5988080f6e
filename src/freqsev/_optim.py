"""Glorot initialization and the Adam optimizer shared by the
autoencoder and the networks."""

from __future__ import annotations

import numpy as np

ADAM_LR = 1e-3
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def glorot(rng, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-limit, limit, shape)


class Adam:
    """Adam state for a fixed list of parameter arrays."""

    def __init__(self, params, lr: float = ADAM_LR):
        self.lr = lr
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, params, grads) -> list[np.ndarray]:
        """The updated parameters after one step along `grads`."""
        self.t += 1
        out = []
        for j, (p, g) in enumerate(zip(params, grads)):
            self.m[j] = ADAM_BETA1 * self.m[j] + (1 - ADAM_BETA1) * g
            self.v[j] = ADAM_BETA2 * self.v[j] + (1 - ADAM_BETA2) * g * g
            m_hat = self.m[j] / (1 - ADAM_BETA1**self.t)
            v_hat = self.v[j] / (1 - ADAM_BETA2**self.t)
            out.append(p - self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS))
        return out
