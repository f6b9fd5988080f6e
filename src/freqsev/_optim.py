"""Glorot initialization and the Adam optimizer shared by the
autoencoder and the networks.

Adam works on one flat parameter vector and steps it in place: a model
keeps its parameter arrays as views of that vector and writes their
gradients into views of one flat gradient vector. The step allocates
nothing; it runs the textbook update one operation at a time, in the
order of the per-array formula, so every element gets the same bits as
`p - lr * m_hat / (sqrt(v_hat) + eps)` would give it.
"""

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
    """Adam state for one flat parameter vector of `size` elements."""

    def __init__(self, size: int, lr: float = ADAM_LR):
        self.lr = lr
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._step = np.empty(size)
        self._scale = np.empty(size)
        self.t = 0

    def step(self, theta: np.ndarray, grad: np.ndarray) -> None:
        """Move `theta` in place one step along `grad`."""
        self.t += 1
        step, scale = self._step, self._scale
        self.m *= ADAM_BETA1
        np.multiply(grad, 1 - ADAM_BETA1, out=step)
        self.m += step
        self.v *= ADAM_BETA2
        np.multiply(grad, 1 - ADAM_BETA2, out=step)
        step *= grad
        self.v += step
        np.divide(self.m, 1 - ADAM_BETA1**self.t, out=step)  # m_hat
        step *= self.lr
        np.divide(self.v, 1 - ADAM_BETA2**self.t, out=scale)  # v_hat
        np.sqrt(scale, out=scale)
        scale += ADAM_EPS
        step /= scale
        theta -= step
