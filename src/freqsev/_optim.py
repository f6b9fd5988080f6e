"""Glorot initialization, flat parameter vectors, the Adam optimizer and
the early-stopping loop shared by the autoencoder and the networks.

A model keeps all its parameters in one flat vector `theta`; `views`
lays its named arrays over that vector, and over the flat gradient
vector of the same layout. Adam steps `theta` in place and allocates
nothing; it runs the textbook update one operation at a time, in the
order of the per-array formula, so every element gets the same bits as
`p - lr * m_hat / (sqrt(v_hat) + eps)` would give it. `theta` and the
moments are float64; the networks compute their gradient in float32 and
hand it over widened to float64. `early_stopping` runs the mini-batch
epochs around it, restores the best parameters and says which epoch they
came from.
"""

from __future__ import annotations

import math

import numpy as np

ADAM_LR = 1e-3
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
PATIENCE = 20
MAX_EPOCHS = 1000


def glorot(rng, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-limit, limit, shape)


def views(flat: np.ndarray, shapes: dict) -> dict[str, np.ndarray]:
    """Views of `flat`, one per name in `shapes` (name -> shape), laid end
    to end in the order of `shapes`; they must cover `flat` exactly."""
    out, pos = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        out[name] = flat[pos : pos + size].reshape(shape)
        pos += size
    if pos != len(flat):
        raise ValueError(f"flat vector has {len(flat)} elements, the layout {pos}")
    return out


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


def early_stopping(theta, grad, batch_gradient, validation_loss, n_rows, batch_size, rng,
                   max_epochs, patience, lr):
    """Mini-batch Adam on `theta`, in place, with early stopping.

    Scores the start with `validation_loss()`. Each epoch then draws a
    permutation of the `n_rows` training rows from `rng`, calls
    `batch_gradient(rows)` for every `batch_size` of them in turn (it
    writes the batch gradient at the current `theta` into `grad`), steps
    Adam, and scores again. Stops after `patience` epochs in a row that do
    not beat the best loss by more than 1e-12, or after
    `max_epochs`. `theta` ends at the best parameters scored.

    Returns the validation losses (the start's first) and the index of the
    best one in them."""
    adam = Adam(theta.size, lr)
    best_loss = validation_loss()
    best, best_epoch = theta.copy(), 0
    history = [best_loss]
    bad = 0
    for _ in range(max_epochs):
        order = rng.permutation(n_rows)
        for s in range(0, n_rows, batch_size):
            batch_gradient(order[s : s + batch_size])
            adam.step(theta, grad)
        loss = validation_loss()
        history.append(loss)
        if loss < best_loss - 1e-12:
            best_loss, best_epoch = loss, len(history) - 1
            np.copyto(best, theta)
            bad = 0
        else:
            bad += 1
            if bad >= patience:
                break
    np.copyto(theta, best)
    return history, best_epoch
