"""Autoencoder embedding of one-hot categorical blocks.

A single linear encoding layer of dimension d and a linear decoding layer
back to the one-hot width, with a per-variable softmax on the output and
cross-entropy reconstruction loss. Training keeps the four weight arrays
as views of one flat vector and runs the `early_stopping` loop of
`freqsev._optim`, the one the networks use. After training, the encoder
weights are rescaled so the codes have zero mean and unit variance on
the training rows; the scaled encoder is then grafted onto the
downstream networks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from ._optim import ADAM_LR, MAX_EPOCHS, PATIENCE, early_stopping, glorot, views
from ._rand import substream

BATCH_SIZE = 1000
CE_THRESHOLD = 1e-3  # mean cross-entropy per observation
DIM_CANDIDATES = (5, 10, 15)


class EmbeddingError(ValueError):
    pass


@dataclass(frozen=True)
class Autoencoder:
    """Linear autoencoder over concatenated one-hot blocks."""

    w_enc: np.ndarray  # d x sum(L_j)
    b_enc: np.ndarray  # d
    w_dec: np.ndarray  # sum(L_j) x d
    b_dec: np.ndarray  # sum(L_j)
    blocks: tuple[tuple[str, int], ...]
    scaled: bool = False

    @property
    def dim(self) -> int:
        return len(self.b_enc)

    @property
    def input_width(self) -> int:
        return sum(width for _, width in self.blocks)

    def __post_init__(self):
        if self.w_enc.shape != (self.dim, self.input_width):
            raise EmbeddingError("encoder weight shape inconsistent with block structure")
        if self.w_dec.shape != (self.input_width, self.dim):
            raise EmbeddingError("decoder weight shape inconsistent with block structure")


def encode(ae: Autoencoder, one_hot_rows: np.ndarray) -> np.ndarray:
    """Identity-activation codes W_enc x + b_enc (scaled weights if the
    encoder was rescaled). Accepts a single row or a matrix."""
    x = np.atleast_2d(np.asarray(one_hot_rows, dtype=float))
    if x.shape[1] != ae.input_width:
        raise EmbeddingError(f"expected width {ae.input_width}, got {x.shape[1]}")
    codes = x @ ae.w_enc.T + ae.b_enc
    return codes[0] if np.ndim(one_hot_rows) == 1 else codes


def _block_softmax(logits: np.ndarray, blocks) -> np.ndarray:
    out = np.empty_like(logits)
    offset = 0
    for _, width in blocks:
        z = logits[:, offset : offset + width]
        z = z - z.max(axis=1, keepdims=True)
        ez = np.exp(z)
        out[:, offset : offset + width] = ez / ez.sum(axis=1, keepdims=True)
        offset += width
    return out


def decode_softmax(ae: Autoencoder, codes: np.ndarray) -> np.ndarray:
    """Per-block probability vectors; each block sums to one."""
    z = np.atleast_2d(np.asarray(codes, dtype=float))
    if z.shape[1] != ae.dim:
        raise EmbeddingError(f"expected code length {ae.dim}, got {z.shape[1]}")
    logits = z @ ae.w_dec.T + ae.b_dec
    probs = _block_softmax(logits, ae.blocks)
    return probs[0] if np.ndim(codes) == 1 else probs


def cross_entropy(probs: np.ndarray, one_hot: np.ndarray) -> float:
    """Mean reconstruction cross-entropy per observation."""
    p = np.atleast_2d(probs)
    x = np.atleast_2d(one_hot)
    return float(-np.sum(x * np.log(np.maximum(p, 1e-300))) / len(p))


def reconstruction_loss(ae: Autoencoder, one_hot: np.ndarray) -> float:
    return cross_entropy(decode_softmax(ae, encode(ae, one_hot)), one_hot)


def train_autoencoder(
    one_hot_matrix: np.ndarray,
    blocks,
    d: int,
    seed: int = 0,
    max_epochs: int = MAX_EPOCHS,
    lr: float = ADAM_LR,
) -> Autoencoder:
    """Adam-train to minimize the per-variable softmax cross-entropy in
    batches of `BATCH_SIZE` rows, with early stopping on a random 20%
    validation split and best-weights restore (`early_stopping`)."""
    if d < 1:
        raise EmbeddingError("encoding dimension must be >= 1")
    x = np.asarray(one_hot_matrix, dtype=float)
    width = sum(w for _, w in blocks)
    if x.shape[1] != width:
        raise EmbeddingError("one-hot width does not match block structure")
    if d >= width:
        warnings.warn(f"encoding dimension {d} >= input width {width}: no compression")
    rng = substream(seed, "autoencoder", d)
    n = len(x)
    perm = rng.permutation(n)
    n_val = max(1, int(round(0.2 * n))) if n > 1 else 0
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    if len(train_idx) == 0:
        train_idx = perm
    x_train, x_val = x[train_idx], x[val_idx] if n_val else x[train_idx]

    shapes = {"w_enc": (d, width), "b_enc": (d,), "w_dec": (width, d), "b_dec": (width,)}
    theta = np.concatenate(
        [glorot(rng, (d, width)).ravel(), np.zeros(d), glorot(rng, (width, d)).ravel(), np.zeros(width)]
    )
    grad = np.empty_like(theta)
    p, g = views(theta, shapes), views(grad, shapes)

    def batch_gradient(rows):
        xb = x_train[rows]
        codes = xb @ p["w_enc"].T + p["b_enc"]
        logits = codes @ p["w_dec"].T + p["b_dec"]
        probs = _block_softmax(logits, blocks)
        dlogits = (probs - xb) / len(xb)  # softmax + CE shortcut per block
        dcodes = dlogits @ p["w_dec"]
        np.matmul(dcodes.T, xb, out=g["w_enc"])
        np.sum(dcodes, axis=0, out=g["b_enc"])
        np.matmul(dlogits.T, codes, out=g["w_dec"])
        np.sum(dlogits, axis=0, out=g["b_dec"])

    def validation_loss():
        return reconstruction_loss(Autoencoder(**p, blocks=tuple(blocks)), x_val)

    early_stopping(theta, grad, batch_gradient, validation_loss, len(x_train), BATCH_SIZE, rng,
                   max_epochs, PATIENCE, lr)
    return Autoencoder(**p, blocks=tuple(blocks))


def select_dimension(
    one_hot_matrix: np.ndarray,
    blocks,
    candidates=DIM_CANDIDATES,
    seed: int = 0,
    **train_kwargs,
) -> tuple[int | None, Autoencoder | None, bool]:
    """Smallest candidate dimension whose training cross-entropy is below
    `CE_THRESHOLD`. Falls back to the largest candidate with a warning
    when none qualifies. Returns (d, trained autoencoder, qualified).

    A candidate at or above the one-hot width compresses nothing and is
    not trained; with none below it, returns (None, None, False)."""
    width = sum(w for _, w in blocks)
    candidates = sorted(d for d in candidates if d < width)
    if not candidates:
        return None, None, False
    for d in candidates:
        ae = train_autoencoder(one_hot_matrix, blocks, d, seed=seed, **train_kwargs)
        loss = reconstruction_loss(ae, one_hot_matrix)
        last = (d, ae)
        if loss < CE_THRESHOLD:
            return d, ae, True
    warnings.warn(
        f"no candidate dimension reached cross-entropy < {CE_THRESHOLD}; using {last[0]}"
    )
    return last[0], last[1], False


def scale_encoder(ae: Autoencoder, training_one_hot: np.ndarray) -> Autoencoder:
    """Rescale encoder rows so training codes have zero mean, unit sd:
    row k of W divided by sigma_k, b_k -> (b_k - mu_k) / sigma_k."""
    if ae.scaled:
        raise EmbeddingError("encoder already scaled")
    codes = encode(ae, training_one_hot)
    mu = codes.mean(axis=0)
    sigma = codes.std(axis=0)
    dead = np.flatnonzero(sigma == 0)
    if dead.size:
        raise EmbeddingError(
            f"dead code nodes {dead.tolist()} (zero variance); re-init or reduce d"
        )
    return replace(
        ae,
        w_enc=ae.w_enc / sigma[:, None],
        b_enc=(ae.b_enc - mu) / sigma,
        scaled=True,
    )
