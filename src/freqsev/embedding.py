"""Autoencoder embedding of one-hot categorical blocks.

A single linear encoding layer of dimension d and a linear decoding layer
back to the one-hot width, with a per-variable softmax on the output and
cross-entropy reconstruction loss. After training, the encoder weights
are rescaled so the codes have zero mean and unit variance on the
training rows; the scaled encoder is then grafted onto the downstream
networks.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, replace

import numpy as np

from ._optim import ADAM_LR, Adam, glorot
from ._rand import substream

BATCH_SIZE = 1000
PATIENCE = 20
MAX_EPOCHS = 1000
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
    batch_size: int = BATCH_SIZE,
    max_epochs: int = MAX_EPOCHS,
    patience: int = PATIENCE,
    lr: float = ADAM_LR,
) -> Autoencoder:
    """Adam-train to minimize the per-variable softmax cross-entropy,
    with early stopping on a random 20% validation split and best-weights
    restore."""
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

    params = [
        glorot(rng, (d, width)),
        np.zeros(d),
        glorot(rng, (width, d)),
        np.zeros(width),
    ]
    adam = Adam(params, lr)

    def loss_of(params, xb):
        ae = Autoencoder(params[0], params[1], params[2], params[3], tuple(blocks))
        return reconstruction_loss(ae, xb)

    best = (np.inf, [p.copy() for p in params])
    bad_epochs = 0
    for _ in range(max_epochs):
        order = rng.permutation(len(x_train))
        for s in range(0, len(order), batch_size):
            xb = x_train[order[s : s + batch_size]]
            w_enc, b_enc, w_dec, b_dec = params
            codes = xb @ w_enc.T + b_enc
            logits = codes @ w_dec.T + b_dec
            probs = _block_softmax(logits, blocks)
            bsz = len(xb)
            dlogits = (probs - xb) / bsz  # softmax + CE shortcut per block
            grads = [
                (dlogits @ w_dec).T @ xb,
                (dlogits @ w_dec).sum(axis=0),
                dlogits.T @ codes,
                dlogits.sum(axis=0),
            ]
            params = adam.step(params, grads)
        val_loss = loss_of(params, x_val)
        if val_loss < best[0] - 1e-12:
            best = (val_loss, [p.copy() for p in params])
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= patience:
                break
    params = best[1]
    return Autoencoder(params[0], params[1], params[2], params[3], tuple(blocks))


def select_dimension(
    one_hot_matrix: np.ndarray,
    blocks,
    candidates=DIM_CANDIDATES,
    seed: int = 0,
    threshold: float = CE_THRESHOLD,
    **train_kwargs,
) -> tuple[int, Autoencoder, bool]:
    """Smallest candidate dimension whose training cross-entropy is below
    the threshold. Falls back to the largest candidate with a warning
    when none qualifies. Returns (d, trained autoencoder, qualified)."""
    candidates = sorted(candidates)
    last = None
    for d in candidates:
        ae = train_autoencoder(one_hot_matrix, blocks, d, seed=seed, **train_kwargs)
        loss = reconstruction_loss(ae, one_hot_matrix)
        last = (d, ae)
        if loss < threshold:
            return d, ae, True
    warnings.warn(
        f"no candidate dimension reached cross-entropy < {threshold}; using {last[0]}"
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


def autoencoder_to_json(ae: Autoencoder) -> str:
    return json.dumps(
        {
            "w_enc": ae.w_enc.tolist(),
            "b_enc": ae.b_enc.tolist(),
            "w_dec": ae.w_dec.tolist(),
            "b_dec": ae.b_dec.tolist(),
            "blocks": [[name, width] for name, width in ae.blocks],
            "scaled": ae.scaled,
        }
    )


def autoencoder_from_json(text: str) -> Autoencoder:
    d = json.loads(text)
    return Autoencoder(
        np.asarray(d["w_enc"]),
        np.asarray(d["b_enc"]),
        np.asarray(d["w_dec"]),
        np.asarray(d["b_dec"]),
        tuple((name, int(width)) for name, width in d["blocks"]),
        d["scaled"],
    )
