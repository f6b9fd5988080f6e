"""Feed-forward networks and CANN variants trained by backprop + Adam.

Networks take normalized continuous inputs plus either the grafted
(pre-trained, rescaled) encoder codes or raw one-hot blocks, pass them
through equally sized hidden layers, and exponentiate a single output
node so predictions are strictly positive. A CANN adds a skip connection
from the log of an initial model's prediction straight to the output
node; the fixed variant pins the output combination at (1, 1, 0), the
flexible variant trains it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from ._optim import ADAM_LR, Adam, glorot
from ._rand import substream
from .data import Dataset, ScalingStats, normalize_continuous, one_hot
from .embedding import Autoencoder
from .evaluation import get_family

ACTIVATIONS = ("relu", "sigmoid", "softmax")

PATIENCE = 20
MAX_EPOCHS = 1000


class NeuralError(ValueError):
    pass


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture and training-batch choice for one candidate network."""

    hidden_layers: int
    nodes: int
    activation: str
    dropout: float
    batch_size: int
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.hidden_layers <= 4:
            raise NeuralError("hidden_layers must be in [1, 4]")
        if not 10 <= self.nodes <= 50:
            raise NeuralError("nodes per layer must be in [10, 50]")
        if self.activation not in ACTIVATIONS:
            raise NeuralError(f"activation must be one of {ACTIVATIONS}")
        if not 0.0 <= self.dropout <= 0.1:
            raise NeuralError("dropout rate must be in [0, 0.1]")
        if self.batch_size < 1:
            raise NeuralError("batch_size must be >= 1")


@dataclass(frozen=True)
class SearchSpace:
    """Tuning ranges for the random grid search."""

    hidden_layers: tuple[int, int] = (1, 4)
    nodes: tuple[int, int] = (10, 50)
    activations: tuple[str, ...] = ACTIVATIONS
    dropout: tuple[float, float] = (0.0, 0.1)
    batch_size: tuple[int, int] = (10_000, 50_000)  # frequency default


FREQUENCY_SPACE = SearchSpace()


def random_grid(space: SearchSpace, n: int = 40, seed: int = 0) -> list[NetworkSpec]:
    """`n` independent uniform draws per tuning axis (integer axes rounded)."""
    rng = substream(seed, "random-grid")
    specs = []
    for i in range(n):
        specs.append(
            NetworkSpec(
                hidden_layers=int(rng.integers(space.hidden_layers[0], space.hidden_layers[1] + 1)),
                nodes=int(rng.integers(space.nodes[0], space.nodes[1] + 1)),
                activation=str(rng.choice(space.activations)),
                dropout=float(rng.uniform(*space.dropout)),
                batch_size=int(rng.integers(space.batch_size[0], space.batch_size[1] + 1)),
                seed=i,
            )
        )
    return specs


# -- network parameters -------------------------------------------------


@dataclass
class Network:
    """Parameter container; `forward` and `train_network` do the work.

    `encoder` is the grafted (trainable) copy of a pre-trained scaled
    encoder; when None, one-hot blocks feed the hidden layers directly.
    `cann_mode` is None (plain FFNN), "fixed" or "flexible".
    """

    spec: NetworkSpec
    n_continuous: int
    onehot_width: int
    encoder_w: np.ndarray | None
    encoder_b: np.ndarray | None
    hidden: list[tuple[np.ndarray, np.ndarray]]
    out_w: np.ndarray  # (q,)
    out_b: float
    cann_mode: str | None = None
    cann_out: np.ndarray = field(default_factory=lambda: np.array([1.0, 1.0, 0.0]))
    history: dict = field(default_factory=dict)

    # -- parameter vector helpers (used by Adam and the gradient check)

    def _trainable(self):
        params = []
        if self.encoder_w is not None:
            params += [("encoder_w", None), ("encoder_b", None)]
        for i in range(len(self.hidden)):
            params += [("hidden", (i, 0)), ("hidden", (i, 1))]
        params += [("out_w", None), ("out_b", None)]
        if self.cann_mode == "flexible":
            params.append(("cann_out", None))
        return params

    def _get(self, key):
        name, idx = key
        if name == "hidden":
            return self.hidden[idx[0]][idx[1]]
        value = getattr(self, name)
        return np.atleast_1d(np.asarray(value, dtype=float))

    def _set(self, key, value):
        name, idx = key
        if name == "hidden":
            w, b = self.hidden[idx[0]]
            self.hidden[idx[0]] = (value, b) if idx[1] == 0 else (w, value)
        elif name == "out_b":
            self.out_b = float(value[0])
        else:
            setattr(self, name, value)

    def get_flat_params(self) -> np.ndarray:
        return np.concatenate([self._get(k).ravel() for k in self._trainable()])

    def set_flat_params(self, flat: np.ndarray) -> None:
        pos = 0
        for key in self._trainable():
            cur = self._get(key)
            size = cur.size
            self._set(key, flat[pos : pos + size].reshape(cur.shape))
            pos += size
        if pos != flat.size:
            raise NeuralError("flat parameter vector has wrong length")


def build_network(
    spec: NetworkSpec,
    n_continuous: int,
    encoder: Autoencoder | None = None,
    onehot_width: int = 0,
    cann_mode: str | None = None,
    out_bias: float = 0.0,
    seed: int = 0,
) -> Network:
    """Glorot-initialized network that starts exactly at its baseline.

    Plain and fixed-CANN networks zero the output weights, so the first
    forward pass is exp(out_bias) resp. the initial model's prediction.
    A flexible CANN instead keeps random output weights and zeroes the
    adjustment weight w_NN: the identity at initialization still holds,
    and the branch stays trainable (zeroing both would gate each weight's
    gradient by the other and freeze the adjustment permanently)."""
    rng = substream(seed, "init", spec.seed)
    if encoder is not None:
        if not encoder.scaled:
            raise NeuralError("grafted encoder must be scaled first")
        onehot_width = encoder.input_width
        width_in = n_continuous + encoder.dim
        enc_w, enc_b = encoder.w_enc.copy(), encoder.b_enc.copy()
    else:
        width_in = n_continuous + onehot_width
        enc_w = enc_b = None
    hidden = []
    prev = width_in
    for _ in range(spec.hidden_layers):
        hidden.append((glorot(rng, (spec.nodes, prev)), np.zeros(spec.nodes)))
        prev = spec.nodes
    if cann_mode not in (None, "fixed", "flexible"):
        raise NeuralError(f"unknown CANN mode {cann_mode!r}")
    return Network(
        spec=spec,
        n_continuous=n_continuous,
        onehot_width=onehot_width,
        encoder_w=enc_w,
        encoder_b=enc_b,
        hidden=hidden,
        out_w=glorot(rng, (1, prev))[0] if cann_mode == "flexible" else np.zeros(prev),
        out_b=float(out_bias) if cann_mode is None else 0.0,
        cann_mode=cann_mode,
        cann_out=np.array([0.0, 1.0, 0.0]) if cann_mode == "flexible" else np.array([1.0, 1.0, 0.0]),
    )


def _activate(name, z):
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    # softmax applied over the collection of all nodes in the layer
    zs = z - z.max(axis=1, keepdims=True)
    ez = np.exp(zs)
    return ez / ez.sum(axis=1, keepdims=True)


def _activate_backward(name, a, da):
    """Gradient in the pre-activation from the activation `a` alone."""
    if name == "relu":
        return da * (a > 0)
    if name == "sigmoid":
        return da * a * (1.0 - a)
    return a * (da - np.sum(da * a, axis=1, keepdims=True))


def forward(
    net: Network,
    x_cont: np.ndarray,
    x_onehot: np.ndarray,
    log_y_in: np.ndarray | None = None,
    dropout_rng: np.random.Generator | None = None,
    keep_cache: bool = False,
):
    """Row predictions exp(u); dropout only when a dropout rng is given
    (training), so inference is deterministic."""
    if net.cann_mode is not None:
        if log_y_in is None:
            raise NeuralError("CANN forward needs the initial model's log-predictions")
    if net.encoder_w is not None:
        codes = x_onehot @ net.encoder_w.T + net.encoder_b
        h = np.hstack([x_cont, codes]) if net.n_continuous else codes
    else:
        h = np.hstack([x_cont, x_onehot]) if net.onehot_width else x_cont
    cache = {"h0": h, "layers": []}
    for i, (w, b) in enumerate(net.hidden):
        z = h @ w.T + b
        a = _activate(net.spec.activation, z)
        mask = None
        if dropout_rng is not None and net.spec.dropout > 0:
            keep = 1.0 - net.spec.dropout
            mask = (dropout_rng.random(a.shape) < keep) / keep
        # the backward pass differentiates the activation before the mask
        cache["layers"].append((a, mask, h))
        h = a if mask is None else a * mask
    y_nn = h @ net.out_w + net.out_b
    if net.cann_mode is None:
        u = y_nn
    else:
        w_nn, w_in, b_c = net.cann_out
        u = w_nn * y_nn + w_in * log_y_in + b_c
    if not np.all(np.isfinite(u)):
        raise NeuralError("non-finite value at the output layer")
    pred = np.exp(u)
    if keep_cache:
        cache.update({"y_nn": y_nn, "u": u, "pred": pred, "h_last": h})
        return pred, cache
    return pred


def loss_and_gradients(
    net: Network,
    x_cont,
    x_onehot,
    y,
    family,
    obs_weight,
    log_y_in=None,
    dropout_rng=None,
):
    """Mean deviance loss on the batch and gradients for every trainable
    parameter, keyed like Network._trainable(). obs_weight: exposure
    (Poisson) or claim count (gamma)."""
    fam = get_family(family, NeuralError)
    pred, cache = forward(net, x_cont, x_onehot, log_y_in, dropout_rng, keep_cache=True)
    loss, du = fam.network_loss(pred, y, obs_weight)
    grads = {}
    if net.cann_mode == "flexible":
        w_nn = net.cann_out[0]
        grads[("cann_out", None)] = np.array(
            [float(du @ cache["y_nn"]), float(du @ log_y_in), float(du.sum())]
        )
        dy_nn = du * w_nn
    else:
        dy_nn = du  # plain network, or fixed CANN with w_nn pinned at 1
    h_last = cache["h_last"]
    grads[("out_w", None)] = h_last.T @ dy_nn
    grads[("out_b", None)] = np.array([float(dy_nn.sum())])
    dh = np.outer(dy_nn, net.out_w)
    for i in range(len(net.hidden) - 1, -1, -1):
        a, mask, h_in = cache["layers"][i]
        if mask is not None:
            dh = dh * mask
        dz = _activate_backward(net.spec.activation, a, dh)
        w, _ = net.hidden[i]
        grads[("hidden", (i, 0))] = dz.T @ h_in
        grads[("hidden", (i, 1))] = dz.sum(axis=0)
        dh = dz @ w
    if net.encoder_w is not None:
        dcodes = dh[:, net.n_continuous :]
        grads[("encoder_w", None)] = dcodes.T @ x_onehot
        grads[("encoder_b", None)] = dcodes.sum(axis=0)
    return loss, grads


def batch_loss(net, x_cont, x_onehot, y, family, obs_weight, log_y_in=None) -> float:
    fam = get_family(family, NeuralError)
    pred = forward(net, x_cont, x_onehot, log_y_in)
    loss, _ = fam.network_loss(pred, y, obs_weight)
    return loss


def train_network(
    net: Network,
    x_cont,
    x_onehot,
    y,
    family,
    obs_weight,
    log_y_in=None,
    seed: int = 0,
    lr: float = ADAM_LR,
    max_epochs: int = MAX_EPOCHS,
    patience: int = PATIENCE,
    validation_fraction: float = 0.2,
) -> Network:
    """Mini-batch Adam with inverted dropout, early stopping on a random
    20% validation split and best-weights restore. Gradients flow into the
    grafted encoder. Raises when the loss turns non-finite."""
    rng = substream(seed, "train", net.spec.seed)
    dropout_rng = substream(seed, "dropout", net.spec.seed)
    n = len(y)
    perm = rng.permutation(n)
    n_val = int(round(validation_fraction * n))
    val, tr = perm[:n_val], perm[n_val:]
    if len(tr) == 0 or len(val) == 0:
        tr = val = perm

    def sliced(a, idx):
        return None if a is None else np.asarray(a)[idx]

    xc_tr, xo_tr = sliced(x_cont, tr), sliced(x_onehot, tr)
    y_tr, w_tr, lyi_tr = y[tr], obs_weight[tr], sliced(log_y_in, tr)
    xc_v, xo_v = sliced(x_cont, val), sliced(x_onehot, val)
    y_v, w_v, lyi_v = y[val], obs_weight[val], sliced(log_y_in, val)

    keys = net._trainable()
    adam = Adam([net._get(k) for k in keys], lr)
    best_loss = batch_loss(net, xc_v, xo_v, y_v, family, w_v, lyi_v)
    best_params = net.get_flat_params()
    val_history = [best_loss]
    bad = 0
    batch = min(net.spec.batch_size, len(y_tr))
    for epoch in range(max_epochs):
        order = rng.permutation(len(y_tr))
        for s in range(0, len(order), batch):
            idx = order[s : s + batch]
            loss, grads = loss_and_gradients(
                net,
                sliced(xc_tr, idx),
                sliced(xo_tr, idx),
                y_tr[idx],
                family,
                w_tr[idx],
                sliced(lyi_tr, idx),
                dropout_rng if net.spec.dropout > 0 else None,
            )
            if not np.isfinite(loss):
                raise NeuralError(f"training diverged (non-finite loss) at epoch {epoch}")
            new = adam.step(
                [net._get(k) for k in keys],
                [np.atleast_1d(np.asarray(grads[k], dtype=float)) for k in keys],
            )
            for k, p in zip(keys, new):
                net._set(k, p)
        val_loss = batch_loss(net, xc_v, xo_v, y_v, family, w_v, lyi_v)
        val_history.append(val_loss)
        if val_loss < best_loss - 1e-12:
            best_loss = val_loss
            best_params = net.get_flat_params()
            bad = 0
        else:
            bad += 1
            if bad >= patience:
                break
    net.set_flat_params(best_params)
    net.history = {"epochs": len(val_history) - 1, "best_val_loss": best_loss, "val_history": val_history}
    return net


# -- dataset-level predictor --------------------------------------------


@dataclass
class NeuralModel:
    """A trained network bundled with its preprocessing so it exposes the
    uniform predict(dataset) interface."""

    network: Network
    stats: ScalingStats
    initial_model: object = None  # predict(dataset) provider for CANN

    def _prepare(self, dataset: Dataset):
        normalized = normalize_continuous(dataset, self.stats)
        x_cont = (
            np.column_stack([normalized.columns[n] for n in normalized.continuous_names])
            if normalized.continuous_names
            else np.zeros((dataset.n, 0))
        )
        x_oh, _ = one_hot(dataset)
        return x_cont, x_oh

    def predict(self, dataset: Dataset) -> np.ndarray:
        x_cont, x_oh = self._prepare(dataset)
        log_y_in = None
        if self.network.cann_mode is not None:
            y_in = self.initial_model.predict(dataset)
            if np.any(y_in <= 0):
                raise NeuralError("initial model produced non-positive predictions")
            log_y_in = np.log(y_in)
        return forward(self.network, x_cont, x_oh, log_y_in)


def network_to_json(net: Network) -> str:
    return json.dumps(
        {
            "spec": vars(net.spec),
            "n_continuous": net.n_continuous,
            "onehot_width": net.onehot_width,
            "encoder_w": None if net.encoder_w is None else net.encoder_w.tolist(),
            "encoder_b": None if net.encoder_b is None else net.encoder_b.tolist(),
            "hidden": [[w.tolist(), b.tolist()] for w, b in net.hidden],
            "out_w": net.out_w.tolist(),
            "out_b": net.out_b,
            "cann_mode": net.cann_mode,
            "cann_out": net.cann_out.tolist(),
            "history": net.history,
        }
    )


def network_from_json(text: str) -> Network:
    d = json.loads(text)
    return Network(
        spec=NetworkSpec(**d["spec"]),
        n_continuous=d["n_continuous"],
        onehot_width=d["onehot_width"],
        encoder_w=None if d["encoder_w"] is None else np.asarray(d["encoder_w"]),
        encoder_b=None if d["encoder_b"] is None else np.asarray(d["encoder_b"]),
        hidden=[(np.asarray(w), np.asarray(b)) for w, b in d["hidden"]],
        out_w=np.asarray(d["out_w"]),
        out_b=d["out_b"],
        cann_mode=d["cann_mode"],
        cann_out=np.asarray(d["cann_out"]),
        history=d["history"],
    )


def cann_forward(net: Network, x_cont, x_onehot, y_in) -> np.ndarray:
    """Eq-style CANN output from the initial model's response-scale
    prediction; skip connection only."""
    y_in = np.asarray(y_in, dtype=float)
    if np.any(y_in <= 0):
        raise NeuralError("initial model predictions must be strictly positive")
    return forward(net, x_cont, x_onehot, np.log(y_in))
