"""Feed-forward networks and CANN variants trained by backprop + Adam.

Networks take normalized continuous inputs plus either the grafted
(pre-trained, rescaled) encoder codes or raw one-hot blocks, pass them
through equally sized hidden layers, and exponentiate a single output
node so predictions are strictly positive. A CANN adds a skip connection
from the log of an initial model's prediction straight to the output
node; the fixed variant pins the output combination at (1, 1, 0), the
flexible variant trains it.

All network math runs in one private kernel, `_Workspace`: a forward and
a backward pass over preallocated arrays sized to the largest pass
(max(batch, validation rows) in training), written in place, with the
parameters and their gradients as views of two flat vectors that the
flat `Adam` of `freqsev._optim` steps in place. `train_network` builds
one workspace per call and writes the best parameters back to the
`Network` once, at the end; `forward`, `loss_and_gradients` and
`batch_loss` run the same kernel on a one-shot workspace.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ._optim import ADAM_LR, Adam, glorot
from ._rand import substream
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

    # -- flat parameter vector (training workspace, gradient checks)

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

    def _split(self, flat: np.ndarray) -> dict:
        """Views of `flat` shaped like the trainable parameters, keyed
        like `_trainable()`."""
        views, pos = {}, 0
        for key in self._trainable():
            shape = self._get(key).shape
            size = int(np.prod(shape))
            views[key] = flat[pos : pos + size].reshape(shape)
            pos += size
        if pos != flat.size:
            raise NeuralError("flat parameter vector has wrong length")
        return views

    def set_flat_params(self, flat: np.ndarray) -> None:
        for key, value in self._split(flat).items():
            self._set(key, value)


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


# -- the forward/backward kernel -----------------------------------------


class _Workspace:
    """Forward and backward pass of one network over at most `rows` rows.

    Every array a pass writes is allocated here once; a pass over m rows
    works on the `[:m]` views, each step writing in place. The parameters
    are views of the flat vector `theta` and their gradients views of the
    flat vector `grad`, both in `Network._trainable` order, so Adam steps
    one vector in place. Each step runs the same floating-point operations
    in the same order as the textbook formula it implements.

    Usage: `m = load(inputs, rows)`, then `forward(m, dropout_rng)` and,
    for the gradient, `backward(m, du)` on the rows of that forward pass.
    Dropout buffers exist only when `dropout` is true.
    """

    def __init__(self, net: Network, rows: int, dropout: bool = False):
        self.net = net
        self.theta = net.get_flat_params()
        self.grad = np.zeros_like(self.theta)
        p, g = net._split(self.theta), net._split(self.grad)
        layers = range(len(net.hidden))
        self.w = [p[("hidden", (i, 0))] for i in layers]
        self.b = [p[("hidden", (i, 1))] for i in layers]
        self.g_w = [g[("hidden", (i, 0))] for i in layers]
        self.g_b = [g[("hidden", (i, 1))] for i in layers]
        self.out_w, self.out_b = p[("out_w", None)], p[("out_b", None)]
        self.g_out_w, self.g_out_b = g[("out_w", None)], g[("out_b", None)]
        self.cann_out = p.get(("cann_out", None), net.cann_out)
        self.g_cann_out = g.get(("cann_out", None))
        self.enc_w, self.enc_b = p.get(("encoder_w", None)), p.get(("encoder_b", None))
        self.g_enc_w, self.g_enc_b = g.get(("encoder_w", None)), g.get(("encoder_b", None))

        def buf(*shape, dtype=float):
            return np.empty((rows, *shape), dtype)

        nodes = net.spec.nodes
        self.h0 = buf(self.w[0].shape[1])
        if self.enc_w is None:
            self.sources = [self.h0]
        else:
            self.x_cont, self.x_onehot = buf(net.n_continuous), buf(net.onehot_width)
            self.codes, self.dh0 = buf(len(self.enc_b)), buf(self.h0.shape[1])
            self.sources = [self.x_cont, self.x_onehot]
        self.a = [buf(nodes) for _ in layers]  # activations before dropout
        self.mask = [buf(nodes) for _ in layers] if dropout else None
        self.dropped = [buf(nodes) for _ in layers] if dropout else None
        self.dz, self.dh, self.flag, self.row = buf(nodes), buf(nodes), buf(nodes, dtype=bool), buf(1)
        self.y_nn, self.pred, self.dy = buf(), buf(), buf()
        if net.cann_mode is not None:
            self.u, self.log_y_in = buf(), buf()
            self.sources.append(self.log_y_in)

    def load(self, inputs, rows=None) -> int:
        """Copy `rows` (all when None) of the `_inputs` arrays into the
        workspace; returns their count."""
        for src, dst in zip(inputs, self.sources):
            if rows is None:
                m = len(src)
                np.copyto(dst[:m], src)
            else:
                m = len(rows)
                np.take(src, rows, axis=0, out=dst[:m], mode="clip")  # "raise" would copy
        return m

    def forward(self, m: int, dropout_rng=None) -> np.ndarray:
        """Predictions exp(u) on the first m loaded rows; inverted dropout
        after every hidden layer when a dropout rng is given."""
        net = self.net
        h = self.h0[:m]
        if self.enc_w is not None:
            codes = np.matmul(self.x_onehot[:m], self.enc_w.T, out=self.codes[:m])
            codes += self.enc_b
            h[:, : net.n_continuous] = self.x_cont[:m]
            h[:, net.n_continuous :] = codes
        self.layer_out = self.a if dropout_rng is None else self.dropped
        keep = 1.0 - net.spec.dropout
        for i, (w, b) in enumerate(zip(self.w, self.b)):
            a = np.matmul(h, w.T, out=self.a[i][:m])
            a += b
            self._activate(a)
            if dropout_rng is not None:
                mask = dropout_rng.random(out=self.mask[i][:m])
                flag = np.less(mask, keep, out=self.flag[:m])
                np.divide(flag, keep, out=mask)
                a = np.multiply(a, mask, out=self.dropped[i][:m])
            h = a
        y_nn = np.matmul(h, self.out_w, out=self.y_nn[:m])
        y_nn += self.out_b
        u = y_nn
        if net.cann_mode is not None:
            w_nn, w_in, b_c = self.cann_out
            u = np.multiply(y_nn, w_nn, out=self.u[:m])
            u += np.multiply(self.log_y_in[:m], w_in, out=self.pred[:m])
            u += b_c
        if not np.all(np.isfinite(u)):
            raise NeuralError("non-finite value at the output layer")
        return np.exp(u, out=self.pred[:m])

    def backward(self, m: int, du: np.ndarray) -> None:
        """Gradients into `grad` from `du`, the loss gradient in u, on the
        rows of the last forward pass. Dropout layers differentiate the
        activation before the mask."""
        if self.g_cann_out is not None:
            self.g_cann_out[0] = du @ self.y_nn[:m]
            self.g_cann_out[1] = du @ self.log_y_in[:m]
            self.g_cann_out[2] = du.sum()
            du = np.multiply(du, self.cann_out[0], out=self.dy[:m])
        # a plain network, or a fixed CANN with w_nn pinned at 1, passes du on
        np.matmul(self.layer_out[-1][:m].T, du, out=self.g_out_w)
        self.g_out_b[0] = du.sum()
        dh, dz = np.outer(du, self.out_w, out=self.dh[:m]), self.dz[:m]
        for i in range(len(self.w) - 1, -1, -1):
            a = self.a[i][:m]
            if self.layer_out is self.dropped:
                dh *= self.mask[i][:m]
            self._activate_backward(a, dh, dz)
            h_in = self.h0[:m] if i == 0 else self.layer_out[i - 1][:m]
            np.matmul(dz.T, h_in, out=self.g_w[i])
            np.sum(dz, axis=0, out=self.g_b[i])
            if i > 0:
                np.matmul(dz, self.w[i], out=dh)
            elif self.enc_w is not None:
                dcodes = np.matmul(dz, self.w[0], out=self.dh0[:m])[:, self.net.n_continuous :]
                np.matmul(dcodes.T, self.x_onehot[:m], out=self.g_enc_w)
                np.sum(dcodes, axis=0, out=self.g_enc_b)

    def _activate(self, z):
        """The layer activation of `z`, in place."""
        name = self.net.spec.activation
        if name == "relu":
            np.maximum(z, 0.0, out=z)
        elif name == "sigmoid":  # 1 / (1 + exp(-z))
            np.negative(z, out=z)
            np.exp(z, out=z)
            z += 1.0
            np.divide(1.0, z, out=z)
        else:  # softmax over the collection of all nodes in the layer
            row = self.row[: len(z)]
            z -= np.max(z, axis=1, keepdims=True, out=row)
            np.exp(z, out=z)
            z /= np.sum(z, axis=1, keepdims=True, out=row)

    def _activate_backward(self, a, da, dz):
        """Gradient `dz` in the pre-activation from the activation `a` and
        its gradient `da` alone; `da` is overwritten."""
        name = self.net.spec.activation
        if name == "relu":  # da * (a > 0)
            np.multiply(da, np.greater(a, 0, out=self.flag[: len(a)]), out=dz)
        elif name == "sigmoid":  # da * a * (1 - a)
            np.multiply(da, a, out=dz)
            dz *= np.subtract(1.0, a, out=da)
        else:  # a * (da - sum(da * a))
            np.multiply(da, a, out=dz)
            da -= np.sum(dz, axis=1, keepdims=True, out=self.row[: len(a)])
            np.multiply(a, da, out=dz)


def _inputs(net: Network, x_cont, x_onehot, log_y_in) -> list[np.ndarray]:
    """The row-aligned arrays a workspace loads: the first layer's input
    (with a grafted encoder, the continuous and one-hot blocks instead),
    then log_y_in for a CANN."""
    if net.encoder_w is not None:
        arrays = [x_cont, x_onehot]
    else:
        arrays = [np.hstack([x_cont, x_onehot]) if net.onehot_width else x_cont]
    if net.cann_mode is not None:
        if log_y_in is None:
            raise NeuralError("CANN forward needs the initial model's log-predictions")
        arrays.append(log_y_in)
    return arrays


def forward(
    net: Network,
    x_cont: np.ndarray,
    x_onehot: np.ndarray,
    log_y_in: np.ndarray | None = None,
    dropout_rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Row predictions exp(u); dropout only when a dropout rng is given
    (training), so inference is deterministic."""
    dropout_rng = dropout_rng if net.spec.dropout > 0 else None
    inputs = _inputs(net, x_cont, x_onehot, log_y_in)
    ws = _Workspace(net, len(inputs[0]), dropout=dropout_rng is not None)
    return ws.forward(ws.load(inputs), dropout_rng)


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
    dropout_rng = dropout_rng if net.spec.dropout > 0 else None
    inputs = _inputs(net, x_cont, x_onehot, log_y_in)
    ws = _Workspace(net, len(inputs[0]), dropout=dropout_rng is not None)
    m = ws.load(inputs)
    loss, du = fam.network_loss(ws.forward(m, dropout_rng), y, obs_weight)
    ws.backward(m, du)
    return loss, net._split(ws.grad)


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
    grafted encoder. Raises when the loss turns non-finite.

    Training runs on one workspace of max(batch, validation rows) rows,
    with the parameters packed into its flat vector at the start and
    written back to `net` once, at the end."""
    fam = get_family(family, NeuralError)
    rng = substream(seed, "train", net.spec.seed)
    dropout_rng = substream(seed, "dropout", net.spec.seed) if net.spec.dropout > 0 else None
    n = len(y)
    perm = rng.permutation(n)
    n_val = int(round(validation_fraction * n))
    val, tr = perm[:n_val], perm[n_val:]
    if len(tr) == 0 or len(val) == 0:
        tr = val = perm

    def split(idx):
        sliced = [None if a is None else np.asarray(a)[idx] for a in (x_cont, x_onehot, log_y_in)]
        return _inputs(net, *sliced), y[idx], obs_weight[idx]

    tr_in, y_tr, w_tr = split(tr)
    val_in, y_v, w_v = split(val)
    batch = min(net.spec.batch_size, len(y_tr))
    ws = _Workspace(net, max(batch, len(val)), dropout=dropout_rng is not None)
    adam = Adam(ws.theta.size, lr)

    def validation_loss():
        loss, _ = fam.network_loss(ws.forward(ws.load(val_in)), y_v, w_v)
        return loss

    best_loss = validation_loss()
    best_params = ws.theta.copy()
    val_history = [best_loss]
    bad = 0
    for epoch in range(max_epochs):
        order = rng.permutation(len(y_tr))
        for s in range(0, len(order), batch):
            idx = order[s : s + batch]
            m = ws.load(tr_in, idx)
            loss, du = fam.network_loss(ws.forward(m, dropout_rng), y_tr[idx], w_tr[idx])
            if not np.isfinite(loss):
                raise NeuralError(f"training diverged (non-finite loss) at epoch {epoch}")
            ws.backward(m, du)
            adam.step(ws.theta, ws.grad)
        val_loss = validation_loss()
        val_history.append(val_loss)
        if val_loss < best_loss - 1e-12:
            best_loss = val_loss
            np.copyto(best_params, ws.theta)
            bad = 0
        else:
            bad += 1
            if bad >= patience:
                break
    net.set_flat_params(best_params)
    net.history = {"epochs": len(val_history) - 1, "best_val_loss": best_loss, "val_history": val_history}
    return net


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
