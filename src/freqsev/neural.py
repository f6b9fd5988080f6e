"""Feed-forward networks and CANN variants trained by backprop + Adam.

Networks take normalized continuous inputs plus either the grafted
(pre-trained, rescaled) encoder codes or raw one-hot blocks, pass them
through equally sized hidden layers, and exponentiate a single output
node so predictions are strictly positive. A CANN adds a skip connection
from the log of an initial model's prediction straight to the output
node; the fixed variant pins the output combination at (1, 1, 0), the
flexible variant trains it.

A network keeps all its parameters in one flat vector, `Network.theta`;
`Network.params()` gives named views of it, and `Network.to_dict` writes
it as one list beside the layout fields `params()` reads it by. All
network math runs in one private kernel, `_Workspace`: a forward and a
backward pass over preallocated arrays sized to the largest pass
(max(batch, validation rows) in training), written in place, reading the
parameters through views of a flat vector and writing their gradients
into views of one flat gradient vector of the same layout.

`train_network` runs the kernel in float32, over a float32 copy of
`theta` refreshed at every pass, inside the shared `early_stopping` loop
of `freqsev._optim`; Adam steps the float64 master `theta` in place from
the float32 gradient, and losses are summed in float64 (mixed precision,
as in Micikevicius et al., 2018). `forward`, `loss_and_gradients` and
`batch_loss` run the same kernel in float64 on a one-shot workspace;
`forward` (inference) takes every product as a stack of 1-row products,
so a row's prediction does not depend on the frame it is in.
Inverted dropout keeps a unit when a 16-bit draw (`_draw16`) is below
round((1 - dropout) * 2**16), so the keep rate has a resolution of 2**-16,
and scales a kept unit by 2**16 over that bound.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from ._optim import ADAM_LR, MAX_EPOCHS, PATIENCE, early_stopping, glorot, views
from ._rand import substream
from .embedding import Autoencoder
from .evaluation import get_family

# the paper's tuning ranges; only the batch-size range differs by response
HIDDEN_LAYERS = (1, 4)
NODES = (10, 50)
ACTIVATIONS = ("relu", "sigmoid", "softmax")
DROPOUT = (0.0, 0.1)


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
        for name in ("hidden_layers", "nodes", "batch_size", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise NeuralError(f"{name} must be an integer, got {value!r}")
        if not HIDDEN_LAYERS[0] <= self.hidden_layers <= HIDDEN_LAYERS[1]:
            raise NeuralError(f"hidden_layers must be in {list(HIDDEN_LAYERS)}")
        if not NODES[0] <= self.nodes <= NODES[1]:
            raise NeuralError(f"nodes per layer must be in {list(NODES)}")
        if self.activation not in ACTIVATIONS:
            raise NeuralError(f"activation must be one of {ACTIVATIONS}")
        if not DROPOUT[0] <= self.dropout <= DROPOUT[1]:
            raise NeuralError(f"dropout rate must be in {list(DROPOUT)}")
        if self.batch_size < 1:
            raise NeuralError("batch_size must be >= 1")


def random_grid(batch_size: tuple[int, int], n: int = 40, seed: int = 0) -> list[NetworkSpec]:
    """`n` independent uniform draws per tuning axis (integer axes rounded),
    with batch sizes drawn from `batch_size` (the bounds included)."""
    rng = substream(seed, "random-grid")
    specs = []
    for i in range(n):
        specs.append(
            NetworkSpec(
                hidden_layers=int(rng.integers(HIDDEN_LAYERS[0], HIDDEN_LAYERS[1] + 1)),
                nodes=int(rng.integers(NODES[0], NODES[1] + 1)),
                activation=str(rng.choice(ACTIVATIONS)),
                dropout=float(rng.uniform(*DROPOUT)),
                batch_size=int(rng.integers(batch_size[0], batch_size[1] + 1)),
                seed=i,
            )
        )
    return specs


# -- network parameters -------------------------------------------------


_FIXED_CANN_OUT = (1.0, 1.0, 0.0)  # (w_NN, w_in, b): output = y_NN + log y_in


@dataclass
class Network:
    """A network's layout and its parameters; `forward` and
    `train_network` do the work.

    `theta` is the one flat vector that holds every trainable parameter;
    `params()` gives named views of it. `encoder_dim` is the code length
    of the grafted (trainable) copy of a pre-trained scaled encoder; when
    None, one-hot blocks feed the hidden layers directly. `cann_mode` is
    None (plain FFNN), "fixed" (output combination pinned at (1, 1, 0))
    or "flexible" (the combination `cann_out` is trained). A new network
    starts with `theta` all zero; a given `theta` must fit the layout.
    """

    spec: NetworkSpec
    n_continuous: int
    onehot_width: int
    encoder_dim: int | None = None
    cann_mode: str | None = None
    theta: np.ndarray | None = None
    history: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.cann_mode not in (None, "fixed", "flexible"):
            raise NeuralError(f"unknown CANN mode {self.cann_mode!r}")
        size = sum(math.prod(s) for s in self._trainable().values())
        if self.theta is None:
            self.theta = np.zeros(size)
        elif self.theta.shape != (size,):
            raise NeuralError(f"theta has shape {self.theta.shape}; the layout needs ({size},)")

    def _trainable(self) -> dict[str, tuple[int, ...]]:
        """Name and shape of every trainable parameter, in `theta` order:
        `encoder_w`, `encoder_b`, then `w0`, `b0`, ... per hidden layer,
        `out_w`, `out_b` and, for a flexible CANN, `cann_out`."""
        shapes = {}
        width = self.n_continuous + self.onehot_width
        if self.encoder_dim is not None:
            shapes["encoder_w"] = (self.encoder_dim, self.onehot_width)
            shapes["encoder_b"] = (self.encoder_dim,)
            width = self.n_continuous + self.encoder_dim
        for i in range(self.spec.hidden_layers):
            shapes[f"w{i}"], shapes[f"b{i}"] = (self.spec.nodes, width), (self.spec.nodes,)
            width = self.spec.nodes
        shapes["out_w"], shapes["out_b"] = (width,), (1,)
        if self.cann_mode == "flexible":
            shapes["cann_out"] = (3,)
        return shapes

    def params(self, flat: np.ndarray | None = None) -> dict[str, np.ndarray]:
        """Named views of `flat` (of `theta` when None), keyed like
        `_trainable()`."""
        return views(self.theta if flat is None else flat, self._trainable())

    def get_flat_params(self) -> np.ndarray:
        return self.theta.copy()

    def set_flat_params(self, flat: np.ndarray) -> None:
        """Copy `flat` into `theta`; views of `theta` stay valid."""
        flat = np.asarray(flat, dtype=float)
        if flat.shape != self.theta.shape:
            raise NeuralError("flat parameter vector has wrong length")
        np.copyto(self.theta, flat)

    def to_dict(self) -> dict:
        return {
            "spec": asdict(self.spec),
            "n_continuous": self.n_continuous,
            "onehot_width": self.onehot_width,
            "encoder_dim": self.encoder_dim,
            "cann_mode": self.cann_mode,
            "theta": self.theta.tolist(),
            "history": self.history,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Network":
        return cls(NetworkSpec(**d["spec"]), d["n_continuous"], d["onehot_width"],
                   d["encoder_dim"], d["cann_mode"], np.array(d["theta"], dtype=float),
                   d["history"])


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
    net = Network(spec, n_continuous, onehot_width,
                  None if encoder is None else encoder.dim, cann_mode)
    p = net.params()
    if encoder is not None:
        p["encoder_w"][...], p["encoder_b"][...] = encoder.w_enc, encoder.b_enc
    for i in range(spec.hidden_layers):
        p[f"w{i}"][...] = glorot(rng, p[f"w{i}"].shape)
    if cann_mode == "flexible":
        p["out_w"][...] = glorot(rng, (1, len(p["out_w"])))[0]
        p["cann_out"][...] = (0.0, 1.0, 0.0)
    elif cann_mode is None:
        p["out_b"][...] = out_bias
    return net


# -- the forward/backward kernel -----------------------------------------


def _draw16(rng: np.random.Generator, shape) -> np.ndarray:
    """One uniform 16-bit integer per element of `shape`: the raw 64-bit
    words of `rng`'s bit generator, each cut into four, low bits first on
    every platform."""
    count = math.prod(shape)
    raw = rng.bit_generator.random_raw(-(-count // 4))
    return raw.astype("<u8", copy=False).view("<u2")[:count].reshape(shape)


class _Workspace:
    """Forward and backward pass of one network over at most `rows` rows,
    in `dtype`.

    Every array a pass writes is allocated here once; a pass over m rows
    works on the `[:m]` views, each step writing in place. It reads the
    parameters through `p`, views of `theta`, and writes their gradients
    into `g`, the same views of the flat vector `grad`, both in `dtype`. A
    float64 workspace's `theta` is `net.theta` itself, so a step of Adam is
    seen at once; a float32 one's is a copy that `forward` refreshes from
    `net.theta` at every pass. Each step runs the same floating-point
    operations in the same order as the textbook formula it implements.

    Usage: `m = load(inputs, rows)`, then `forward(m, dropout_rng)` and,
    for the gradient, `backward(m, du)` on the rows of that forward pass.
    Dropout buffers exist only when `dropout` is true.
    """

    def __init__(self, net: Network, rows: int, dropout: bool = False, dtype=np.float64):
        self.net = net
        # inverted dropout's keep rule (module docstring)
        self.keep_below = round((1.0 - net.spec.dropout) * 65536)
        self.keep_scale = np.dtype(dtype).type(65536 / self.keep_below)
        self.theta = net.theta if dtype == net.theta.dtype else np.empty(net.theta.shape, dtype)
        self.grad = np.zeros_like(self.theta)
        self.p, self.g = net.params(self.theta), net.params(self.grad)
        # each hidden layer's (w, b, grad w, grad b) views, looked up once
        self.layers = [(self.p[f"w{i}"], self.p[f"b{i}"], self.g[f"w{i}"], self.g[f"b{i}"])
                       for i in range(net.spec.hidden_layers)]

        def buf(*shape, dtype=dtype):
            return np.empty((rows, *shape), dtype)

        nodes = net.spec.nodes
        self.h0 = buf(self.p["w0"].shape[1])
        if net.encoder_dim is None:
            self.sources = [self.h0]
        else:
            self.x_cont, self.x_onehot = buf(net.n_continuous), buf(net.onehot_width)
            self.codes, self.dh0 = buf(net.encoder_dim), buf(self.h0.shape[1])
            self.sources = [self.x_cont, self.x_onehot]
        self.a = [buf(nodes) for _ in self.layers]  # activations before dropout
        self.mask = [buf(nodes) for _ in self.layers] if dropout else None
        self.dropped = [buf(nodes) for _ in self.layers] if dropout else None
        self.dz, self.dh, self.flag, self.row = buf(nodes), buf(nodes), buf(nodes, dtype=bool), buf(1)
        self.y_nn, self.pred, self.du, self.dy = buf(), buf(), buf(), buf()
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

    def forward(self, m: int, dropout_rng=None, rowwise: bool = False) -> np.ndarray:
        """Predictions exp(u) on the first m loaded rows; inverted dropout
        after every hidden layer when a dropout rng is given. With
        `rowwise`, every product is a stack of 1-row products (`_product`)."""
        net, p = self.net, self.p
        if self.theta is not net.theta:
            np.copyto(self.theta, net.theta)
        h = self.h0[:m]
        if net.encoder_dim is not None:
            codes = _product(self.x_onehot[:m], p["encoder_w"].T, self.codes[:m], rowwise)
            codes += p["encoder_b"]
            h[:, : net.n_continuous] = self.x_cont[:m]
            h[:, net.n_continuous :] = codes
        self.layer_out = self.a if dropout_rng is None else self.dropped
        for i, (w, b, _, _) in enumerate(self.layers):
            a = _product(h, w.T, self.a[i][:m], rowwise)
            a += b
            self._activate(a)
            if dropout_rng is not None:
                flag = np.less(_draw16(dropout_rng, a.shape), self.keep_below, out=self.flag[:m])
                mask = np.multiply(flag, self.keep_scale, out=self.mask[i][:m])
                a = np.multiply(a, mask, out=self.dropped[i][:m])
            h = a
        y_nn = _product(h, p["out_w"], self.y_nn[:m], rowwise)
        y_nn += p["out_b"]
        u = y_nn
        if net.cann_mode is not None:
            w_nn, w_in, b_c = p.get("cann_out", _FIXED_CANN_OUT)
            u = np.multiply(y_nn, w_nn, out=self.u[:m])
            u += np.multiply(self.log_y_in[:m], w_in, out=self.pred[:m])
            u += b_c
        if not np.all(np.isfinite(u)):
            raise NeuralError("non-finite value at the output layer")
        return np.exp(u, out=self.pred[:m])

    def backward(self, m: int, loss_du: np.ndarray) -> None:
        """Gradients into `grad` from `loss_du`, the loss gradient in u on
        the rows of the last forward pass, taken in the workspace's dtype.
        Dropout layers differentiate the activation before the mask."""
        p, g = self.p, self.g
        du = self.du[:m]
        np.copyto(du, loss_du)
        if "cann_out" in g:
            g["cann_out"][0] = du @ self.y_nn[:m]
            g["cann_out"][1] = du @ self.log_y_in[:m]
            g["cann_out"][2] = du.sum()
            du = np.multiply(du, p["cann_out"][0], out=self.dy[:m])
        # a plain network, or a fixed CANN with w_nn pinned at 1, passes du on
        np.matmul(self.layer_out[-1][:m].T, du, out=g["out_w"])
        g["out_b"][0] = du.sum()
        dh, dz = np.outer(du, p["out_w"], out=self.dh[:m]), self.dz[:m]
        for i in range(len(self.layers) - 1, -1, -1):
            w, _, grad_w, grad_b = self.layers[i]
            a = self.a[i][:m]
            if self.layer_out is self.dropped:
                dh *= self.mask[i][:m]
            self._activate_backward(a, dh, dz)
            h_in = self.h0[:m] if i == 0 else self.layer_out[i - 1][:m]
            np.matmul(dz.T, h_in, out=grad_w)
            np.sum(dz, axis=0, out=grad_b)
            if i > 0:
                np.matmul(dz, w, out=dh)
            elif "encoder_w" in g:
                dcodes = np.matmul(dz, w, out=self.dh0[:m])[:, self.net.n_continuous :]
                np.matmul(dcodes.T, self.x_onehot[:m], out=g["encoder_w"])
                np.sum(dcodes, axis=0, out=g["encoder_b"])

    def _activate(self, z):
        """The layer activation of `z`, in place."""
        name = self.net.spec.activation
        if name == "relu":
            np.maximum(z, 0.0, out=z)
        elif name == "sigmoid":  # 1 / (1 + exp(-z))
            np.negative(z, out=z)
            with np.errstate(over="ignore"):  # exp(-z) = inf saturates the unit at 0
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


def _product(h, w, out, rowwise: bool) -> np.ndarray:
    """`h @ w` into `out`. With `rowwise`, as a stack of 1-row products,
    so every row takes the same BLAS kernel whatever frame it is in: BLAS
    rounds a 1-row product, and the last rows of a frame-wide one,
    differently from the body."""
    if rowwise:
        np.matmul(h[:, None, :], w, out=out[:, None])
        return out
    return np.matmul(h, w, out=out)


def _inputs(net: Network, x_cont, x_onehot, log_y_in) -> list[np.ndarray]:
    """The row-aligned arrays a workspace loads: the first layer's input
    (with a grafted encoder, the continuous and one-hot blocks instead),
    then log_y_in for a CANN."""
    if net.encoder_dim is not None:
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
) -> np.ndarray:
    """Row predictions exp(u), without dropout, so inference is
    deterministic; training runs its dropout passes on its own workspace.
    Each row is priced from that row alone, whatever the frame: every
    product is a stack of 1-row products."""
    inputs = _inputs(net, x_cont, x_onehot, log_y_in)
    ws = _Workspace(net, len(inputs[0]))
    return ws.forward(ws.load(inputs), rowwise=True)


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
    return loss, ws.g


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
) -> Network:
    """Mini-batch Adam with inverted dropout, early stopping on a random
    20% validation split and best-weights restore. Gradients flow into the
    grafted encoder.

    The forward, backward and validation passes run in float32 on one
    workspace of max(batch, validation rows) rows, over the rows cast to
    float32 once. Adam steps the float64 master `net.theta` in place from
    the float32 gradient, widened to float64; losses are summed in float64.
    `net.history` records the epochs run, `best_epoch` (the index in
    `val_history` of `best_val_loss`; 0 when no epoch beat the start) and
    the validation losses. A floating-point fault (overflow, division by
    zero, invalid value) or a non-finite loss raises `NeuralError` with
    `net` as it was before the call."""
    fam = get_family(family, NeuralError)
    rng = substream(seed, "train", net.spec.seed)
    dropout_rng = substream(seed, "dropout", net.spec.seed) if net.spec.dropout > 0 else None
    n = len(y)
    perm = rng.permutation(n)
    n_val = int(round(0.2 * n))
    val, tr = perm[:n_val], perm[n_val:]
    if len(tr) == 0 or len(val) == 0:
        tr = val = perm

    def split(idx):
        sliced = [None if a is None else np.asarray(a)[idx] for a in (x_cont, x_onehot, log_y_in)]
        return [a.astype(np.float32) for a in _inputs(net, *sliced)], y[idx], obs_weight[idx]

    tr_in, y_tr, w_tr = split(tr)
    val_in, y_v, w_v = split(val)
    batch = min(net.spec.batch_size, len(y_tr))
    ws = _Workspace(net, max(batch, len(val)), dropout=dropout_rng is not None, dtype=np.float32)
    grad = np.empty_like(net.theta)

    def validation_loss():
        loss, _ = fam.network_loss(ws.forward(ws.load(val_in)), y_v, w_v)
        return loss

    def batch_gradient(idx):
        m = ws.load(tr_in, idx)
        loss, du = fam.network_loss(ws.forward(m, dropout_rng), y_tr[idx], w_tr[idx])
        if not np.isfinite(loss):
            raise NeuralError("non-finite loss")
        ws.backward(m, du)
        np.copyto(grad, ws.grad)

    start = net.theta.copy()
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            val_history, best = early_stopping(
                net.theta, grad, batch_gradient, validation_loss, len(y_tr), batch, rng,
                max_epochs, patience, lr,
            )
    except (NeuralError, FloatingPointError) as err:
        np.copyto(net.theta, start)
        raise NeuralError(f"training diverged: {err}") from err
    net.history = {"epochs": len(val_history) - 1, "best_epoch": best,
                   "best_val_loss": val_history[best], "val_history": val_history}
    return net


def cann_forward(net: Network, x_cont, x_onehot, y_in) -> np.ndarray:
    """Eq-style CANN output from the initial model's response-scale
    prediction; skip connection only."""
    y_in = np.asarray(y_in, dtype=float)
    if np.any(y_in <= 0):
        raise NeuralError("initial model predictions must be strictly positive")
    return forward(net, x_cont, x_onehot, np.log(y_in))
