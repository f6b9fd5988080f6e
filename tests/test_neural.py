"""Feed-forward and CANN networks: forward math, gradients, training."""

import itertools
import warnings

import numpy as np
import pytest

from freqsev.data import one_hot, scaling_stats
from freqsev.embedding import scale_encoder, train_autoencoder
from freqsev.evaluation import get_family
from freqsev.neural import (
    Network,
    NetworkSpec,
    NeuralError,
    batch_loss,
    build_network,
    cann_forward,
    forward,
    loss_and_gradients,
    random_grid,
    train_network,
)
from freqsev.neural import _inputs, _Workspace

from conftest import small_portfolio


def _spec(**kw):
    base = dict(hidden_layers=1, nodes=10, activation="relu", dropout=0.0,
                batch_size=256, seed=0)
    base.update(kw)
    return NetworkSpec(**base)


def test_spec_range_enforcement():
    with pytest.raises(NeuralError):
        _spec(hidden_layers=5)
    with pytest.raises(NeuralError):
        _spec(nodes=9)
    with pytest.raises(NeuralError):
        _spec(dropout=0.2)
    with pytest.raises(NeuralError):
        _spec(activation="tanh")


@pytest.mark.parametrize("field, value", [
    ("hidden_layers", 2.5), ("hidden_layers", True), ("nodes", 20.5), ("nodes", "20"),
    ("batch_size", 10.5), ("batch_size", np.int64(10)), ("seed", 1.0), ("seed", False),
])
def test_spec_rejects_integer_fields_that_are_not_int(field, value):
    with pytest.raises(NeuralError, match=f"^{field} must be an integer, got "):
        _spec(**{field: value})


def test_forward_hand_computation():
    net = build_network(_spec(), n_continuous=2, onehot_width=0, seed=0)
    p = net.params()
    p["w0"][...] = 0.0
    p["w0"][0] = [1.0, -1.0]
    p["out_w"][0] = 2.0
    p["out_b"][...] = 0.5
    x = np.array([[3.0, 1.0]])
    # relu(3 - 1) = 2 -> u = 2*2 + 0.5 = 4.5
    np.testing.assert_allclose(forward(net, x, np.zeros((1, 0))), [np.exp(4.5)])


def test_zero_weights_predict_one():
    net = build_network(_spec(), n_continuous=3, onehot_width=0, seed=1)
    x = np.random.default_rng(0).normal(size=(8, 3))
    np.testing.assert_allclose(forward(net, x, np.zeros((8, 0))), 1.0)


def test_positivity_random_weights():
    rng = np.random.default_rng(2)
    for _ in range(50):
        net = build_network(_spec(activation="sigmoid"), 2, onehot_width=0,
                            seed=int(rng.integers(1e6)))
        p = net.params()
        p["out_w"][...] = rng.normal(size=p["out_w"].shape)
        p["out_b"][...] = float(rng.normal())
        x = rng.normal(size=(5, 2))
        assert np.all(forward(net, x, np.zeros((5, 0))) > 0)


def test_cann_forward_oracle():
    net = build_network(_spec(), 1, onehot_width=0, cann_mode="fixed", seed=0)
    net.params()["out_b"][...] = np.log(1.5)  # adjustment y_nn = ln 1.5
    pred = cann_forward(net, np.zeros((1, 1)), np.zeros((1, 0)), [2.0])
    np.testing.assert_allclose(pred, [3.0])
    with pytest.raises(NeuralError):
        cann_forward(net, np.zeros((1, 1)), np.zeros((1, 0)), [-1.0])


def test_cann_identity_at_initialization():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(30, 2))
    y_in = rng.uniform(0.1, 2.0, 30)
    for mode in ("fixed", "flexible"):
        net = build_network(_spec(), 2, onehot_width=0, cann_mode=mode, seed=4)
        pred = cann_forward(net, x, np.zeros((30, 0)), y_in)
        np.testing.assert_allclose(pred, y_in, rtol=1e-14)


def test_random_grid_properties():
    grid = random_grid((10_000, 50_000), n=40, seed=0)
    assert len(grid) == 40
    for spec in grid:
        assert 1 <= spec.hidden_layers <= 4
        assert 10 <= spec.nodes <= 50
        assert spec.activation in ("relu", "sigmoid", "softmax")
        assert 0.0 <= spec.dropout <= 0.1
        assert 10_000 <= spec.batch_size <= 50_000
    again = random_grid((10_000, 50_000), n=40, seed=0)
    assert grid == again
    for axis in ("hidden_layers", "nodes"):
        values = {getattr(s, axis) for s in grid}
        assert len(values) >= 3


def test_gradient_check_all_activations():
    """Backprop matches central differences for every activation, for a
    plain network and both CANN heads, under both response families. The
    last four parameters (the output bias and, in a flexible CANN, the
    output combination) are always among those checked."""
    rng = np.random.default_rng(5)
    n = 40
    x_cont = rng.normal(size=(n, 2))
    codes = rng.integers(0, 3, n)
    x_oh = np.zeros((n, 3))
    x_oh[np.arange(n), codes] = 1.0
    ae = train_autoencoder(x_oh, (("g", 3),), d=2, seed=0, max_epochs=30)
    encoder = scale_encoder(ae, x_oh)
    responses = {"poisson_log": rng.poisson(0.5, n).astype(float),
                 "gamma_log": rng.gamma(2.0, 0.5, n)}
    e = rng.uniform(0.5, 1.0, n)
    log_y_in = rng.normal(-0.5, 0.3, n)
    for activation, cann_mode, family in itertools.product(
        ("relu", "sigmoid", "softmax"), (None, "fixed", "flexible"), responses
    ):
        y = responses[family]
        lyi = None if cann_mode is None else log_y_in
        net = build_network(
            _spec(activation=activation, hidden_layers=2), 2, encoder=encoder,
            cann_mode=cann_mode, seed=6,
        )
        flat = net.get_flat_params() + rng.normal(scale=0.1, size=net.get_flat_params().size)
        net.set_flat_params(flat)
        _, grads = loss_and_gradients(net, x_cont, x_oh, y, family, e, lyi)
        keys = net._trainable()
        analytic = np.concatenate(
            [np.atleast_1d(np.asarray(grads[k], dtype=float)).ravel() for k in keys]
        )
        h = 1e-5
        checked = np.concatenate([rng.choice(flat.size, 20, replace=False),
                                  np.arange(flat.size - 4, flat.size)])
        for idx in checked:
            up = flat.copy(); up[idx] += h
            down = flat.copy(); down[idx] -= h
            net.set_flat_params(up)
            lu = batch_loss(net, x_cont, x_oh, y, family, e, lyi)
            net.set_flat_params(down)
            ld = batch_loss(net, x_cont, x_oh, y, family, e, lyi)
            net.set_flat_params(flat)
            fd = (lu - ld) / (2 * h)
            denom = max(abs(fd), abs(analytic[idx]), 1e-8)
            assert abs(fd - analytic[idx]) / denom < 1e-4, (activation, cann_mode, family, idx)


@pytest.mark.parametrize("dropout", [0.0, 0.1])
@pytest.mark.parametrize("cann_mode", [None, "fixed", "flexible"])
@pytest.mark.parametrize("activation", ["relu", "sigmoid", "softmax"])
def test_float32_workspace_gradient_matches_float64(activation, cann_mode, dropout):
    """The float32 pass train_network runs gives the float64 gradient of
    acceptance 3's network (on the same dropout draws) to within 1e-5 of
    the gradient's largest element; float32's epsilon is 1.2e-7."""
    rng = np.random.default_rng(5)
    n = 40
    x_cont = rng.normal(size=(n, 2))
    x_oh = np.zeros((n, 3))
    x_oh[np.arange(n), rng.integers(0, 3, n)] = 1.0
    encoder = scale_encoder(train_autoencoder(x_oh, (("g", 3),), d=2, seed=0, max_epochs=30), x_oh)
    y = rng.poisson(0.5, n).astype(float)
    e = rng.uniform(0.5, 1.0, n)
    log_y_in = None if cann_mode is None else rng.normal(-0.5, 0.3, n)
    net = build_network(_spec(activation=activation, hidden_layers=2, dropout=dropout), 2,
                        encoder=encoder, cann_mode=cann_mode, seed=6)
    net.set_flat_params(net.theta + rng.normal(scale=0.1, size=net.theta.size))

    def mask_rng():
        return np.random.default_rng(13) if dropout else None

    _, grads = loss_and_gradients(net, x_cont, x_oh, y, "poisson_log", e, log_y_in, mask_rng())
    expected = np.concatenate([grads[k].ravel() for k in net._trainable()])
    ws = _Workspace(net, n, dropout=dropout > 0, dtype=np.float32)
    m = ws.load([a.astype(np.float32) for a in _inputs(net, x_cont, x_oh, log_y_in)])
    _, du = get_family("poisson_log").network_loss(ws.forward(m, mask_rng()), y, e)
    ws.backward(m, du)
    assert ws.grad.dtype == np.float32
    assert np.max(np.abs(ws.grad - expected)) <= 1e-5 * np.max(np.abs(expected))


def test_saturated_sigmoid_trains():
    """Sigmoid units whose pre-activations pass +-100 saturate at 0 and 1:
    exp(100) overflows float32, and training must not call that divergence."""
    rng = np.random.default_rng(31)
    n = 200
    x = rng.normal(size=(n, 2)) * 60.0
    e = rng.uniform(0.5, 1.0, n)
    y = rng.poisson(0.5 * e).astype(float)
    net = build_network(_spec(activation="sigmoid", batch_size=50), 2, onehot_width=0,
                        out_bias=-0.7, seed=1)
    net.params()["w0"][...] = rng.choice([-3.0, 3.0], size=(10, 2))
    z = x @ net.params()["w0"].T
    assert z.min() < -100 and z.max() > 100
    train_network(net, x, np.zeros((n, 0)), y, "poisson_log", e, max_epochs=3)
    assert net.history["epochs"] == 3


@pytest.mark.parametrize("max_epochs", [0, 30])
def test_best_epoch_indexes_the_best_validation_loss(max_epochs):
    """`best_epoch` is where `best_val_loss` sits in `val_history`: 0 when
    no epoch ran."""
    rng = np.random.default_rng(32)
    n = 300
    x = rng.normal(size=(n, 2))
    e = rng.uniform(0.5, 1.0, n)
    y = rng.poisson(0.5 * np.exp(0.4 * x[:, 0]) * e).astype(float)
    net = build_network(_spec(batch_size=64), 2, onehot_width=0, out_bias=-0.7, seed=2)
    train_network(net, x, np.zeros((n, 0)), y, "poisson_log", e, max_epochs=max_epochs,
                  patience=5)
    history = net.history
    assert history["val_history"][history["best_epoch"]] == history["best_val_loss"]
    assert history["best_val_loss"] == min(history["val_history"])
    assert (history["best_epoch"] > 0) == (max_epochs > 0)


def test_intercept_only_capacity():
    rng = np.random.default_rng(7)
    n = 3000
    e = rng.uniform(0.5, 1.0, n)
    y = rng.poisson(0.4 * e).astype(float)
    net = build_network(_spec(batch_size=512), 1, onehot_width=0,
                        out_bias=float(np.log(y.sum() / e.sum())), seed=8)
    x = np.zeros((n, 1))
    train_network(net, x, np.zeros((n, 0)), y, "poisson_log", e, seed=0, max_epochs=40)
    pred = forward(net, x[:1], np.zeros((1, 0)))
    target = y.sum() / e.sum()
    assert abs(pred[0] - target) / target < 0.02


def test_dropout_off_at_inference():
    net = build_network(_spec(dropout=0.1), 2, onehot_width=0, seed=9)
    out_w = net.params()["out_w"]
    out_w[...] = np.random.default_rng(1).normal(size=out_w.shape)
    x = np.random.default_rng(2).normal(size=(4, 2))
    a = forward(net, x, np.zeros((4, 0)))
    b = forward(net, x, np.zeros((4, 0)))
    np.testing.assert_array_equal(a, b)


def test_training_is_seeded(portfolio):
    ds = portfolio.dataset
    stats = scaling_stats(ds)
    from freqsev.data import normalize_continuous

    x_cont = normalize_continuous(ds, stats).columns["age"][:, None]
    x_oh, _ = one_hot(ds)
    y = ds.response
    e = ds.exposure

    def run():
        net = build_network(_spec(batch_size=128), 1, onehot_width=x_oh.shape[1], seed=3)
        train_network(net, x_cont, x_oh, y, "poisson_log", e, seed=5, max_epochs=5)
        return net.get_flat_params()

    np.testing.assert_array_equal(run(), run())


def test_json_roundtrip():
    net = build_network(_spec(hidden_layers=2), 2, onehot_width=3, cann_mode="flexible",
                        seed=10)
    rng = np.random.default_rng(0)
    net.set_flat_params(rng.normal(size=net.get_flat_params().size))
    clone = Network.from_dict(net.to_dict())
    x = rng.normal(size=(6, 2))
    oh = np.zeros((6, 3))
    oh[np.arange(6), rng.integers(0, 3, 6)] = 1.0
    lyi = rng.normal(size=6)
    np.testing.assert_array_equal(clone.theta, net.theta)
    np.testing.assert_array_equal(forward(clone, x, oh, lyi), forward(net, x, oh, lyi))
    assert clone.to_dict() == net.to_dict()


@pytest.mark.parametrize("encoder", [False, True], ids=["one_hot", "encoder"])
@pytest.mark.parametrize("cann_mode", [None, "fixed", "flexible"])
def test_params_are_views_of_theta(grafted_encoder, encoder, cann_mode):
    """Every named parameter is a view of `theta`, in `_trainable()` order
    and covering it exactly; `set_flat_params` copies into `theta`."""
    x_oh, ae = grafted_encoder
    net = build_network(_spec(hidden_layers=2), 2, encoder=ae if encoder else None,
                        onehot_width=x_oh.shape[1], cann_mode=cann_mode, seed=3)
    p = net.params()
    assert list(p) == list(net._trainable())
    assert ("encoder_w" in p) == encoder and ("cann_out" in p) == (cann_mode == "flexible")
    assert sum(v.size for v in p.values()) == net.theta.size
    for name, view in p.items():
        assert np.shares_memory(view, net.theta), name
        view[...] = 7.0
    np.testing.assert_array_equal(net.theta, 7.0)
    flat = np.arange(net.theta.size, dtype=float)
    net.set_flat_params(flat)
    flat += 1.0  # a copy, not an alias
    np.testing.assert_array_equal(np.concatenate([v.ravel() for v in p.values()]), flat - 1.0)
    with pytest.raises(NeuralError):
        net.set_flat_params(flat[1:])


def test_diverging_fit_leaves_network_unchanged():
    """A learning rate that blows the loss up raises NeuralError, with no
    numpy warning on the way, and leaves the parameters as they were."""
    rng = np.random.default_rng(30)
    n = 200
    x = rng.normal(size=(n, 2))
    e = rng.uniform(0.5, 1.0, n)
    y = rng.poisson(0.5 * e).astype(float)
    net = build_network(_spec(batch_size=50), 2, onehot_width=0, out_bias=-0.7, seed=1)
    before = net.get_flat_params()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NeuralError, match="diverged"):
            train_network(net, x, np.zeros((n, 0)), y, "poisson_log", e, lr=1e6, max_epochs=50)
    np.testing.assert_array_equal(net.theta, before)
    assert net.history == {}


def test_gradient_check_with_dropout():
    """Backprop through a dropout layer matches finite differences of the
    loss under the same mask, for every activation."""
    rng = np.random.default_rng(11)
    n = 40
    x = rng.normal(size=(n, 3))
    no_oh = np.zeros((n, 0))
    y = rng.poisson(0.5, n).astype(float)
    e = rng.uniform(0.5, 1.0, n)

    def loss_and_grads(net):
        mask_rng = np.random.default_rng(13)  # the same dropout mask on every call
        return loss_and_gradients(net, x, no_oh, y, "poisson_log", e, dropout_rng=mask_rng)

    for activation in ("relu", "sigmoid", "softmax"):
        net = build_network(_spec(activation=activation, hidden_layers=2, dropout=0.1), 3,
                            onehot_width=0, seed=12)
        flat = net.get_flat_params() + rng.normal(scale=0.3, size=net.get_flat_params().size)
        net.set_flat_params(flat)
        _, grads = loss_and_grads(net)
        analytic = np.concatenate(
            [np.atleast_1d(np.asarray(grads[k], dtype=float)).ravel() for k in net._trainable()]
        )
        h = 1e-6
        for idx in range(flat.size):
            up = flat.copy(); up[idx] += h
            down = flat.copy(); down[idx] -= h
            net.set_flat_params(up)
            lu, _ = loss_and_grads(net)
            net.set_flat_params(down)
            ld, _ = loss_and_grads(net)
            fd = (lu - ld) / (2 * h)
            denom = max(abs(fd), abs(analytic[idx]), 1e-8)
            assert abs(fd - analytic[idx]) / denom < 1e-4, (activation, idx)


# -- reference: the allocating training loop of train_network's semantics --
# float32 passes over a float32 copy of theta, float64 Adam on theta itself,
# 16-bit dropout draws


def _ref_activate(name, z):
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "sigmoid":
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + np.exp(-z))
    zs = z - z.max(axis=1, keepdims=True)
    ez = np.exp(zs)
    return ez / ez.sum(axis=1, keepdims=True)


def _ref_activate_backward(name, a, da):
    if name == "relu":
        return da * (a > 0)
    if name == "sigmoid":
        return da * a * (1.0 - a)
    return a * (da - np.sum(da * a, axis=1, keepdims=True))


def _ref_mask(dropout_rng, shape, dropout):
    """Keep a unit when its 16-bit draw is below round(keep * 2**16), and
    scale a kept unit by 2**16 / that bound, rounded to float32."""
    below = round((1.0 - dropout) * 65536)
    count = shape[0] * shape[1]
    words = dropout_rng.bit_generator.random_raw(-(-count // 4)).astype("<u8")
    draws = words.view("<u2")[:count].reshape(shape)
    return (draws < below) * np.float32(65536 / below)


def _ref_loss_and_gradients(net, x_cont, x_onehot, y, fam, w, log_y_in, dropout_rng):
    """Fresh float32 arrays at every step, gradients keyed like
    Network._trainable(); the loss and its gradient in u are float64."""
    p = net.params(net.theta.astype(np.float32))
    x_cont, x_onehot = x_cont.astype(np.float32), x_onehot.astype(np.float32)
    n_layers = net.spec.hidden_layers
    if net.encoder_dim is not None:
        codes = x_onehot @ p["encoder_w"].T + p["encoder_b"]
        h = np.hstack([x_cont, codes]) if net.n_continuous else codes
    else:
        h = np.hstack([x_cont, x_onehot]) if net.onehot_width else x_cont
    layers = []
    for i in range(n_layers):
        a = _ref_activate(net.spec.activation, h @ p[f"w{i}"].T + p[f"b{i}"])
        mask = None if dropout_rng is None else _ref_mask(dropout_rng, a.shape, net.spec.dropout)
        layers.append((a, mask, h))
        h = a if mask is None else a * mask
    y_nn = h @ p["out_w"] + p["out_b"]
    if net.cann_mode is None:
        u = y_nn
    else:
        log_y_in = log_y_in.astype(np.float32)
        w_nn, w_in, b_c = p.get("cann_out", (1.0, 1.0, 0.0))
        u = w_nn * y_nn + w_in * log_y_in + b_c
    loss, du = fam.network_loss(np.exp(u), y, w)
    du = du.astype(np.float32)
    grads = {}
    if net.cann_mode == "flexible":
        grads["cann_out"] = np.array([du @ y_nn, du @ log_y_in, du.sum()])
        du = du * p["cann_out"][0]
    grads["out_w"] = h.T @ du
    grads["out_b"] = np.array([du.sum()])
    dh = np.outer(du, p["out_w"])
    for i in range(n_layers - 1, -1, -1):
        a, mask, h_in = layers[i]
        if mask is not None:
            dh = dh * mask
        dz = _ref_activate_backward(net.spec.activation, a, dh)
        grads[f"w{i}"] = dz.T @ h_in
        grads[f"b{i}"] = dz.sum(axis=0)
        dh = dz @ p[f"w{i}"]
    if net.encoder_dim is not None:
        dcodes = dh[:, net.n_continuous :]
        grads["encoder_w"] = dcodes.T @ x_onehot
        grads["encoder_b"] = dcodes.sum(axis=0)
    return loss, grads


def _ref_train(net, x_cont, x_onehot, y, family, w, log_y_in, seed, max_epochs, patience):
    """Mini-batch Adam in float64 with one state array per parameter array."""
    from freqsev._optim import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, ADAM_LR
    from freqsev._rand import substream
    from freqsev.evaluation import get_family

    fam = get_family(family)
    rng = substream(seed, "train", net.spec.seed)
    dropout_rng = substream(seed, "dropout", net.spec.seed) if net.spec.dropout > 0 else None
    perm = rng.permutation(len(y))
    n_val = int(round(0.2 * len(y)))
    val, tr = perm[:n_val], perm[n_val:]

    def rows(idx):
        return x_cont[idx], x_onehot[idx], y[idx], w[idx], None if log_y_in is None else log_y_in[idx]

    def val_loss():
        return _ref_loss_and_gradients(net, *rows(val)[:3], fam, *rows(val)[3:], None)[0]

    p = net.params()
    keys = list(p)
    m = [np.zeros_like(p[k]) for k in keys]
    v = [np.zeros_like(p[k]) for k in keys]
    t = 0
    best_loss = val_loss()
    best, history, best_epoch, bad = net.get_flat_params(), [best_loss], 0, 0
    batch = min(net.spec.batch_size, len(tr))
    for _ in range(max_epochs):
        order = rng.permutation(len(tr))
        for s in range(0, len(order), batch):
            xc, xo, yb, wb, lyi = rows(tr[order[s : s + batch]])
            _, grads = _ref_loss_and_gradients(net, xc, xo, yb, fam, wb, lyi, dropout_rng)
            t += 1
            for j, k in enumerate(keys):
                g = grads[k].astype(np.float64)
                m[j] = ADAM_BETA1 * m[j] + (1 - ADAM_BETA1) * g
                v[j] = ADAM_BETA2 * v[j] + (1 - ADAM_BETA2) * g * g
                m_hat = m[j] / (1 - ADAM_BETA1**t)
                v_hat = v[j] / (1 - ADAM_BETA2**t)
                p[k][...] = p[k] - ADAM_LR * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        loss = val_loss()
        history.append(loss)
        if loss < best_loss - 1e-12:
            best_loss, best, best_epoch, bad = loss, net.get_flat_params(), len(history) - 1, 0
        else:
            bad += 1
            if bad >= patience:
                break
    return best, history, best_epoch


@pytest.fixture(scope="module")
def grafted_encoder():
    rng = np.random.default_rng(21)
    x_oh = np.zeros((150, 5))
    x_oh[np.arange(150), rng.integers(0, 2, 150)] = 1.0
    x_oh[np.arange(150), 2 + rng.integers(0, 3, 150)] = 1.0
    ae = train_autoencoder(x_oh, (("a", 2), ("b", 3)), d=2, seed=0, max_epochs=5)
    return x_oh, scale_encoder(ae, x_oh)


@pytest.mark.parametrize("grafted", [True, False], ids=["encoder", "one_hot"])
@pytest.mark.parametrize("cann_mode", [None, "fixed", "flexible"])
@pytest.mark.parametrize("dropout", [0.0, 0.05])
@pytest.mark.parametrize("activation", ["relu", "sigmoid", "softmax"])
def test_training_matches_allocating_reference(grafted_encoder, activation, dropout,
                                               cann_mode, grafted):
    """train_network ends on the same bits as the per-array reference loop
    of float32 passes and float64 Adam: 120 training rows in batches of 25
    (the last one partial) and 30 validation rows, more than one batch."""
    x_oh, encoder = grafted_encoder
    rng = np.random.default_rng(22)
    n = len(x_oh)
    x_cont = rng.normal(size=(n, 2))
    e = rng.uniform(0.5, 1.0, n)
    y = rng.poisson(0.6 * e).astype(float)
    log_y_in = None if cann_mode is None else rng.normal(-0.5, 0.2, n)
    spec = _spec(activation=activation, dropout=dropout, hidden_layers=2, batch_size=25, seed=3)

    def build():
        return build_network(spec, 2, encoder=encoder if grafted else None,
                             onehot_width=x_oh.shape[1], cann_mode=cann_mode,
                             out_bias=-0.5, seed=4)

    ref_params, ref_history, ref_best = _ref_train(build(), x_cont, x_oh, y, "poisson_log", e,
                                         log_y_in, seed=7, max_epochs=8, patience=3)
    net = train_network(build(), x_cont, x_oh, y, "poisson_log", e, log_y_in, seed=7,
                        max_epochs=8, patience=3)
    np.testing.assert_array_equal(net.get_flat_params(), ref_params)
    np.testing.assert_array_equal(net.history["val_history"], ref_history)
    assert net.history["best_epoch"] == ref_best
