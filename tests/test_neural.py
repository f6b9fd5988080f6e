"""Feed-forward and CANN networks: forward math, gradients, training."""

import numpy as np
import pytest

from freqsev.data import one_hot, scaling_stats
from freqsev.embedding import scale_encoder, train_autoencoder
from freqsev.neural import (
    FREQUENCY_SPACE,
    NetworkSpec,
    NeuralError,
    batch_loss,
    build_network,
    cann_forward,
    forward,
    loss_and_gradients,
    network_from_json,
    network_to_json,
    random_grid,
    train_network,
)

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


def test_forward_hand_computation():
    net = build_network(_spec(), n_continuous=2, onehot_width=0, seed=0)
    w = np.zeros((10, 2))
    w[0] = [1.0, -1.0]
    net.hidden[0] = (w, np.zeros(10))
    net.out_w = np.zeros(10)
    net.out_w[0] = 2.0
    net.out_b = 0.5
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
        net.out_w = rng.normal(size=net.out_w.shape)
        net.out_b = float(rng.normal())
        x = rng.normal(size=(5, 2))
        assert np.all(forward(net, x, np.zeros((5, 0))) > 0)


def test_cann_forward_oracle():
    net = build_network(_spec(), 1, onehot_width=0, cann_mode="fixed", seed=0)
    net.out_b = np.log(1.5)  # adjustment y_nn = ln 1.5
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
    grid = random_grid(FREQUENCY_SPACE, n=40, seed=0)
    assert len(grid) == 40
    for spec in grid:
        assert 1 <= spec.hidden_layers <= 4
        assert 10 <= spec.nodes <= 50
        assert spec.activation in ("relu", "sigmoid", "softmax")
        assert 0.0 <= spec.dropout <= 0.1
        assert 10_000 <= spec.batch_size <= 50_000
    again = random_grid(FREQUENCY_SPACE, n=40, seed=0)
    assert grid == again
    for axis in ("hidden_layers", "nodes"):
        values = {getattr(s, axis) for s in grid}
        assert len(values) >= 3


def test_gradient_check_all_activations():
    rng = np.random.default_rng(5)
    n = 40
    x_cont = rng.normal(size=(n, 2))
    codes = rng.integers(0, 3, n)
    x_oh = np.zeros((n, 3))
    x_oh[np.arange(n), codes] = 1.0
    ae = train_autoencoder(x_oh, (("g", 3),), d=2, seed=0, max_epochs=30)
    encoder = scale_encoder(ae, x_oh)
    y = rng.poisson(0.5, n).astype(float)
    e = rng.uniform(0.5, 1.0, n)
    for activation in ("relu", "sigmoid", "softmax"):
        net = build_network(
            _spec(activation=activation, hidden_layers=2), 2, encoder=encoder, seed=6
        )
        flat = net.get_flat_params() + rng.normal(scale=0.1, size=net.get_flat_params().size)
        net.set_flat_params(flat)
        _, grads = loss_and_gradients(net, x_cont, x_oh, y, "poisson_log", e)
        keys = net._trainable()
        analytic = np.concatenate(
            [np.atleast_1d(np.asarray(grads[k], dtype=float)).ravel() for k in keys]
        )
        h = 1e-5
        for idx in rng.choice(flat.size, 20, replace=False):
            up = flat.copy(); up[idx] += h
            down = flat.copy(); down[idx] -= h
            net.set_flat_params(up)
            lu = batch_loss(net, x_cont, x_oh, y, "poisson_log", e)
            net.set_flat_params(down)
            ld = batch_loss(net, x_cont, x_oh, y, "poisson_log", e)
            net.set_flat_params(flat)
            fd = (lu - ld) / (2 * h)
            denom = max(abs(fd), abs(analytic[idx]), 1e-8)
            assert abs(fd - analytic[idx]) / denom < 1e-4, (activation, idx)


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
    net.out_w = np.random.default_rng(1).normal(size=net.out_w.shape)
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
    clone = network_from_json(network_to_json(net))
    x = rng.normal(size=(6, 2))
    oh = np.zeros((6, 3))
    oh[np.arange(6), rng.integers(0, 3, 6)] = 1.0
    lyi = rng.normal(size=6)
    np.testing.assert_allclose(
        forward(clone, x, oh, lyi), forward(net, x, oh, lyi), rtol=1e-14
    )


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
