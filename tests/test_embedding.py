"""Autoencoder embeddings: encode/decode math, training, rescaling."""

import numpy as np
import pytest

from freqsev import embedding
from freqsev.data import one_hot
from freqsev.embedding import (
    Autoencoder,
    EmbeddingError,
    cross_entropy,
    decode_softmax,
    encode,
    reconstruction_loss,
    scale_encoder,
    select_dimension,
    train_autoencoder,
)

from conftest import small_portfolio


def _tiny_ae(d=2, blocks=(("a", 2), ("b", 3))):
    width = sum(w for _, w in blocks)
    rng = np.random.default_rng(0)
    return Autoencoder(
        rng.normal(size=(d, width)),
        rng.normal(size=d),
        rng.normal(size=(width, d)),
        rng.normal(size=width),
        blocks,
    )


def test_encode_linear_algebra():
    ae = _tiny_ae()
    zeroed = Autoencoder(
        np.zeros_like(ae.w_enc), np.zeros_like(ae.b_enc), ae.w_dec, ae.b_dec, ae.blocks
    )
    np.testing.assert_array_equal(encode(zeroed, np.eye(5)[0]), np.zeros(2))
    row = np.zeros(5)
    row[3] = 1.0
    np.testing.assert_allclose(encode(ae, row), ae.w_enc[:, 3] + ae.b_enc)


def test_decode_softmax_blocks():
    ae = _tiny_ae()
    probs = decode_softmax(ae, np.zeros(2))
    assert abs(probs[:2].sum() - 1.0) < 1e-12
    assert abs(probs[2:].sum() - 1.0) < 1e-12
    # logits [0, ln 2] in a 2-block -> [1/3, 2/3]
    logits_ae = Autoencoder(
        np.zeros((1, 2)), np.zeros(1), np.zeros((2, 1)),
        np.array([0.0, np.log(2.0)]), (("a", 2),),
    )
    np.testing.assert_allclose(decode_softmax(logits_ae, np.zeros(1)), [1 / 3, 2 / 3])


def test_uniform_cross_entropy_baseline():
    blocks = (("a", 2), ("b", 3))
    uniform = np.concatenate([np.full(2, 0.5), np.full(3, 1 / 3)])
    x = np.zeros(5)
    x[[0, 2]] = 1.0
    ce = cross_entropy(uniform[None, :], x[None, :])
    assert abs(ce - (np.log(2) + np.log(3))) < 1e-9


def test_perfect_reconstruction_zero_loss():
    x = np.array([[1.0, 0.0, 0.0, 1.0, 0.0]])
    assert cross_entropy(x.clip(1e-12, 1), x) < 1e-9


def test_train_autoencoder_reconstructs_toy():
    rng = np.random.default_rng(4)
    a = rng.integers(0, 2, 800)
    b = rng.integers(0, 3, 800)
    x = np.zeros((800, 5))
    x[np.arange(800), a] = 1.0
    x[np.arange(800), 2 + b] = 1.0
    ae = train_autoencoder(x, (("a", 2), ("b", 3)), d=2, seed=0, max_epochs=800, lr=1e-2)
    probs = decode_softmax(ae, encode(ae, x))
    acc_a = np.mean(np.argmax(probs[:, :2], axis=1) == a)
    acc_b = np.mean(np.argmax(probs[:, 2:], axis=1) == b)
    assert acc_a == 1.0 and acc_b == 1.0


def test_select_dimension_fallback_flag():
    rng = np.random.default_rng(5)
    a = rng.integers(0, 2, 300)
    x = np.zeros((300, 2))
    x[np.arange(300), a] = 1.0
    d, ae, qualified = select_dimension(x, (("a", 2),), candidates=(1,), seed=0,
                                        max_epochs=200)
    assert d == 1
    if not qualified:
        assert reconstruction_loss(ae, x) >= 1e-3


def test_select_dimension_trains_only_candidates_below_the_one_hot_width(monkeypatch):
    """A dimension at or above the one-hot width compresses nothing: it is
    not trained, and with no smaller candidate there is no encoder."""
    trained, real_train = [], embedding.train_autoencoder

    def train_autoencoder(x, blocks, d, **kwargs):
        trained.append(d)
        return real_train(x, blocks, d, **kwargs)

    monkeypatch.setattr(embedding, "train_autoencoder", train_autoencoder)
    rng = np.random.default_rng(3)
    a, b = rng.integers(0, 3, 200), rng.integers(0, 2, 200)
    x = np.zeros((200, 5))
    x[np.arange(200), a] = 1.0
    x[np.arange(200), 3 + b] = 1.0
    blocks = (("a", 3), ("b", 2))
    assert select_dimension(x, blocks, candidates=(5, 10, 15), seed=0) == (None, None, False)
    assert trained == []
    d, ae, _ = select_dimension(x, blocks, candidates=(10, 2, 5), seed=0, max_epochs=5)
    assert trained == [2] and d == ae.dim == 2


def test_scale_encoder_math():
    # sigma 2, mu 4, b 4 -> scaled bias 0, row halved
    ae = Autoencoder(
        np.array([[2.0, -2.0]]), np.array([4.0]),
        np.zeros((2, 1)), np.zeros(2), (("a", 2),),
    )
    x = np.array([[1.0, 0.0], [0.0, 1.0]])  # codes 6, 2 -> mu 4, sigma 2
    scaled = scale_encoder(ae, x)
    np.testing.assert_allclose(scaled.b_enc, [0.0])
    np.testing.assert_allclose(scaled.w_enc, [[1.0, -1.0]])
    # consistency: scaled encoding equals standardized unscaled encoding
    codes = encode(ae, x)
    np.testing.assert_allclose(
        encode(scaled, x), (codes - codes.mean(0)) / codes.std(0), atol=1e-10
    )


def test_scale_encoder_zero_variance_error():
    ae = Autoencoder(np.zeros((1, 2)), np.zeros(1), np.zeros((2, 1)), np.zeros(2),
                     (("a", 2),))
    with pytest.raises(EmbeddingError, match="dead"):
        scale_encoder(ae, np.eye(2))


def test_scaled_codes_standardized(portfolio):
    x, blocks = one_hot(portfolio.dataset)
    ae = train_autoencoder(x, blocks, d=2, seed=1, max_epochs=60)
    scaled = scale_encoder(ae, x)
    codes = encode(scaled, x)
    assert np.all(np.abs(codes.mean(axis=0)) < 1e-6)
    assert np.all(np.abs(codes.std(axis=0) - 1.0) < 1e-6)
