"""The Family contract: each response distribution's loss arithmetic."""

import numpy as np
import pytest

from freqsev.data import severity_view
from freqsev.evaluation import FAMILIES, EvaluationError, get_family
from freqsev.gbm import GbmError, fit_gbm
from freqsev.glm import Design, GlmError, fit_glm, tree_bin
from freqsev.neural import NetworkSpec, NeuralError, build_network, train_network
from freqsev.pipeline import PipelineError, RunConfig

from conftest import small_portfolio


def _sample(fam, n=25, seed=0):
    """Responses and observation weights of the family's kind."""
    rng = np.random.default_rng(seed)
    if fam.severity:
        return rng.gamma(2.0, 500.0, n), rng.integers(1, 4, n).astype(float)
    return rng.poisson(0.8, n).astype(float), rng.uniform(0.5, 1.0, n)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_gradients_match_finite_differences(name):
    fam = get_family(name)
    y, w = _sample(fam)
    n = len(y)
    score = np.log(fam.mean(y, w)) + np.random.default_rng(1).normal(scale=0.3, size=n)

    def mean_deviance(s):
        return float(np.mean(fam.contributions(np.exp(s), y, w)))

    h = 1e-6
    steps = h * np.eye(n)
    fd = np.array([(mean_deviance(score + d) - mean_deviance(score - d)) / (2 * h) for d in steps])
    f = np.exp(score)
    # the GBM fits the negative gradient of half the summed deviance
    np.testing.assert_allclose(-2.0 * fam.gradient(f, y, w) / n, fd, rtol=1e-6, atol=1e-10)
    fd_hess = np.array([
        (fam.gradient(np.exp(score - d), y, w)[i] - fam.gradient(np.exp(score + d), y, w)[i])
        / (2 * h)
        for i, d in enumerate(steps)
    ])
    np.testing.assert_allclose(fam.hessian(f, y, w), fd_hess, rtol=1e-6, atol=1e-10)
    loss, du = fam.network_loss(f, y, w)
    assert loss == pytest.approx(mean_deviance(score), rel=1e-12)
    np.testing.assert_allclose(du, fd, rtol=1e-6, atol=1e-10)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_deviance_uses_the_observation_weight(name):
    fam = get_family(name)
    p = small_portfolio(n=300, seed=2)
    ds = severity_view(p.dataset, p.claims) if fam.severity else p.dataset
    w = ds.weights if fam.severity else ds.exposure
    np.testing.assert_array_equal(fam.obs_weight(ds), w)
    pred = np.full(ds.n, fam.mean(ds.response, w))
    expected = np.mean(fam.contributions(pred, ds.response, w))
    assert fam.deviance(pred, ds) == expected


def test_unknown_family_raises_each_modules_error():
    ds = small_portfolio(n=200, seed=3).dataset
    with pytest.raises(EvaluationError):
        get_family("Poisson")
    with pytest.raises(GlmError):
        fit_glm(ds, Design(), "Poisson")
    with pytest.raises(GlmError):
        tree_bin(ds.columns["age"], ds.response, ds.exposure, family="Poisson")
    with pytest.raises(GbmError):
        fit_gbm(ds, "Poisson", n_trees=1, depth=1)
    spec = NetworkSpec(hidden_layers=1, nodes=10, activation="relu", dropout=0.0, batch_size=64)
    net = build_network(spec, 1, onehot_width=0)
    x = ds.columns["age"][:, None] / 80.0
    with pytest.raises(NeuralError):
        train_network(net, x, np.zeros((ds.n, 0)), ds.response, "Poisson", ds.exposure,
                      max_epochs=1)
    for bad in ("Poisson", ["poisson_log"]):  # a JSON config can hold any value
        with pytest.raises(PipelineError):
            RunConfig(response_family=bad)
