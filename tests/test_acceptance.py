"""Acceptance suite: one test per acceptance criterion.

Each test prints a single `acceptance NN: PASS/FAIL` line (bypassing
pytest capture) and enforces the stated numeric tolerance and runtime
budget.
"""

import itertools
import sys
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from freqsev.data import (
    PortfolioSpec,
    generate_synthetic_portfolio,
    one_hot,
    stratified_folds,
)
from freqsev.evaluation import (
    LossVector,
    diebold_mariano,
    dominance,
    gamma_deviance,
    murphy_curve,
    poisson_deviance,
    poisson_deviance_contributions,
)
from freqsev.gbm import fit_gbm
from freqsev.glm import BinningRule, Design, fit_glm, tree_bin
from freqsev.embedding import (
    cross_entropy,
    decode_softmax,
    encode,
    scale_encoder,
    train_autoencoder,
)
from freqsev.neural import (
    NetworkSpec,
    batch_loss,
    build_network,
    cann_forward,
    forward,
    loss_and_gradients,
    train_network,
)
from freqsev.pipeline import RunConfig, run_pipeline
from freqsev.surrogate import build_surrogate, dp_segment
from freqsev.tariff import gini_index, minmax_select, ordered_lorenz


_capman = None


@pytest.fixture(autouse=True)
def _capture_manager(pytestconfig):
    # needed to print the per-criterion verdict past pytest's fd capture
    global _capman
    _capman = pytestconfig.pluginmanager.getplugin("capturemanager")
    yield


def _emit(number, ok, description):
    line = f"acceptance {number:2d}: {'PASS' if ok else 'FAIL'} - {description}\n"
    if _capman is not None:
        with _capman.global_and_fixture_disabled():
            sys.stdout.write(line)
            sys.stdout.flush()
    else:
        sys.stdout.write(line)
        sys.stdout.flush()


@contextmanager
def criterion(number, description, time_limit=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        _emit(number, False, description)
        raise
    elapsed = time.perf_counter() - start
    if time_limit is not None and elapsed > time_limit:
        _emit(number, False, description)
        pytest.fail(f"criterion {number} took {elapsed:.1f}s, budget {time_limit}s")
    _emit(number, True, description)


def test_criterion_01_deviance_oracles():
    with criterion(1, "deviance hand oracles to 1e-12", time_limit=1.0):
        assert poisson_deviance([1.0], [1.0], [1.0]) == 0.0
        assert abs(poisson_deviance([0.5], [0.0], [1.0]) - 1.0) < 1e-12
        assert abs(poisson_deviance([1.0, 1.0], [2.0, 0.0], [1.0, 1.0]) - 2 * np.log(2)) < 1e-12
        assert gamma_deviance([3.0, 7.0], [3.0, 7.0], [1.0, 1.0]) == 0.0
        assert abs(gamma_deviance([1.0], [2.0], [1.0]) - 2 * (1 - np.log(2))) < 1e-12
        single = gamma_deviance([1.0], [2.0], [1.0])
        assert abs(gamma_deviance([1.0], [2.0], [2.0]) - 2 * single) < 1e-12


def test_criterion_02_glm_closed_form_and_balance():
    with criterion(2, "single-factor GLM cell means and balance", time_limit=5.0):
        spec = PortfolioSpec(
            n=4000,
            categorical={"region": {"north": 0.4, "south": 0.35, "east": 0.25}},
            freq_intercept=-1.0,
            freq_coefs={"region": {"south": 0.5, "east": -0.5}},
        )
        ds = generate_synthetic_portfolio(spec, seed=11).dataset
        model = fit_glm(ds, Design(("region",)), "poisson_log")
        pred = model.predict(ds)
        codes = ds.columns["region"]
        for level in range(3):
            mask = codes == level
            closed_form = ds.response[mask].sum() / ds.exposure[mask].sum()
            fitted = pred[mask][0]
            assert abs(fitted - closed_form) < 1e-8 * max(closed_form, 1.0)
            np.testing.assert_allclose(pred[mask], fitted)
        total_pred = np.sum(pred * ds.exposure)
        total_obs = np.sum(ds.response)
        assert abs(total_pred - total_obs) < 1e-6 * total_obs


def test_criterion_03_gradient_check():
    with criterion(3, "backprop vs central differences < 1e-4", time_limit=30.0):
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
            spec = NetworkSpec(hidden_layers=2, nodes=10, activation=activation,
                               dropout=0.0, batch_size=256, seed=0)
            net = build_network(spec, 2, encoder=encoder, seed=6)
            flat = net.get_flat_params()
            flat = flat + rng.normal(scale=0.1, size=flat.size)
            net.set_flat_params(flat)
            _, grads = loss_and_gradients(net, x_cont, x_oh, y, "poisson_log", e)
            analytic = np.concatenate(
                [np.atleast_1d(np.asarray(grads[k], dtype=float)).ravel()
                 for k in net._trainable()]
            )
            h = 1e-5
            for idx in rng.choice(flat.size, 20, replace=False):
                up = flat.copy()
                up[idx] += h
                down = flat.copy()
                down[idx] -= h
                net.set_flat_params(up)
                lu = batch_loss(net, x_cont, x_oh, y, "poisson_log", e)
                net.set_flat_params(down)
                ld = batch_loss(net, x_cont, x_oh, y, "poisson_log", e)
                net.set_flat_params(flat)
                fd = (lu - ld) / (2 * h)
                denom = max(abs(fd), abs(analytic[idx]), 1e-8)
                assert abs(fd - analytic[idx]) / denom < 1e-4, (activation, idx)


def test_criterion_04_cann_identity():
    with criterion(4, "CANN reproduces its initial model", time_limit=120.0):
        spec = PortfolioSpec(
            n=20_000,
            continuous={"age": (18.0, 80.0)},
            categorical={"region": {"north": 0.4, "south": 0.35, "east": 0.25}},
            freq_intercept=-1.4,
            freq_coefs={"age": -0.008, "region": {"south": 0.4, "east": -0.3}},
        )
        ds = generate_synthetic_portfolio(spec, seed=21).dataset
        rule = tree_bin(ds.columns["age"], ds.response, ds.exposure, name="age")
        initial = fit_glm(
            ds, Design(("age", "region"), binning={"age": rule}), "poisson_log"
        )
        y_in = initial.predict(ds)
        log_y_in = np.log(y_in)

        age = ds.columns["age"]
        x_cont = ((age - age.mean()) / age.std())[:, None]
        x_oh, _ = one_hot(ds)
        net_spec = NetworkSpec(hidden_layers=1, nodes=10, activation="relu",
                               dropout=0.0, batch_size=5000, seed=0)
        net = build_network(net_spec, 1, onehot_width=x_oh.shape[1],
                            cann_mode="fixed", seed=7)
        at_init = cann_forward(net, x_cont, x_oh, y_in)
        np.testing.assert_allclose(at_init, y_in, rtol=1e-12)

        # refit on data simulated from the initial model itself
        rng = np.random.default_rng(22)
        y_star = rng.poisson(ds.exposure * y_in).astype(float)
        train_network(net, x_cont, x_oh, y_star, "poisson_log", ds.exposure,
                      log_y_in=log_y_in, seed=3, max_epochs=30, patience=5)
        after = forward(net, x_cont, x_oh, log_y_in)
        assert np.max(np.abs(after / y_in - 1.0)) < 0.01


def test_criterion_05_embedding_math():
    with criterion(5, "encoder rescaling and softmax decoding math"):
        spec = PortfolioSpec(
            n=2000,
            categorical={
                "region": {"north": 0.4, "south": 0.35, "east": 0.25},
                "cover": {"basic": 0.6, "full": 0.4},
            },
            freq_intercept=-1.5,
        )
        ds = generate_synthetic_portfolio(spec, seed=31).dataset
        x, blocks = one_hot(ds)
        ae = train_autoencoder(x, blocks, d=2, seed=1, max_epochs=60)
        scaled = scale_encoder(ae, x)
        codes = encode(scaled, x)
        assert np.all(np.abs(codes.mean(axis=0)) < 1e-6)
        assert np.all(np.abs(codes.std(axis=0) - 1.0) < 1e-6)

        rng = np.random.default_rng(32)
        probs = decode_softmax(ae, rng.normal(size=(50, 2)))
        start = 0
        for _, width in blocks:
            sums = probs[:, start : start + width].sum(axis=1)
            assert np.all(np.abs(sums - 1.0) < 1e-12)
            start += width

        widths = [w for _, w in blocks]
        uniform = np.concatenate([np.full(w, 1.0 / w) for w in widths])
        target = np.zeros(sum(widths))
        target[0] = 1.0
        target[widths[0]] = 1.0
        ce = cross_entropy(uniform[None, :], target[None, :])
        assert abs(ce - sum(np.log(w) for w in widths)) < 1e-9


def _recovery_portfolio(seed, n=50_000):
    spec = PortfolioSpec(
        n=n,
        categorical={
            "region": {"north": 0.4, "south": 0.35, "east": 0.25},
            "cover": {"basic": 0.6, "full": 0.4},
            "vehicle": {"hatch": 0.3, "sedan": 0.3, "suv": 0.25, "van": 0.15},
        },
        freq_intercept=-2.0,
        freq_coefs={
            "region": {"south": 0.4, "east": -0.3},
            "cover": {"full": 0.3},
            "vehicle": {"sedan": 0.15, "suv": -0.25, "van": 0.1},
        },
    )
    return generate_synthetic_portfolio(spec, seed=seed)


def _fit_gbm_with_prefix(train, valid, seed):
    """Fit once at the largest size and keep the validation-best prefix."""
    model = fit_gbm(train, "poisson_log", n_trees=150, depth=2, seed=seed, shrinkage=0.05)
    best = None
    for t in range(20, 151, 10):
        dev = poisson_deviance(
            replace(model, trees=model.trees[:t]).predict(valid), valid.response, valid.exposure
        )
        if best is None or dev < best[0]:
            best = (dev, t)
    model.trees = model.trees[: best[1]]
    model.n_trees = best[1]
    return model


def _fit_cann_gbm_flexible(full, train_rows, gbm, seed):
    ds = full.dataset
    x_cont = np.zeros((ds.n, 0))
    x_oh, _ = one_hot(ds)
    log_y_in = np.log(gbm.predict(ds))
    spec = NetworkSpec(hidden_layers=1, nodes=20, activation="relu",
                       dropout=0.0, batch_size=20_000, seed=0)
    net = build_network(spec, 0, onehot_width=x_oh.shape[1],
                        cann_mode="flexible", seed=seed)
    train_network(
        net,
        x_cont[train_rows],
        x_oh[train_rows],
        ds.response[train_rows],
        "poisson_log",
        ds.exposure[train_rows],
        log_y_in=log_y_in[train_rows],
        seed=seed,
        max_epochs=300,
        patience=80,
        lr=1e-2,
    )

    def predict(rows):
        return forward(net, x_cont[rows], x_oh[rows], log_y_in[rows])

    return predict


def test_criterion_06_synthetic_recovery():
    with criterion(6, "50k-row synthetic truth recovery", time_limit=600.0):
        portfolio = _recovery_portfolio(seed=0)
        ds = portfolio.dataset
        n = ds.n
        train_rows = np.arange(40_000)
        fit_rows = np.arange(32_000)
        val_rows = np.arange(32_000, 40_000)
        test_rows = np.arange(40_000, n)
        train, fit_part = ds.subset(train_rows), ds.subset(fit_rows)
        valid, test = ds.subset(val_rows), ds.subset(test_rows)

        y_te, e_te = test.response, test.exposure
        dev_true = poisson_deviance(portfolio.true_rate[test_rows], y_te, e_te)

        glm = fit_glm(train, Design(("region", "cover", "vehicle")), "poisson_log")
        dev_glm = poisson_deviance(glm.predict(test), y_te, e_te)

        gbm = _fit_gbm_with_prefix(fit_part, valid, seed=1)
        dev_gbm = poisson_deviance(gbm.predict(test), y_te, e_te)

        cann_predict = _fit_cann_gbm_flexible(portfolio, train_rows, gbm, seed=2)
        dev_cann = poisson_deviance(cann_predict(test_rows), y_te, e_te)

        for dev in (dev_glm, dev_gbm, dev_cann):
            assert abs(dev - dev_true) / dev_true < 0.02, (dev, dev_true)

        # DM between the CANN and the generating truth over fresh seeds
        no_reject = 0
        for seed in range(10):
            p = _recovery_portfolio(seed=100 + seed)
            rows_tr = np.arange(32_000)
            rows_val = np.arange(32_000, 40_000)
            rows_te = np.arange(40_000, p.dataset.n)
            g = _fit_gbm_with_prefix(p.dataset.subset(rows_tr),
                                     p.dataset.subset(rows_val), seed=seed)
            predict = _fit_cann_gbm_flexible(p, np.arange(40_000), g, seed=seed)
            te = p.dataset.subset(rows_te)
            loss_cann = poisson_deviance_contributions(
                predict(rows_te), te.response, te.exposure
            )
            loss_true = poisson_deviance_contributions(
                p.true_rate[rows_te], te.response, te.exposure
            )
            result = diebold_mariano(
                LossVector(loss_cann, "cann"), LossVector(loss_true, "truth")
            )
            if result.verdict != "reject":
                no_reject += 1
        assert no_reject >= 8, no_reject


def test_criterion_07_dp_equals_brute_force():
    with criterion(7, "DP segmentation equals exhaustive enumeration", time_limit=10.0):
        rng = np.random.default_rng(7)
        for n in (5, 9, 12):
            values = rng.normal(size=n)
            weights = rng.uniform(0.5, 3.0, n)
            for k in range(1, n + 1):
                best = np.inf
                for splits in itertools.combinations(range(1, n), k - 1):
                    cost = 0.0
                    for i, j in zip((0, *splits), (*splits, n)):
                        w = weights[i:j]
                        v = values[i:j]
                        mean = np.sum(w * v) / w.sum()
                        cost += float(np.sum(w * (v - mean) ** 2))
                    best = min(best, cost)
                assert abs(dp_segment(values, weights, k).cost - best) < 1e-9


def test_criterion_08_surrogate_self_distillation():
    with criterion(8, "surrogate recovers a binned GLM black-box"):
        spec = PortfolioSpec(
            n=5000,
            continuous={"age": (18.0, 80.0)},
            categorical={"region": {"north": 0.4, "south": 0.35, "east": 0.25}},
            freq_intercept=-1.2,
            freq_coefs={"region": {"south": 0.8, "east": -0.8}},
            exposure_range=(1.0, 1.0),
        )
        p = generate_synthetic_portfolio(spec, seed=81)
        ds = p.dataset
        age = np.floor(ds.columns["age"])
        ds = ds.with_column("age", age)
        rng = np.random.default_rng(82)
        bump = np.where(age <= 40.0, 0.0, np.where(age <= 60.0, 0.8, 1.6))
        rate = p.true_rate * np.exp(bump)
        ds = ds.with_column("claim_count", rng.poisson(ds.exposure * rate).astype(float))
        design = Design(("age", "region"),
                        binning={"age": BinningRule("age", (40.0, 60.0))})
        black_box = fit_glm(ds, design, "poisson_log")

        surrogate = build_surrogate(black_box, ds, "poisson_log")
        assert set(surrogate.report["selected"]["mains"]) == {"age", "region"}
        ratio = surrogate.predict(ds) / black_box.predict(ds)
        assert np.max(np.abs(ratio - 1.0)) < 0.01


def test_criterion_09_tariff_geometry():
    with criterion(9, "ordered-Lorenz Gini geometry and min-max rule"):
        assert gini_index([0.0, 1.0, 1.0], [0.0, 0.0, 1.0]) == 1.0

        rng = np.random.default_rng(91)
        premiums = rng.uniform(0.5, 3.0, 500)
        losses = rng.poisson(0.3, 500).astype(float) * rng.uniform(200, 800, 500)
        losses[0] = max(losses[0], 1.0)
        x, y = ordered_lorenz(premiums, premiums, losses)
        assert gini_index(x, y) == 0.0

        matrix = np.array([
            [0.0, 16.59, 1.0, 2.0],
            [0.0, 0.0, 16.48, 3.0],
            [-6.41, -7.0, 0.0, -8.0],
            [21.50, 0.0, 1.0, 0.0],
        ])
        selected, row_max, _ = minmax_select(matrix)
        np.testing.assert_allclose(row_max, [16.59, 16.48, -6.41, 21.50])
        assert selected == 2


def test_criterion_10_murphy_dominance():
    with criterion(10, "Murphy crossing verdict and score support"):
        responses = np.array([0.0, 2.0])
        pred_a = np.array([0.1, 1.0])
        pred_b = np.array([1.0, 2.0])
        grid = np.array([0.05, 0.5, 1.5])
        curve_a = murphy_curve(pred_a, responses, grid, model_id="A")
        curve_b = murphy_curve(pred_b, responses, grid, model_id="B")
        # the two curves cross: A is better at theta=0.5, B at theta=1.5
        assert curve_a.scores[1] < curve_b.scores[1]
        assert curve_a.scores[2] > curve_b.scores[2]
        assert dominance(curve_a, curve_b) == "incomparable"

        rng = np.random.default_rng(101)
        for _ in range(1000):
            f = rng.uniform(0.1, 5.0)
            y = float(rng.poisson(1.0))
            lo, hi = min(f, y), max(f, y)
            outside = hi + rng.uniform(0.01, 3.0) if rng.random() < 0.5 else lo - rng.uniform(0.01, 3.0)
            curve = murphy_curve([f], [y], [outside])
            assert curve.scores[0] == 0.0


def test_criterion_11_determinism_and_leakage(tmp_path):
    with criterion(11, "seed determinism and fold isolation"):
        spec = PortfolioSpec(
            n=1500,
            continuous={"age": (18.0, 80.0)},
            categorical={"region": {"north": 0.5, "south": 0.5}},
            freq_intercept=-1.2,
            freq_coefs={"age": -0.01, "region": {"south": 0.4}},
        )
        ds = generate_synthetic_portfolio(spec, seed=111).dataset
        plan = stratified_folds(ds, seed=5)

        def run(dataset, outdir):
            config = RunConfig(
                data_path="memory", schema_path="memory", claims_path=None,
                seed=9, families=("glm", "gbm"), preset="desk",
                outdir=str(outdir), response_family="poisson_log",
            )
            return run_pipeline(config, dataset, plan)

        run(ds, tmp_path / "a")
        run(ds, tmp_path / "b")
        table_a = (tmp_path / "a" / "loss_table.csv").read_bytes()
        table_b = (tmp_path / "b" / "loss_table.csv").read_bytes()
        assert table_a == table_b

        # poison fold 0's held-out responses; its trained weights must not move
        poisoned_y = ds.response.copy()
        poisoned_y[plan.test_rows(0)] += 7.0
        run(ds.with_column("claim_count", poisoned_y), tmp_path / "c")
        for family in ("glm", "gbm"):
            clean = (tmp_path / "a" / "fold_0" / family / "model.json").read_bytes()
            poisoned = (tmp_path / "c" / "fold_0" / family / "model.json").read_bytes()
            assert clean == poisoned, family
