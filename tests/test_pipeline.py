"""Per-fold network fitting and what the pipeline writes about it."""

import json
from dataclasses import replace

import numpy as np

from freqsev import pipeline
from freqsev.data import severity_view, stratified_folds
from freqsev.evaluation import get_family

from conftest import small_portfolio

FAST = replace(pipeline.DESK, grid_size=3, net_max_epochs=2, ae_max_epochs=5)


def test_network_grid_written_beside_chosen_spec(tmp_path, monkeypatch):
    monkeypatch.setitem(pipeline.PRESETS, "desk", FAST)
    ds = small_portfolio(n=600, seed=2).dataset
    config = pipeline.RunConfig(data_path="memory", schema_path="memory", seed=1,
                                families=("ffnn",), outdir=str(tmp_path))
    pipeline.run_pipeline(config, ds)
    for fold in range(6):
        with open(tmp_path / f"fold_{fold}" / "ffnn" / "model.json", encoding="utf-8") as fh:
            written = json.load(fh)
        grid = written["grid"]
        assert len(grid) == FAST.grid_size
        scores = [entry["inner_deviance"] for entry in grid]
        assert all(np.isfinite(scores))
        assert grid[int(np.argmin(scores))]["spec"] == written["spec"]


def test_plain_severity_network_starts_at_claim_weighted_mean():
    """With no training epochs a plain gamma network predicts its start
    value, the claim-weighted mean sum(w*y) / sum(w) of the training rows."""
    portfolio = small_portfolio(n=3000, seed=4, freq_intercept=-0.5)
    sev = severity_view(portfolio.dataset, portfolio.claims)
    assert np.ptp(sev.weights) > 0  # unequal claim counts
    plan = stratified_folds(sev, seed=0)
    preset = replace(FAST, grid_size=1, net_max_epochs=0)
    ctx = pipeline.build_fold_context(sev, "gamma_log", plan, 0, preset, seed=0)
    model = pipeline.fit_fold_network(ctx, sev, "gamma_log", plan, preset, seed=0)
    train = plan.train_rows(0)
    expected = get_family("gamma_log").mean(sev.response[train], sev.weights[train])
    pred = model.predict(sev.subset(plan.test_rows(0)))
    np.testing.assert_allclose(pred, expected, rtol=1e-12)
