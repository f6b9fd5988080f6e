"""Per-fold network fitting, what the pipeline writes about it and how
the written models load back."""

import json
from dataclasses import replace

import numpy as np
import pytest

from freqsev import pipeline
from freqsev.data import severity_view, stratified_folds
from freqsev.evaluation import get_family

from conftest import small_portfolio

FAST = replace(pipeline.DESK, grid_size=3, net_max_epochs=2, ae_max_epochs=5,
               gbm_tree_grid=(10, 20), gbm_depth_grid=(1, 2))


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
        encoder = written["autoencoder"]
        assert encoder["dim"] == len(written["members"][0]["encoder_b"]) == FAST.ae_candidates[0]
        assert isinstance(encoder["qualified"], bool)


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


def test_network_fold_isolation(tmp_path, monkeypatch):
    """The poisoned-fold probe of acceptance 11 for networks: moving fold
    0's held-out responses leaves fold 0's written models byte-identical."""
    monkeypatch.setitem(pipeline.PRESETS, "desk", FAST)
    ds = small_portfolio(n=600, seed=3).dataset
    plan = stratified_folds(ds, seed=5)
    families = ("ffnn", "cann_glm_fixed")

    def run(dataset, outdir):
        config = pipeline.RunConfig(data_path="memory", schema_path="memory", seed=9,
                                    families=families, outdir=str(outdir))
        pipeline.run_pipeline(config, dataset, plan)

    poisoned_y = ds.response.copy()
    poisoned_y[plan.test_rows(0)] += 7.0
    run(ds, tmp_path / "clean")
    run(ds.with_column(ds.response_name, poisoned_y), tmp_path / "poisoned")
    for family in families:
        clean = (tmp_path / "clean" / "fold_0" / family / "model.json").read_bytes()
        poisoned = (tmp_path / "poisoned" / "fold_0" / family / "model.json").read_bytes()
        assert clean == poisoned, family


def test_every_written_model_reloads_bit_identically(tmp_path, monkeypatch):
    """load_model on each fold's model.json predicts exactly what the
    fitted model predicted and writes the same bytes again."""
    monkeypatch.setitem(pipeline.PRESETS, "desk", FAST)
    portfolio = small_portfolio(n=1200, seed=5, freq_intercept=-0.5)
    sev = severity_view(portfolio.dataset, portfolio.claims)
    runs = [(portfolio.dataset, "poisson_log", pipeline.KNOWN_FAMILIES),
            (sev, "gamma_log", ("ffnn", "cann_glm_fixed"))]
    for ds, family, families in runs:
        outdir = tmp_path / family
        config = pipeline.RunConfig(data_path="memory", schema_path="memory", seed=1,
                                    families=families, outdir=str(outdir),
                                    response_family=family)
        plan = stratified_folds(ds, seed=0)
        result = pipeline.run_pipeline(config, ds, plan)
        for fold in range(plan.k_outer):
            held_out = ds.subset(plan.test_rows(fold))
            for name in families:
                path = outdir / f"fold_{fold}" / name / "model.json"
                model = pipeline.load_model(path)
                assert model.family == family
                np.testing.assert_array_equal(
                    model.predict(held_out), result["predictions"][name][plan.test_rows(fold)])
                assert model.to_json() == path.read_text(encoding="utf-8"), (family, name, fold)


def test_load_model_rejects_an_untagged_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"spec": None, "members": []}), encoding="utf-8")
    with pytest.raises(pipeline.PipelineError, match="kind None"):
        pipeline.load_model(path)
