"""Per-fold network fitting, what the pipeline writes about it and how
the written models load back."""

import json
import multiprocessing
import os
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from freqsev import _workers, gbm, glm, pipeline
from freqsev._rand import derive_seed
from freqsev.data import (Dataset, PortfolioSpec, ScalingStats, generate_synthetic_portfolio,
                          severity_view, stratified_folds)
from freqsev.evaluation import get_family
from freqsev.glm import GlmModel
from freqsev.neural import NetworkSpec, build_network

from conftest import small_portfolio

FAST = replace(pipeline.DESK, grid_size=3, net_max_epochs=2, ae_max_epochs=5,
               gbm_tree_grid=(10, 20), gbm_depth_grid=(1, 2))


def test_network_grid_written_beside_chosen_spec(tmp_path, monkeypatch):
    monkeypatch.setitem(pipeline.PRESETS, "desk", FAST)
    ds = small_portfolio(n=600, seed=2).dataset
    config = pipeline.RunConfig(data_path="memory", schema_path="memory", seed=1,
                                families=("ffnn",), outdir=str(tmp_path))
    pipeline.run_pipeline(config, ds)
    specs = []
    for fold in range(6):
        with open(tmp_path / f"fold_{fold}" / "ffnn" / "model.json", encoding="utf-8") as fh:
            written = json.load(fh)
        grid = written["grid"]
        assert len(grid) == FAST.grid_size
        scores = [entry["inner_deviance"] for entry in grid]
        assert all(np.isfinite(scores))
        assert grid[int(np.argmin(scores))]["spec"] == written["spec"]
        for entry in grid:  # one score per inner fold, whose mean is the spec's
            assert len(entry["inner_fold_deviances"]) == 5
            assert entry["inner_deviance"] == np.mean(entry["inner_fold_deviances"])
        # one grid per run: every fold draws the same specs
        specs.append([entry["spec"] for entry in grid])
        # the desk candidate 5 does not compress the 3-wide one-hot: no encoder
        assert written["autoencoder"] == {"dim": None, "qualified": False, "onehot_width": 3}
        assert written["members"][0]["encoder_dim"] is None
    assert all(drawn == specs[0] for drawn in specs)


def test_gbm_grid_written_beside_tuned_pair(tmp_path):
    """The GBM's inner-CV grid: one cell per depth and tree count, depths
    as given and tree counts ascending, whose first minimum is the tuned
    pair; load_model keeps it."""
    ds = small_portfolio(n=600, seed=2).dataset
    plan = stratified_folds(ds, seed=0)
    preset = replace(FAST, gbm_tree_grid=(20, 10), gbm_depth_grid=(2, 1, 3))
    model = pipeline.fit_fold_gbm(ds, "poisson_log", plan, 0, preset, seed=1)
    grid = model.tuned["grid"]
    assert [(e["n_trees"], e["depth"]) for e in grid] == [
        (t, d) for d in (2, 1, 3) for t in (10, 20)]
    scores = [e["inner_deviance"] for e in grid]
    assert all(np.isfinite(scores))
    best = grid[int(np.argmin(scores))]
    assert (best["n_trees"], best["depth"]) == (model.tuned["n_trees"], model.tuned["depth"])
    assert (model.n_trees, model.depth) == (best["n_trees"], best["depth"])
    pipeline.save_model(model, tmp_path / "model.json")
    assert pipeline.load_model(tmp_path / "model.json").tuned == model.tuned


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


@pytest.mark.parametrize("name", [name for name, (base, _) in pipeline.MODEL_FAMILIES.items()
                                  if base != name])
def test_network_fold_isolation(tmp_path, monkeypatch, name):
    """The poisoned-fold probe of acceptance 11 for each network family:
    moving fold 0's held-out responses leaves fold 0's written model, and
    the CANN initial model inside it, byte-identical."""
    monkeypatch.setitem(pipeline.PRESETS, "desk", FAST)
    ds = small_portfolio(n=600, seed=3).dataset
    plan = stratified_folds(ds, seed=5)

    def run(dataset, outdir):
        config = pipeline.RunConfig(data_path="memory", schema_path="memory", seed=9,
                                    families=(name,), outdir=str(outdir))
        pipeline.run_pipeline(config, dataset, plan)
        return (outdir / "fold_0" / name / "model.json").read_bytes()

    poisoned_y = ds.response.copy()
    poisoned_y[plan.test_rows(0)] += 7.0
    assert run(ds, tmp_path / "clean") == run(ds.with_column(ds.response_name, poisoned_y),
                                              tmp_path / "poisoned")


def test_every_written_model_reloads_bit_identically(tmp_path, monkeypatch):
    """load_model on each fold's model.json predicts exactly what the
    fitted model predicted, keeps the fields no prediction reads (the
    scaling stats' fold, the GLM log-likelihood) and saves the same bytes
    again. Every CSV file of the run ends its lines with LF alone."""
    monkeypatch.setitem(pipeline.PRESETS, "desk", FAST)
    portfolio = small_portfolio(n=1200, seed=5, freq_intercept=-0.5)
    sev = severity_view(portfolio.dataset, portfolio.claims)
    runs = [(portfolio.dataset, "poisson_log", tuple(pipeline.MODEL_FAMILIES)),
            (sev, "gamma_log", ("ffnn", "cann_glm_fixed"))]
    for ds, family, families in runs:
        outdir = tmp_path / family
        config = pipeline.RunConfig(data_path="memory", schema_path="memory", seed=1,
                                    families=families, outdir=str(outdir),
                                    response_family=family)
        plan = stratified_folds(ds, seed=0)
        result = pipeline.run_pipeline(config, ds, plan)
        written = sorted(outdir.rglob("*.csv"))
        assert len(written) == (plan.k_outer + 1) * len(families) + 1
        assert not [path for path in written if b"\r" in path.read_bytes()]
        for fold in range(plan.k_outer):
            held_out = ds.subset(plan.test_rows(fold))
            for name in families:
                path = outdir / f"fold_{fold}" / name / "model.json"
                model = pipeline.load_model(path)
                assert model.family == family
                np.testing.assert_array_equal(
                    model.predict(held_out), result["predictions"][name][plan.test_rows(fold)])
                resaved = tmp_path / "resaved.json"
                pipeline.save_model(model, resaved)
                assert resaved.read_bytes() == path.read_bytes(), (family, name, fold)
                if isinstance(model, pipeline.AveragedNetworks):
                    assert model.stats.train_fold == fold
                    model = model.initial_model
                if isinstance(model, GlmModel):
                    assert np.isfinite(model.loglik)


def test_load_model_rejects_an_untagged_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"spec": None, "members": []}), encoding="utf-8")
    with pytest.raises(pipeline.PipelineError, match="kind None"):
        pipeline.load_model(path)


def _networks_payload():
    spec = NetworkSpec(hidden_layers=1, nodes=10, activation="relu", dropout=0.0, batch_size=64)
    net = build_network(spec, 2, onehot_width=3, seed=0)
    stats = ScalingStats({"age": 40.0}, {"age": 10.0}, 0)
    return pipeline.AveragedNetworks("poisson_log", [net], stats, spec, []).to_dict()


def _short_theta():
    payload = _networks_payload()
    payload["members"][0]["theta"].pop()
    return payload


def _tampered_spec(where, field, value):
    payload = _networks_payload()
    spec = payload["spec"] if where == "chosen" else payload["members"][0]["spec"]
    spec[field] = value
    return payload


@pytest.mark.parametrize("text, message", [
    (json.dumps({"kind": "gbm", "family": "poisson_log"}),
     "is not a complete 'gbm' model: KeyError: 'trees'"),
    (json.dumps(_short_theta()), "is not a complete 'networks' model: NeuralError: theta has shape"),
    (json.dumps(_tampered_spec("member", "nodes", 20.5)),
     "is not a complete 'networks' model: NeuralError: nodes must be an integer, got 20.5"),
    (json.dumps(_tampered_spec("chosen", "hidden_layers", True)),
     "is not a complete 'networks' model: NeuralError: hidden_layers must be an integer, got True"),
    (json.dumps({**_networks_payload(), "initial": {"kind": "tree"}}),
     "is not a complete 'networks' model: KeyError: 'tree'"),
    (json.dumps({**_networks_payload(), "stats": None}),
     "is not a complete 'networks' model: TypeError"),
    (json.dumps({"kind": "glm", "binning": {"region": {"level_to_segment": [0, 2, 2]}}}),
     "is not a complete 'glm' model: GlmError: level groups for 'region' must be"),
    ("{not json", "is not JSON"),
], ids=["gbm_without_trees", "short_theta", "member_nodes_float", "chosen_layers_bool",
        "unknown_initial_kind", "null_stats", "level_groups_with_a_gap", "not_json"])
def test_load_model_names_the_file_and_kind_of_a_malformed_payload(tmp_path, text, message):
    path = tmp_path / "model.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(pipeline.PipelineError) as err:
        pipeline.load_model(path)
    assert str(err.value).startswith(f"{path} {message}")


def test_run_pipeline_rejects_a_fold_plan_of_another_length(tmp_path):
    plan = stratified_folds(small_portfolio(n=500, seed=2).dataset, seed=0)
    config = pipeline.RunConfig(data_path="memory", schema_path="memory", families=("glm",),
                                outdir=str(tmp_path / "run"))
    with pytest.raises(pipeline.PipelineError,
                       match="the fold plan assigns 500 rows, the dataset has 600"):
        pipeline.run_pipeline(config, small_portfolio(n=600, seed=2).dataset, plan)
    assert not (tmp_path / "run").exists()


def _no_response(ds, plan, fold):
    """The warning `fit_glm` gives when bins of the fold GLM's training
    rows hold no claims, as (category, message), or none."""
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        pipeline.fit_fold_glm(ds, "poisson_log", plan.train_rows(fold), fold)
    return [(w.category, str(w.message)) for w in record
            if str(w.message).startswith("no response in the rows of columns")]


def test_warnings_other_than_the_recorded_outcomes_reach_the_caller(tmp_path, monkeypatch):
    """The autoencoder and binning blocks silence only the warnings whose
    outcome the fold's payload records; `run_pipeline` re-issues the rest
    in task order (folds' GLMs, pairs' contexts, folds' contexts), from
    forked workers as from its own process."""
    real_select, real_bin = pipeline.select_dimension, pipeline.tree_bin

    def select_dimension(*args, **kwargs):
        warnings.warn("no candidate dimension reached cross-entropy < 0.1; using 2")
        warnings.warn(f"unrecorded autoencoder warning (seed {kwargs['seed']})")
        return real_select(*args, **kwargs)

    def tree_bin(*args, name, **kwargs):
        warnings.warn(f"variable {name!r} is constant; single bin")
        warnings.warn("unrecorded binning warning", RuntimeWarning)
        return real_bin(*args, name=name, **kwargs)

    monkeypatch.setattr(pipeline, "select_dimension", select_dimension)
    monkeypatch.setattr(pipeline, "tree_bin", tree_bin)
    ds = small_portfolio(n=300, seed=1).dataset
    plan = stratified_folds(ds, seed=0)
    preset = replace(FAST, ae_candidates=(2,))  # compresses the 3-wide one-hot

    def autoencoder(fold):
        seed = derive_seed(0, "autoencoder", fold)
        return (UserWarning, f"unrecorded autoencoder warning (seed {seed})")

    binning = (RuntimeWarning, "unrecorded binning warning")
    no_response = {fold: _no_response(ds, plan, fold) for fold in range(6)}
    with pytest.warns(Warning) as record:
        ctx = pipeline.build_fold_context(ds, "poisson_log", plan, 0, preset, seed=0)
        pipeline.fit_fold_glm(ds, "poisson_log", plan.train_rows(0), 0)
    assert [(w.category, str(w.message)) for w in record] == [
        autoencoder(0), binning, *no_response[0]]
    assert ctx.autoencoder["dim"] == 2

    monkeypatch.setitem(pipeline.PRESETS, "desk", preset)
    pairs = [(f, k) for f in range(6) for k in range(f + 1, 6)]
    for cpus in (2, 1):  # forked workers, then this process
        monkeypatch.setattr(_workers, "_usable_cpus", lambda: cpus)
        config = pipeline.RunConfig(data_path="memory", schema_path="memory", seed=0,
                                    families=("glm", "ffnn"), outdir=str(tmp_path / str(cpus)))
        with pytest.warns(Warning) as record:
            pipeline.run_pipeline(config, ds, plan)
        assert [(w.category, str(w.message)) for w in record] == (
            [w for fold in range(6) for w in (binning, *no_response[fold])]
            + [autoencoder(pair) for pair in pairs]
            + [autoencoder(fold) for fold in range(6)]), cpus
        assert {w.filename for w in record} == {
            __file__, *(glm.__file__ for fold in range(6) if no_response[fold])}

    # the same text from the same line in every fold is shown once under the
    # default filter; a GBM-only fold changes no filter, which would reset
    # Python's once-per-location registry in process too
    real_gbm = pipeline.fit_fold_gbm

    def fit_fold_gbm(*args):
        warnings.warn("the same warning in every fold")
        return real_gbm(*args)

    monkeypatch.setattr(pipeline, "fit_fold_gbm", fit_fold_gbm)
    for cpus in (2, 1):
        monkeypatch.setattr(_workers, "_usable_cpus", lambda: cpus)
        config = pipeline.RunConfig(data_path="memory", schema_path="memory", seed=0,
                                    families=("gbm",), outdir=str(tmp_path / f"gbm{cpus}"))
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("default")
            pipeline.run_pipeline(config, ds, plan)
        assert [str(w.message) for w in record] == ["the same warning in every fold"], cpus


def _written(outdir):
    return {str(p.relative_to(outdir)): p.read_bytes()
            for p in sorted(outdir.rglob("*")) if p.is_file()}


def test_pooled_and_in_process_runs_write_the_same_bytes(tmp_path, monkeypatch):
    """Folds mapped over forked workers and folds run one after another in
    this process write the same files and return the same predictions."""
    monkeypatch.setitem(pipeline.PRESETS, "desk", FAST)
    portfolio = small_portfolio(n=800, seed=5, freq_intercept=-0.5)
    sev = severity_view(portfolio.dataset, portfolio.claims)
    runs = [(portfolio.dataset, "poisson_log", tuple(pipeline.MODEL_FAMILIES)),
            (sev, "gamma_log", ("ffnn", "cann_glm_fixed"))]
    for ds, family, families in runs:
        written, predictions = {}, {}
        for cpus in (2, 1):
            monkeypatch.setattr(_workers, "_usable_cpus", lambda: cpus)
            outdir = tmp_path / f"{family}-{cpus}"
            config = pipeline.RunConfig(data_path="memory", schema_path="memory", seed=1,
                                        families=families, outdir=str(outdir),
                                        response_family=family)
            predictions[cpus] = pipeline.run_pipeline(config, ds)["predictions"]
            written[cpus] = _written(outdir)
        # two files per fold and family, the loss table, one OOS file per family
        assert len(written[1]) == 6 * 2 * len(families) + 1 + len(families)
        assert sorted(written[2]) == sorted(written[1])
        for name, data in written[1].items():
            assert written[2][name] == data, (family, name)
        for name in families:
            np.testing.assert_array_equal(predictions[2][name], predictions[1][name])


def _unpicklable(self, protocol):
    raise TypeError("a Dataset was pickled")


@pytest.mark.parametrize("cpus", [2, 1], ids=["pooled", "in_process"])
def test_lowest_failing_fold_is_raised_and_no_worker_outlives_the_run(tmp_path, monkeypatch,
                                                                      cpus):
    """Two workers fit the folds in other processes, reading the dataset
    they inherited at fork rather than a pickled copy, one CPU fits them in
    this one; either way the lowest failing fold's error and the warnings
    raised before it reach the caller, and no child process is left."""
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: cpus)

    monkeypatch.setattr(Dataset, "__reduce_ex__", _unpicklable)
    ds = small_portfolio(n=600, seed=2).dataset
    plan = stratified_folds(ds, seed=0)
    config = pipeline.RunConfig(data_path="memory", schema_path="memory", seed=0,
                                families=("glm",), outdir=str(tmp_path / "ok"))
    real_fit, failing = pipeline.fit_fold_glm, []
    no_response = [message for fold in (0, 1) for _, message in _no_response(ds, plan, fold)]

    def fit_fold_glm(dataset, family, train_rows, fold):
        (tmp_path / f"pid_{fold}").write_text(str(os.getpid()))
        if fold in failing:
            warnings.warn(f"fold {fold} is about to fail")
            raise ValueError(f"no GLM on fold {fold}")
        return real_fit(dataset, family, train_rows, fold)

    monkeypatch.setattr(pipeline, "fit_fold_glm", fit_fold_glm)
    pipeline.run_pipeline(config, ds, plan)
    assert multiprocessing.active_children() == []
    pids = {int((tmp_path / f"pid_{fold}").read_text()) for fold in range(6)}
    pooled = cpus > 1 and "fork" in multiprocessing.get_all_start_methods()
    assert (os.getpid() in pids) != pooled, pids

    failing.extend([2, 4])
    with pytest.warns(UserWarning) as record, pytest.raises(
            pipeline.PipelineError, match=r"^fold 2 failed: no GLM on fold 2$"):
        pipeline.run_pipeline(replace(config, outdir=str(tmp_path / "failing")), ds, plan)
    assert [str(w.message) for w in record] == [*no_response, "fold 2 is about to fail"]
    assert multiprocessing.active_children() == []


def test_network_tuning_over_workers_equals_tuning_in_process(monkeypatch):
    """The (pair, start model) tasks in forked workers, which read the
    dataset they inherited, give the specs and grids of one process."""
    monkeypatch.setattr(Dataset, "__reduce_ex__", _unpicklable)
    ds = small_portfolio(n=600, seed=2).dataset
    plan = stratified_folds(ds, seed=0)
    glms = {fold: pipeline.fit_fold_glm(ds, "poisson_log", plan.train_rows(fold), fold)
            for fold in (0, 3)}
    searches = [(None, 3, {0: None, 3: None}), ("fixed", 4, glms)]
    tuned = {}
    for cpus in (2, 1):
        monkeypatch.setattr(_workers, "_usable_cpus", lambda: cpus)
        tuned[cpus] = pipeline.tune_network_specs(ds, "poisson_log", plan, searches, FAST, seed=0)
    for folds in tuned[1]:
        assert sorted(folds) == [0, 3]
        for spec, grid in folds.values():
            assert len(grid) == FAST.grid_size
            assert all(len(losses) == 5 for _, _, losses in grid)
    assert tuned[2] == tuned[1]


def test_inner_cv_forks_for_a_lone_fold_and_stays_in_a_fold_worker(tmp_path, monkeypatch):
    """A fold fitted on its own maps its GBM inner folds and its network
    cells over forked workers. In a pooled `run_pipeline` each GBM inner
    fold runs in its fold's worker and every network cell in a forked
    worker, and only the calling process starts pools, so none nests."""
    monkeypatch.setitem(pipeline.PRESETS, "desk", FAST)
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: 2)
    log = tmp_path / "pids"
    log.mkdir()
    real_gbm, real_cells = gbm._inner_fold_losses, pipeline._score_cells
    real_fit_gbm, real_pool = pipeline.fit_fold_gbm, _workers.ProcessPoolExecutor

    def record(kind, name):
        (log / f"{kind}_{name}_{os.getpid()}").touch()

    def inner_fold_losses(*args):
        record("task", args[3])
        return real_gbm(*args)

    def score_cells(*args):
        record("cell", "-".join(map(str, args[-1][0])))
        return real_cells(*args)

    def fit_fold_gbm(dataset, family, fold_plan, fold, *args, **kwargs):
        record("fold", fold)
        return real_fit_gbm(dataset, family, fold_plan, fold, *args, **kwargs)

    def pool(*args, **kwargs):
        record("pool", "")
        return real_pool(*args, **kwargs)

    def pids(kind, name="*"):
        return {int(p.name.split("_")[2]) for p in log.glob(f"{kind}_{name}_*")}

    monkeypatch.setattr(gbm, "_inner_fold_losses", inner_fold_losses)
    monkeypatch.setattr(pipeline, "_score_cells", score_cells)
    monkeypatch.setattr(pipeline, "fit_fold_gbm", fit_fold_gbm)
    monkeypatch.setattr(_workers, "ProcessPoolExecutor", pool)
    ds = small_portfolio(n=600, seed=2).dataset
    plan = stratified_folds(ds, seed=0)
    model = pipeline.fit_fold_gbm(ds, "poisson_log", plan, 0, FAST, seed=1)
    ctx = pipeline.build_fold_context(ds, "poisson_log", plan, 0, FAST, seed=1)
    pipeline.fit_fold_network(ctx, ds, "poisson_log", plan, FAST, 1, "fixed", model)
    assert pids("task", 0) and os.getpid() not in pids("task", 0)
    assert len(list(log.glob("cell_*"))) == 5 and os.getpid() not in pids("cell")
    assert pids("pool") == {os.getpid()}
    for path in log.iterdir():
        path.unlink()

    config = pipeline.RunConfig(data_path="memory", schema_path="memory", seed=1,
                                families=("gbm", "cann_gbm_fixed"), outdir=str(tmp_path / "run"))
    pipeline.run_pipeline(config, ds, plan)
    for fold in range(plan.k_outer):
        worker = pids("fold", fold)
        assert len(worker) == 1 and os.getpid() not in worker, fold
        assert pids("task", fold) == worker, fold
    assert len({p.name.split("_")[1] for p in log.glob("cell_*")}) == 15
    assert pids("cell") and os.getpid() not in pids("cell")
    assert pids("pool") == {os.getpid()}
    assert multiprocessing.active_children() == []


def _pair_fits(dataset, plan, cann_mode, initial):
    """Every network `tune_network_specs` trains and every start model it
    refits while tuning `initial`'s fold, as JSON text by pair."""
    real_train, real_refit, fits = pipeline._train_one, pipeline._refit_start, {}

    def train_one(ctx, *args):
        net = real_train(ctx, *args)
        fits.setdefault(ctx.fold, []).append(json.dumps(net.to_dict()))
        return net

    def refit_start(dataset, family, pair, *args):
        model = real_refit(dataset, family, pair, *args)
        fits.setdefault(pair, []).append(json.dumps(model.to_dict()))
        return model

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_workers, "_usable_cpus", lambda: 1)
        patch.setattr(pipeline, "_train_one", train_one)
        patch.setattr(pipeline, "_refit_start", refit_start)
        pipeline.tune_network_specs(dataset, "poisson_log", plan, [(cann_mode, 7, initial)], FAST,
                                    seed=0)
    return fits


@pytest.mark.parametrize("name", ["ffnn", "cann_glm_fixed", "cann_gbm_fixed"])
def test_a_pair_cell_never_sees_the_responses_of_its_two_folds(name):
    """Moving the responses of folds 1 and 4 leaves the networks of pair
    {1, 4}, and the start model refitted on its rows, bit-identical; the
    pairs that train on fold 4's rows move."""
    ds = small_portfolio(n=600, seed=3).dataset
    plan = stratified_folds(ds, seed=5)
    base, cann_mode = pipeline.MODEL_FAMILIES[name]
    train = ds.subset(plan.train_rows(1))
    initial = {"glm": pipeline.fit_fold_glm(ds, "poisson_log", plan.train_rows(1), 1),
               "gbm": gbm.fit_gbm(train, "poisson_log", 10, 2, seed=0)}.get(base)
    poisoned_y = ds.response.copy()
    poisoned_y[np.isin(plan.outer, (1, 4))] += 7.0
    poisoned = ds.with_column(ds.response_name, poisoned_y)
    clean = _pair_fits(ds, plan, cann_mode, {1: initial})
    moved = _pair_fits(poisoned, plan, cann_mode, {1: initial})
    assert sorted(clean) == sorted(moved) == [(0, 1), (1, 2), (1, 3), (1, 4), (1, 5)]
    assert len(clean[1, 4]) == FAST.grid_size + (cann_mode is not None)
    assert clean[1, 4] == moved[1, 4]
    assert all(clean[pair] != moved[pair] for pair in [(0, 1), (1, 2), (1, 3), (1, 5)])


def test_a_six_fold_run_trains_each_pair_cell_once(tmp_path, monkeypatch):
    """Per network family, a 6-fold run trains each of the 15 pairs' drawn
    specs once, then each fold's repetitions: 15 * grid_size + 6 *
    repetitions networks."""
    preset = replace(FAST, repetitions=2)
    monkeypatch.setitem(pipeline.PRESETS, "desk", preset)
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: 1)
    calls, real_train = [], pipeline.nn.train_network

    def train_network(net, *args, **kwargs):
        calls.append(net.cann_mode)
        return real_train(net, *args, **kwargs)

    monkeypatch.setattr(pipeline.nn, "train_network", train_network)
    config = pipeline.RunConfig(data_path="memory", schema_path="memory", seed=1,
                                families=("glm", "ffnn", "cann_glm_fixed"),
                                outdir=str(tmp_path))
    pipeline.run_pipeline(config, small_portfolio(n=600, seed=2).dataset)
    expected = 15 * preset.grid_size + 6 * preset.repetitions
    assert (calls.count(None), calls.count("fixed"), len(calls)) == (expected, expected,
                                                                     2 * expected)


def test_a_wide_categorical_still_trains_and_grafts_an_encoder():
    """Candidate 2 compresses a 12-level categorical: the fold's context
    trains an autoencoder and its networks graft the scaled encoder."""
    spec = PortfolioSpec(
        n=600,
        continuous={"age": (18.0, 80.0)},
        categorical={"postcode": {f"p{i}": 1 / 12 for i in range(12)}},
        freq_intercept=-1.6,
        freq_coefs={"age": -0.01},
    )
    ds = generate_synthetic_portfolio(spec, seed=1).dataset
    plan = stratified_folds(ds, seed=0)
    preset = replace(FAST, ae_candidates=(2, 12, 20), grid_size=1)
    ctx = pipeline.build_fold_context(ds, "poisson_log", plan, 0, preset, seed=0)
    assert ctx.encoder is not None and ctx.encoder.scaled
    assert ctx.autoencoder["dim"] == 2 and ctx.autoencoder["onehot_width"] == 12
    model = pipeline.fit_fold_network(ctx, ds, "poisson_log", plan, preset, seed=0)
    member = model.members[0]
    assert member.encoder_dim == 2
    np.testing.assert_array_equal(member.params()["encoder_w"], ctx.encoder.w_enc)


def test_a_lone_fold_network_writes_the_bytes_of_its_run(tmp_path, monkeypatch):
    """`fit_fold_network` on fold 2 alone, with the run's seeds and fold 2's
    start model, writes what fold 2 of `run_pipeline` wrote."""
    monkeypatch.setitem(pipeline.PRESETS, "desk", FAST)
    ds = small_portfolio(n=600, seed=2).dataset
    plan = stratified_folds(ds, seed=0)
    names = ("ffnn", "cann_glm_fixed", "cann_gbm_fixed")
    config = pipeline.RunConfig(data_path="memory", schema_path="memory", seed=1,
                                families=("glm", "gbm", *names), outdir=str(tmp_path / "run"))
    pipeline.run_pipeline(config, ds, plan)
    fold_dir = tmp_path / "run" / "fold_2"
    ctx = pipeline.build_fold_context(ds, "poisson_log", plan, 2, FAST, seed=1)
    for name in names:
        base, cann_mode = pipeline.MODEL_FAMILIES[name]
        initial = None if base is None else pipeline.load_model(fold_dir / base / "model.json")
        model = pipeline.fit_fold_network(ctx, ds, "poisson_log", plan, FAST,
                                          derive_seed(1, name), cann_mode, initial)
        pipeline.save_model(model, tmp_path / f"{name}.json")
        assert (tmp_path / f"{name}.json").read_bytes() == (
            fold_dir / name / "model.json").read_bytes(), name


def _plan_payload(**changes):
    payload = {"outer": [0, 1, 2, 3, 4, 5] * 2, "k_outer": 6, "strat_key": [0, 1] * 6, "seed": 0}
    return {**payload, **changes}


@pytest.mark.parametrize("payload, message", [
    ({k: v for k, v in _plan_payload().items() if k != "strat_key"},
     " is not a fold plan: KeyError: 'strat_key'"),
    (_plan_payload(k_outer="6"), " is not a fold plan: TypeError: 'str' object cannot be"),
    (_plan_payload(outer=[0] * 12, k_outer=1), ": k_outer is 1, so no fold has training rows"),
    (_plan_payload(outer=[0, 1, 2, 3, 4, 5, 0, 1.5, 2, 3, 4, 5]),
     ": outer labels must be integers in 0..5"),
    (_plan_payload(outer=[0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 6]),
     ": outer labels must be integers in 0..5"),
    (_plan_payload(outer=[-1, 1, 2, 3, 4, 5] * 2), ": outer labels must be integers in 0..5"),
    (_plan_payload(outer=[[0, 1], 2, 3, 4, 5]), " is not a fold plan: ValueError: setting an"),
    (_plan_payload(strat_key=[0] * 11), ": strat_key has 11 entries, outer 12"),
    (_plan_payload(outer=[0, 1, 2, 3, 4, 0] * 2), ": outer folds [5] have no rows"),
], ids=["missing_key", "k_outer_not_int", "one_fold", "float_label", "label_too_large", "negative_label",
        "ragged_outer", "short_strat_key", "empty_fold"])
def test_load_fold_plan_names_the_file_and_fault(tmp_path, payload, message):
    path = tmp_path / "folds.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(pipeline.PipelineError) as err:
        pipeline.load_fold_plan(path)
    assert str(err.value).startswith(f"{path}{message}")


def test_load_fold_plan_reads_what_save_fold_plan_wrote(tmp_path):
    plan = stratified_folds(small_portfolio(n=300, seed=1).dataset, seed=4)
    pipeline.save_fold_plan(plan, tmp_path / "folds.json")
    loaded = pipeline.load_fold_plan(tmp_path / "folds.json")
    np.testing.assert_array_equal(loaded.outer, plan.outer)
    np.testing.assert_array_equal(loaded.strat_key, plan.strat_key)
    assert (loaded.k_outer, loaded.seed) == (plan.k_outer, plan.seed)


@pytest.mark.parametrize("families", ["glm", ["glm", 1], {"glm": True}, None],
                         ids=["string", "number", "object", "null"])
def test_load_config_rejects_families_that_are_not_a_list_of_strings(tmp_path, families):
    """A string is not split into one-letter families."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"families": families}), encoding="utf-8")
    with pytest.raises(pipeline.PipelineError, match="families must be a list of strings"):
        pipeline.load_config(path)


@pytest.mark.parametrize("families, message", [
    (("glm", "glm"), r"each once; got \['glm', 'glm'\]"),
    ((), r"each once; got \[\]"),
    (("glm", "cann_glm"), r"unknown model families \['cann_glm'\]; accepted families: "
                          r"\['glm', 'gbm', 'ffnn', 'cann_glm_fixed', 'cann_glm_flexible', "
                          r"'cann_gbm_fixed', 'cann_gbm_flexible'\]$"),
], ids=["repeated", "empty", "unknown"])
def test_run_config_rejects_a_repeated_empty_or_unknown_family_list(families, message):
    """A repeated family would write its fold models and loss rows twice, an
    empty list a loss table of nothing but its header."""
    with pytest.raises(pipeline.PipelineError, match=message):
        pipeline.RunConfig(families=families)


@pytest.mark.parametrize("seed", [-1, 1.5, "7", True])
def test_run_config_rejects_a_seed_that_is_not_a_non_negative_int(tmp_path, seed):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"families": ["glm"], "seed": seed}), encoding="utf-8")
    message = rf"^seed must be a non-negative integer, got {re.escape(repr(seed))}$"
    with pytest.raises(pipeline.PipelineError, match=message):
        pipeline.load_config(path)
    with pytest.raises(pipeline.PipelineError, match=message):
        pipeline.RunConfig(seed=seed)


def test_load_config_names_unknown_keys(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"familes": ["glm"], "seed": 1}), encoding="utf-8")
    with pytest.raises(pipeline.PipelineError, match=r"unknown config keys \['familes'\]") as err:
        pipeline.load_config(path)
    assert "'families'" in str(err.value) and "'seed'" in str(err.value)
