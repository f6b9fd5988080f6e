"""End-to-end cross-validation pipeline.

For every outer fold: compute preprocessing stats on the training rows
only, pre-train and rescale the autoencoder, tune each model family on
the inner folds (which are the other outer subsets), train the winner
with the configured number of repetitions, and score the held-out fold.
Stitching the six held-out prediction vectors together yields one
out-of-sample prediction per data row. Every fitted model is written as
one `model.json` tagged with its kind, and `load_model` reads any of them.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, fields

import numpy as np

from . import gbm as gbm_mod
from . import neural as nn
from ._rand import derive_seed, substream
from .data import (
    Dataset,
    FoldPlan,
    ScalingStats,
    normalize_continuous,
    one_hot,
    scaling_stats,
    stratified_folds,
)
from .embedding import scale_encoder, select_dimension
from .evaluation import get_family
from .glm import Design, GlmModel, fit_glm, glm_from_json, tree_bin

KNOWN_FAMILIES = (
    "glm",
    "gbm",
    "ffnn",
    "cann_glm_fixed",
    "cann_glm_flexible",
    "cann_gbm_fixed",
    "cann_gbm_flexible",
)


class PipelineError(RuntimeError):
    pass


@dataclass(frozen=True)
class Preset:
    """Scale knobs: the desk preset shrinks grids and epoch caps for
    laptop-sized data, the paper preset keeps the full search."""

    name: str
    grid_size: int
    repetitions: int
    net_max_epochs: int
    net_patience: int
    ae_candidates: tuple[int, ...]
    ae_max_epochs: int
    gbm_tree_grid: tuple[int, ...]
    gbm_depth_grid: tuple[int, ...]
    freq_batch: tuple[int, int]
    sev_batch: tuple[int, int]


DESK = Preset(
    name="desk",
    grid_size=4,
    repetitions=1,
    net_max_epochs=20,
    net_patience=5,
    ae_candidates=(5,),
    ae_max_epochs=60,
    gbm_tree_grid=gbm_mod.DESK_TREE_GRID,
    gbm_depth_grid=gbm_mod.DESK_DEPTH_GRID,
    freq_batch=(500, 2000),
    sev_batch=(100, 1000),
)

PAPER = Preset(
    name="paper",
    grid_size=40,
    repetitions=3,
    net_max_epochs=nn.MAX_EPOCHS,
    net_patience=nn.PATIENCE,
    ae_candidates=(5, 10, 15),
    ae_max_epochs=1000,
    gbm_tree_grid=gbm_mod.PAPER_TREE_GRID,
    gbm_depth_grid=gbm_mod.PAPER_DEPTH_GRID,
    freq_batch=(10_000, 50_000),
    sev_batch=(200, 10_000),
)

PRESETS = {"desk": DESK, "paper": PAPER}


@dataclass(frozen=True)
class RunConfig:
    data_path: str = ""
    schema_path: str = ""
    claims_path: str | None = None
    seed: int = 0
    families: tuple[str, ...] = ("glm", "gbm")
    preset: str = "desk"
    outdir: str = "run"
    response_family: str = "poisson_log"

    def __post_init__(self):
        if self.preset not in PRESETS:
            raise PipelineError(f"unknown preset {self.preset!r}")
        unknown = [f for f in self.families if f not in KNOWN_FAMILIES]
        if unknown:
            raise PipelineError(f"unknown model families: {unknown}")
        get_family(self.response_family, PipelineError)


def load_config(path) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    accepted = [f.name for f in fields(RunConfig)]
    unknown = sorted(set(raw) - set(accepted))
    if unknown:
        raise PipelineError(f"unknown config keys {unknown}; accepted keys: {accepted}")
    if "families" in raw:
        raw["families"] = tuple(raw["families"])
    return RunConfig(**raw)


# -- shared per-fold context ---------------------------------------------


@dataclass
class FoldContext:
    """Everything derived from the training rows of one outer fold.

    `autoencoder` is {"dim", "qualified"}: the encoder dimension chosen and
    whether it reached the cross-entropy threshold; None without
    categorical blocks."""

    fold: int
    stats: ScalingStats
    encoder: object | None
    autoencoder: dict | None
    x_cont: np.ndarray  # full-data matrix, normalized with fold stats
    x_onehot: np.ndarray
    y: np.ndarray
    obs_weight: np.ndarray  # exposure (Poisson) or claim counts (gamma)


def fold_deviance(predictions, dataset: Dataset, rows, family: str) -> float:
    return get_family(family, PipelineError).deviance(predictions, dataset.subset(rows))


def _network_inputs(dataset: Dataset, stats: ScalingStats):
    """The continuous columns normalized with `stats`, the one-hot matrix
    and its block structure."""
    normalized = normalize_continuous(dataset, stats)
    x_cont = (
        np.column_stack([normalized.columns[n] for n in dataset.continuous_names])
        if dataset.continuous_names
        else np.zeros((dataset.n, 0))
    )
    x_oh, blocks = one_hot(dataset)
    return x_cont, x_oh, blocks


def build_fold_context(dataset: Dataset, family: str, fold_plan: FoldPlan, fold: int,
                       preset: Preset, seed: int) -> FoldContext:
    fam = get_family(family, PipelineError)
    train_rows = fold_plan.train_rows(fold)
    stats = scaling_stats(dataset, train_rows, train_fold=fold)
    x_cont, x_oh, blocks = _network_inputs(dataset, stats)
    encoder = autoencoder = None
    if blocks:
        # its warnings say what `dim` and `qualified` record: no candidate
        # reached the threshold, or the dimension does not compress
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            dim, ae, qualified = select_dimension(
                x_oh[train_rows],
                blocks,
                candidates=preset.ae_candidates,
                seed=derive_seed(seed, "autoencoder", fold),
                max_epochs=preset.ae_max_epochs,
            )
        encoder = scale_encoder(ae, x_oh[train_rows])
        autoencoder = {"dim": dim, "qualified": qualified}
    return FoldContext(
        fold=fold,
        stats=stats,
        encoder=encoder,
        autoencoder=autoencoder,
        x_cont=x_cont,
        x_onehot=x_oh,
        y=np.asarray(dataset.response, dtype=float),
        obs_weight=fam.obs_weight(dataset),
    )


# -- per-family training --------------------------------------------------


def fit_fold_glm(dataset: Dataset, family: str, train_rows, fold: int) -> GlmModel:
    """Benchmark GLM: all features as main effects, continuous variables
    binned by a single-variable deviance tree on the training rows."""
    train = dataset.subset(train_rows)
    obs_weight = get_family(family, PipelineError).obs_weight(train)
    binning = {}
    for name in train.continuous_names:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            binning[name] = tree_bin(
                train.columns[name], train.response, obs_weight, family=family, name=name
            )
    design = Design(tuple(train.feature_names), (), binning)
    return fit_glm(train, design, family, train_fold=fold)


def fit_fold_gbm(dataset: Dataset, family: str, fold_plan: FoldPlan, fold: int,
                 preset: Preset, seed: int):
    n_trees, depth = gbm_mod.tune_gbm(
        dataset,
        family,
        fold_plan,
        fold,
        n_trees_grid=preset.gbm_tree_grid,
        depth_grid=preset.gbm_depth_grid,
        seed=derive_seed(seed, "gbm", fold),
    )
    train = dataset.subset(fold_plan.train_rows(fold))
    model = gbm_mod.fit_gbm(
        train, family, n_trees, depth, seed=derive_seed(seed, "gbm", fold), train_fold=fold
    )
    model.tuned = {"n_trees": n_trees, "depth": depth}
    return model


def _train_one(ctx: FoldContext, rows, spec, family, cann_mode, log_y_in, preset, seed, rep):
    out_bias = 0.0
    if cann_mode is None:  # start at the family's weighted mean response
        fam = get_family(family, PipelineError)
        out_bias = float(np.log(fam.mean(ctx.y[rows], ctx.obs_weight[rows])))
    net = nn.build_network(
        spec,
        n_continuous=ctx.x_cont.shape[1],
        encoder=ctx.encoder,
        onehot_width=ctx.x_onehot.shape[1],
        cann_mode=cann_mode,
        out_bias=out_bias,
        seed=derive_seed(seed, "init", ctx.fold, rep),
    )
    nn.train_network(
        net,
        ctx.x_cont[rows],
        ctx.x_onehot[rows],
        ctx.y[rows],
        family,
        ctx.obs_weight[rows],
        None if log_y_in is None else log_y_in[rows],
        seed=derive_seed(seed, "train", ctx.fold, rep),
        max_epochs=preset.net_max_epochs,
        patience=preset.net_patience,
    )
    return net


def _net_predictions(net, ctx: FoldContext, rows, log_y_in):
    return nn.forward(
        net, ctx.x_cont[rows], ctx.x_onehot[rows],
        None if log_y_in is None else log_y_in[rows],
    )


def tune_network_specs(ctx: FoldContext, dataset, family, fold_plan, cann_mode,
                       log_y_in, preset, seed) -> tuple[nn.NetworkSpec, list]:
    """Random-grid search scored by inner cross-validation deviance.

    Returns the spec with the lowest mean inner deviance (the first of
    equal ones) and the grid: every drawn spec with that score."""
    severity = get_family(family, PipelineError).severity
    space = nn.SearchSpace(batch_size=preset.sev_batch if severity else preset.freq_batch)
    specs = nn.random_grid(space, n=preset.grid_size, seed=derive_seed(seed, "grid", ctx.fold))
    grid = []
    for spec in specs:
        losses = []
        for k in fold_plan.inner_folds(ctx.fold):
            sub_train = np.flatnonzero((fold_plan.outer != ctx.fold) & (fold_plan.outer != k))
            valid = fold_plan.test_rows(k)
            net = _train_one(ctx, sub_train, spec, family, cann_mode, log_y_in, preset,
                             derive_seed(seed, "tune", k), 0)
            pred = _net_predictions(net, ctx, valid, log_y_in)
            losses.append(fold_deviance(pred, dataset, valid, family))
        grid.append((spec, float(np.mean(losses))))
    best = min(grid, key=lambda entry: entry[1])
    return best[0], grid


def _log_initial(initial_model, dataset: Dataset) -> np.ndarray:
    y_in = initial_model.predict(dataset)
    if np.any(y_in <= 0):
        raise PipelineError("initial model produced non-positive predictions")
    return np.log(y_in)


@dataclass
class AveragedNetworks:
    """Repetition-averaged predictions of identically tuned networks,
    with the scaling stats they were trained on and, for a CANN, the
    initial model.

    `grid` holds every spec the tuning drew with its mean inner-CV
    deviance; `spec` is the one chosen. `autoencoder` is the fold's
    {"dim", "qualified"} record, or None without categorical blocks."""

    kind = "networks"  # the tag `to_json` writes and `load_model` reads

    family: str
    members: list
    stats: ScalingStats
    spec: nn.NetworkSpec
    grid: list
    initial_model: object = None
    autoencoder: dict | None = None

    def predict(self, dataset: Dataset) -> np.ndarray:
        x_cont, x_oh, _ = _network_inputs(dataset, self.stats)
        log_y_in = None if self.initial_model is None else _log_initial(self.initial_model, dataset)
        return np.mean([nn.forward(m, x_cont, x_oh, log_y_in) for m in self.members], axis=0)

    def to_json(self) -> str:
        return json.dumps({
            "kind": self.kind,
            "family": self.family,
            "spec": vars(self.spec),
            "grid": [{"spec": vars(spec), "inner_deviance": score} for spec, score in self.grid],
            "members": [json.loads(nn.network_to_json(m)) for m in self.members],
            "stats": {"means": self.stats.means, "stds": self.stats.stds},
            "initial": None if self.initial_model is None else json.loads(self.initial_model.to_json()),
            "autoencoder": self.autoencoder,
        })

    @classmethod
    def from_json(cls, text: str) -> "AveragedNetworks":
        d = json.loads(text)
        return cls(
            family=d["family"],
            members=[nn.network_from_json(json.dumps(m)) for m in d["members"]],
            stats=ScalingStats(d["stats"]["means"], d["stats"]["stds"]),
            spec=nn.NetworkSpec(**d["spec"]),
            grid=[(nn.NetworkSpec(**e["spec"]), e["inner_deviance"]) for e in d["grid"]],
            initial_model=None if d["initial"] is None else _model_from_json(json.dumps(d["initial"])),
            autoencoder=d["autoencoder"],
        )


def fit_fold_network(ctx: FoldContext, dataset, family, fold_plan, preset, seed,
                     cann_mode=None, initial_model=None) -> AveragedNetworks:
    log_y_in = None if cann_mode is None else _log_initial(initial_model, dataset)
    train_rows = fold_plan.train_rows(ctx.fold)
    spec, grid = tune_network_specs(ctx, dataset, family, fold_plan, cann_mode, log_y_in,
                                    preset, seed)
    members = [
        _train_one(ctx, train_rows, spec, family, cann_mode, log_y_in, preset, seed, rep)
        for rep in range(preset.repetitions)
    ]
    return AveragedNetworks(family, members, ctx.stats, spec, grid, initial_model, ctx.autoencoder)


_LOADERS = {
    GlmModel.kind: glm_from_json,
    gbm_mod.BoostedModel.kind: gbm_mod.BoostedModel.from_json,
    AveragedNetworks.kind: AveragedNetworks.from_json,
}


def _model_from_json(text: str):
    payload = json.loads(text)
    kind = payload.get("kind") if isinstance(payload, dict) else None
    if kind not in _LOADERS:
        raise PipelineError(f"not a model payload: kind {kind!r}, expected one of {sorted(_LOADERS)}")
    return _LOADERS[kind](text)


def load_model(path):
    """The fitted model a `model.json` holds, of whichever family: the
    file's `kind` tag ("glm", "gbm" or "networks") picks the loader."""
    with open(path, encoding="utf-8") as fh:
        return _model_from_json(fh.read())


# -- orchestration ---------------------------------------------------------


def _write_json(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_predictions(path, rows, predictions):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("row_index,prediction\n")
        for r, p in zip(rows, predictions):
            fh.write(f"{int(r)},{float(p)!r}\n")


def run_pipeline(config: RunConfig, dataset: Dataset, fold_plan: FoldPlan | None = None):
    """Train every requested family on every outer fold and collect the
    held-out loss table and the stitched out-of-sample predictions.

    Returns {"loss_table": rows, "predictions": {family: vector},
    "fold_models": {fold: {family: model}}}. Artifacts for completed
    stages are kept on disk even when a later stage fails.
    """
    preset = PRESETS[config.preset]
    family = config.response_family
    if fold_plan is None:
        fold_plan = stratified_folds(dataset, seed=derive_seed(config.seed, "folds"))
    os.makedirs(config.outdir, exist_ok=True)
    needs_nets = any(f not in ("glm", "gbm") for f in config.families)
    needs_glm = "glm" in config.families or any("cann_glm" in f for f in config.families)
    needs_gbm = "gbm" in config.families or any("cann_gbm" in f for f in config.families)

    loss_rows = []
    predictions = {f: np.full(dataset.n, np.nan) for f in config.families}
    fold_models: dict[int, dict[str, object]] = {}
    for fold in range(fold_plan.k_outer):
        fold_models[fold] = {}
        test_rows = fold_plan.test_rows(fold)
        train_rows = fold_plan.train_rows(fold)
        try:
            ctx = (
                build_fold_context(dataset, family, fold_plan, fold, preset, config.seed)
                if needs_nets
                else None
            )
            glm_model = (
                fit_fold_glm(dataset, family, train_rows, fold) if needs_glm else None
            )
            gbm_model = (
                fit_fold_gbm(dataset, family, fold_plan, fold, preset, config.seed)
                if needs_gbm
                else None
            )
            for name in config.families:
                if name == "glm":
                    model = glm_model
                elif name == "gbm":
                    model = gbm_model
                else:
                    cann_mode = None
                    initial = None
                    if name.startswith("cann_"):
                        _, source, mode = name.split("_")
                        cann_mode = mode
                        initial = glm_model if source == "glm" else gbm_model
                    model = fit_fold_network(
                        ctx, dataset, family, fold_plan, preset,
                        derive_seed(config.seed, name), cann_mode, initial,
                    )
                fold_models[fold][name] = model
                pred = model.predict(dataset.subset(test_rows))
                predictions[name][test_rows] = pred
                loss = fold_deviance(pred, dataset, test_rows, family)
                loss_rows.append({"model": name, "fold": fold, "deviance": loss})
                fold_dir = os.path.join(config.outdir, f"fold_{fold}", name)
                os.makedirs(fold_dir, exist_ok=True)
                _write_json(os.path.join(fold_dir, "model.json"), model.to_json())
                _write_predictions(os.path.join(fold_dir, "predictions.csv"), test_rows, pred)
        except Exception as exc:  # noqa: BLE001 - re-raise with fold context
            raise PipelineError(f"fold {fold} failed: {exc}") from exc

    with open(os.path.join(config.outdir, "loss_table.csv"), "w", encoding="utf-8") as fh:
        fh.write("model,fold,deviance\n")
        for row in loss_rows:
            fh.write(f"{row['model']},{row['fold']},{row['deviance']!r}\n")
    for name in config.families:
        _write_predictions(
            os.path.join(config.outdir, f"oos_predictions_{name}.csv"),
            np.arange(dataset.n),
            predictions[name],
        )
    return {"loss_table": loss_rows, "predictions": predictions, "fold_models": fold_models}


def save_fold_plan(fold_plan: FoldPlan, path) -> None:
    payload = {
        "outer": fold_plan.outer.tolist(),
        "k_outer": fold_plan.k_outer,
        "strat_key": fold_plan.strat_key.tolist(),
        "seed": fold_plan.seed,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_fold_plan(path) -> FoldPlan:
    with open(path, encoding="utf-8") as fh:
        d = json.load(fh)
    return FoldPlan(
        np.asarray(d["outer"], dtype=np.int64),
        d["k_outer"],
        np.asarray(d["strat_key"], dtype=np.int64),
        d["seed"],
    )
