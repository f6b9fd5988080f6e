"""End-to-end cross-validation pipeline.

Every outer fold fits its GLM and GBM on its training rows and tunes the
GBM on its inner folds, which are the other outer subsets. The network
families are tuned by the same inner cross-validation, keyed by the pair
of held-out folds: inner fold k of outer fold f trains on the rows in
neither, as inner fold f of outer fold k does. So each (pair, start model,
drawn spec) cell is trained once, on a context (scaling, autoencoder) and
a refitted CANN start model of the pair's rows, and scored on both folds.
Each fold's chosen spec is then trained with the configured number of
repetitions on its training rows and scores the held-out fold. Stitching
the held-out prediction vectors together yields one out-of-sample
prediction per data row. `save_model` writes a model's `to_dict()`
payload, tagged with its kind, as `model.json`; `load_model` reads any of
them back through that kind's `from_dict`.

`run_pipeline` maps three task lists over forked workers with
`_workers.fork_map`: each fold's GLM and GBM, then the network cells, one
task per (pair, start model), then each fold's final networks and files.
The GBM's inner cross-validation runs in process inside its fold's worker,
and is mapped over workers when a fold runs on its own. Workers read their
arguments from the memory they inherit at fork. The same files, results,
errors and warnings reach the caller as when everything runs in one
process; a warning repeated in several tasks is shown once under the
default filter.
"""

from __future__ import annotations

import operator
import os
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from functools import partial

import numpy as np

from . import gbm as gbm_mod
from . import neural as nn
from ._rand import derive_seed
from ._workers import fork_map
from .data import (
    Dataset,
    FoldPlan,
    ScalingStats,
    normalize_continuous,
    one_hot,
    read_json,
    scaling_stats,
    stratified_folds,
    write_json,
    write_rows,
)
from .embedding import scale_encoder, select_dimension
from .evaluation import get_family
from .glm import Design, GlmModel, fit_glm, tree_bin

# Each model family's start model and CANN output layer: the GLM and the GBM
# are the shared fold models themselves, every other family is a network that
# starts from nothing or from one of them, with a fixed or trainable output.
MODEL_FAMILIES = {
    "glm": ("glm", None),
    "gbm": ("gbm", None),
    "ffnn": (None, None),
    **{f"cann_{base}_{mode}": (base, mode)
       for base in ("glm", "gbm") for mode in ("fixed", "flexible")},
}


class PipelineError(RuntimeError):
    pass


@dataclass(frozen=True)
class Preset:
    """Scale knobs: the desk preset shrinks grids and epoch caps for
    laptop-sized data, the paper preset keeps the full search."""

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
        unknown = [f for f in self.families if f not in MODEL_FAMILIES]
        if unknown:
            raise PipelineError(
                f"unknown model families {unknown}; accepted families: {list(MODEL_FAMILIES)}")
        if not self.families or len(set(self.families)) < len(self.families):
            raise PipelineError("families must name one or more model families, each once; "
                                f"got {list(self.families)}")
        get_family(self.response_family, PipelineError)
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise PipelineError(f"seed must be a non-negative integer, got {self.seed!r}")


def load_config(path) -> RunConfig:
    raw = read_json(path, PipelineError)
    if not isinstance(raw, dict):
        raise PipelineError(f"{path} is not a JSON object of RunConfig fields")
    accepted = [f.name for f in fields(RunConfig)]
    unknown = sorted(set(raw) - set(accepted))
    if unknown:
        raise PipelineError(f"unknown config keys {unknown}; accepted keys: {accepted}")
    if "families" in raw:
        families = raw["families"]
        if not isinstance(families, list) or not all(isinstance(f, str) for f in families):
            raise PipelineError(f"{path}: families must be a list of strings, got {families!r}")
        raw["families"] = tuple(families)
    return RunConfig(**raw)


# -- shared per-fold context ---------------------------------------------


@dataclass
class FoldContext:
    """Everything derived from the training rows of an outer fold, or of a
    pair (f, k) of held-out folds: then `fold` is the pair.

    `autoencoder` is {"dim", "qualified", "onehot_width"}: the encoder
    dimension chosen and whether it reached the cross-entropy threshold;
    `dim` is None, and there is no encoder, when no candidate is below the
    one-hot width. It is None without categorical blocks. `seed` is the run
    seed the context was built from."""

    fold: object
    seed: int
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


def build_fold_context(dataset: Dataset, family: str, fold_plan: FoldPlan, fold,
                       preset: Preset, seed: int) -> FoldContext:
    """The context of outer fold `fold`, or of the pair of held-out folds
    `fold` is, from its training rows."""
    fam = get_family(family, PipelineError)
    train_rows = (fold_plan.inner_train_rows(*fold) if isinstance(fold, tuple)
                  else fold_plan.train_rows(fold))
    stats = scaling_stats(dataset, train_rows, train_fold=fold)
    x_cont, x_oh, blocks = _network_inputs(dataset, stats)
    encoder = autoencoder = None
    if blocks:
        # the warning says what `qualified` records: no candidate reached
        # the threshold
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "no candidate dimension reached ", UserWarning)
            dim, ae, qualified = select_dimension(
                x_oh[train_rows],
                blocks,
                candidates=preset.ae_candidates,
                seed=derive_seed(seed, "autoencoder", fold),
                max_epochs=preset.ae_max_epochs,
            )
        encoder = None if ae is None else scale_encoder(ae, x_oh[train_rows])
        autoencoder = {"dim": dim, "qualified": qualified, "onehot_width": x_oh.shape[1]}
    return FoldContext(
        fold=fold,
        seed=seed,
        stats=stats,
        encoder=encoder,
        autoencoder=autoencoder,
        x_cont=x_cont,
        x_onehot=x_oh,
        y=np.asarray(dataset.response, dtype=float),
        obs_weight=fam.obs_weight(dataset),
    )


# -- per-family training --------------------------------------------------


def fit_fold_glm(dataset: Dataset, family: str, train_rows, fold) -> GlmModel:
    """Benchmark GLM: all features as main effects, continuous variables
    binned by a single-variable deviance tree on the training rows."""
    train = dataset.subset(train_rows)
    obs_weight = get_family(family, PipelineError).obs_weight(train)
    # a constant column's single bin is recorded in the design's binning
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", ".* is constant; single bin$", UserWarning)
        binning = {name: tree_bin(train.columns[name], train.response, obs_weight,
                                  family=family, name=name)
                   for name in train.continuous_names}
    design = Design(tuple(train.feature_names), (), binning)
    return fit_glm(train, design, family, train_fold=fold)


def fit_fold_gbm(dataset: Dataset, family: str, fold_plan: FoldPlan, fold: int,
                 preset: Preset, seed: int):
    (n_trees, depth), grid = gbm_mod.tune_gbm(
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
    model.tuned = {"n_trees": n_trees, "depth": depth, "grid": grid}
    return model


@contextmanager
def _failing(what: str):
    """Re-raise any error as a `PipelineError` naming `what` failed."""
    try:
        yield
    except Exception as exc:  # noqa: BLE001 - re-raise with fold context
        raise PipelineError(f"{what} failed: {exc}") from exc


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


def _start_key(initial_model):
    """What a pair's refit of a CANN start model depends on: the model's
    kind and, for a GBM, its tuned (n_trees, depth); None without one."""
    if initial_model is None:
        return None
    if initial_model.kind == "gbm":
        return ("gbm", initial_model.n_trees, initial_model.depth)
    return ("glm",)


def _refit_start(dataset: Dataset, family: str, pair, rows, start, seed: int):
    """The start model of key `start` refitted on `rows`, the training rows
    of `pair`; a GBM is seeded by the pair."""
    if start[0] == "glm":
        return fit_fold_glm(dataset, family, rows, pair)
    _, n_trees, depth = start
    return gbm_mod.fit_gbm(dataset.subset(rows), family, n_trees, depth,
                           seed=derive_seed(seed, "gbm", pair), train_fold=pair)


def _score_cells(dataset, family, fold_plan, preset, seed, searches, grids, task):
    """For each search in `task`, (pair, start key, searches), each drawn
    spec's {fold: deviance} on the two folds of the pair, trained on the
    pair's rows. One context and one start-model refit serve them all."""
    pair, start, found = task
    rows = fold_plan.inner_train_rows(*pair)
    held_out = {k: fold_plan.test_rows(k) for k in pair}
    with _failing(f"folds {pair[0]} and {pair[1]}"):
        ctx = build_fold_context(dataset, family, fold_plan, pair, preset, seed)
        log_y_in = None if start is None else _log_initial(
            _refit_start(dataset, family, pair, rows, start, seed), dataset)
        scores = []
        for i in found:
            cann_mode, search_seed, _ = searches[i]
            nets = [_train_one(ctx, rows, spec, family, cann_mode, log_y_in, preset,
                               derive_seed(search_seed, "tune"), 0) for spec in grids[i]]
            scores.append([{k: fold_deviance(_net_predictions(net, ctx, valid, log_y_in), dataset,
                                             valid, family)
                            for k, valid in held_out.items()} for net in nets])
    return scores


def tune_network_specs(dataset, family, fold_plan, searches, preset, seed) -> list[dict]:
    """Random-grid search scored by inner cross-validation deviance, for
    each network family in `searches` and each outer fold it names.

    `searches` holds one (cann_mode, seed, {outer fold: initial model or
    None}) triple per family. Each family draws one grid from its seed. A
    cell is a pair {f, k} of held-out folds, a start model and a spec: it
    trains once on the rows in neither fold, on the pair's own context and,
    for a CANN, on the start model refitted on those rows, and is scored on
    both folds. The folds of a pair share a cell when their start models
    agree. The cells of each (pair, start model) run as one `fork_map`
    task, built from the run `seed`.

    Returns, per search, {fold: (spec, grid)}: the grid holds every drawn
    spec with its mean deviance over the fold's inner folds and those
    deviances in inner-fold order; the spec is the grid's first minimum."""
    severity = get_family(family, PipelineError).severity
    batch_size = preset.sev_batch if severity else preset.freq_batch
    grids = [nn.random_grid(batch_size, n=preset.grid_size, seed=derive_seed(search_seed, "grid"))
             for _, search_seed, _ in searches]
    tasks = {}  # (pair, start key) -> {search: None}, in first-seen order
    for i, (_, _, initial) in enumerate(searches):
        for fold, model in initial.items():
            for k in fold_plan.inner_folds(fold):
                tasks.setdefault((tuple(sorted((fold, k))), _start_key(model)), {})[i] = None
    tasks = sorted(((pair, start, list(found)) for (pair, start), found in tasks.items()),
                   key=lambda task: -len(task[2]))  # the largest first, for a short tail
    scores = fork_map(partial(_score_cells, dataset, family, fold_plan, preset, seed, searches,
                              grids), tasks)
    deviance = {(pair, start, i): by_spec
                for (pair, start, found), task_scores in zip(tasks, scores)
                for i, by_spec in zip(found, task_scores)}
    tuned = []
    for i, (_, _, initial) in enumerate(searches):
        folds = {}
        for fold, model in initial.items():
            inner = fold_plan.inner_folds(fold)
            cells = [deviance[tuple(sorted((fold, k))), _start_key(model), i] for k in inner]
            grid = []
            for j, spec in enumerate(grids[i]):
                losses = [by_spec[j][k] for k, by_spec in zip(inner, cells)]
                grid.append((spec, float(np.mean(losses)), losses))
            folds[fold] = (min(grid, key=lambda entry: entry[1])[0], grid)
        tuned.append(folds)
    return tuned


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

    `grid` holds every spec the tuning drew as (spec, mean inner-CV
    deviance, deviance per inner fold in fold order); `spec` is the one
    chosen. `autoencoder` is the fold context's record, or None without
    categorical blocks."""

    kind = "networks"  # the tag `to_dict` writes and `load_model` reads

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

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "family": self.family,
            "spec": asdict(self.spec),
            "grid": [{"spec": asdict(spec), "inner_deviance": score, "inner_fold_deviances": folds}
                     for spec, score, folds in self.grid],
            "members": [m.to_dict() for m in self.members],
            "stats": asdict(self.stats),
            "initial": None if self.initial_model is None else self.initial_model.to_dict(),
            "autoencoder": self.autoencoder,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AveragedNetworks":
        initial = d["initial"]
        return cls(
            family=d["family"],
            members=[nn.Network.from_dict(m) for m in d["members"]],
            stats=ScalingStats(d["stats"]["means"], d["stats"]["stds"], d["stats"]["train_fold"]),
            spec=nn.NetworkSpec(**d["spec"]),
            grid=[(nn.NetworkSpec(**e["spec"]), e["inner_deviance"], e["inner_fold_deviances"])
                  for e in d["grid"]],
            initial_model=None if initial is None else _KINDS[initial["kind"]].from_dict(initial),
            autoencoder=d["autoencoder"],
        )


def _fit_members(ctx: FoldContext, dataset, family, fold_plan, preset, seed, cann_mode,
                 initial_model, tuned) -> AveragedNetworks:
    """The tuned spec trained `preset.repetitions` times on the fold's
    training rows; `tuned` is its (spec, grid)."""
    spec, grid = tuned
    log_y_in = None if cann_mode is None else _log_initial(initial_model, dataset)
    train_rows = fold_plan.train_rows(ctx.fold)
    members = [
        _train_one(ctx, train_rows, spec, family, cann_mode, log_y_in, preset, seed, rep)
        for rep in range(preset.repetitions)
    ]
    return AveragedNetworks(family, members, ctx.stats, spec, grid, initial_model, ctx.autoencoder)


def fit_fold_network(ctx: FoldContext, dataset, family, fold_plan, preset, seed,
                     cann_mode=None, initial_model=None) -> AveragedNetworks:
    """The networks of outer fold `ctx.fold` alone: tuned on its pairs of
    held-out folds, as `run_pipeline` tunes them, then trained."""
    [tuned] = tune_network_specs(dataset, family, fold_plan,
                                 [(cann_mode, seed, {ctx.fold: initial_model})], preset, ctx.seed)
    return _fit_members(ctx, dataset, family, fold_plan, preset, seed, cann_mode, initial_model,
                        tuned[ctx.fold])


_KINDS = {cls.kind: cls for cls in (GlmModel, gbm_mod.BoostedModel, AveragedNetworks)}


def save_model(model, path) -> None:
    """Write `model`'s payload as one line of JSON."""
    write_json(path, model.to_dict())


def load_model(path):
    """The fitted model a `model.json` holds, of whichever family: the
    file's `kind` tag ("glm", "gbm" or "networks") picks the class.

    Raises `PipelineError` naming the file for anything that is not a
    complete model payload."""
    payload = read_json(path, PipelineError)
    kind = payload.get("kind") if isinstance(payload, dict) else None
    if kind not in _KINDS:
        raise PipelineError(
            f"{path} is not a model payload: kind {kind!r}, expected one of {sorted(_KINDS)}")
    try:
        return _KINDS[kind].from_dict(payload)
    except (LookupError, TypeError, ValueError) as exc:
        raise PipelineError(f"{path} is not a complete {kind!r} model: "
                            f"{type(exc).__name__}: {exc}") from exc


# -- orchestration ---------------------------------------------------------


def _write_predictions(path, rows, predictions):
    write_rows(path, ["row_index", "prediction"], zip(rows.tolist(), predictions.tolist()))


def _fit_shared(config: RunConfig, dataset: Dataset, fold_plan: FoldPlan, fold: int) -> dict:
    """Outer fold `fold`'s GLM and GBM by name, each one that a requested
    family uses."""
    family, preset = config.response_family, PRESETS[config.preset]
    bases = {MODEL_FAMILIES[name][0] for name in config.families}
    shared = {}
    with _failing(f"fold {fold}"):
        if "glm" in bases:
            shared["glm"] = fit_fold_glm(dataset, family, fold_plan.train_rows(fold), fold)
        if "gbm" in bases:
            shared["gbm"] = fit_fold_gbm(dataset, family, fold_plan, fold, preset, config.seed)
    return shared


def _run_fold(config: RunConfig, dataset: Dataset, fold_plan: FoldPlan, shared, tuned, fold: int):
    """Train each network family's tuned spec on one outer fold, write
    every requested family's `model.json` and `predictions.csv` and score
    it on the held-out rows. `shared` holds each fold's GLM and GBM,
    `tuned` each network family's {fold: (spec, grid)}.

    Returns (loss rows, {family: test-row predictions}). A failure raises
    `PipelineError` naming the fold."""
    preset = PRESETS[config.preset]
    family = config.response_family
    test_rows = fold_plan.test_rows(fold)
    loss_rows, predictions = [], {}
    with _failing(f"fold {fold}"):
        ctx = (build_fold_context(dataset, family, fold_plan, fold, preset, config.seed)
               if tuned else None)
        held_out = dataset.subset(test_rows)
        deviance = get_family(family, PipelineError).deviance
        for name in config.families:
            base, cann_mode = MODEL_FAMILIES[name]
            model = shared[fold][name] if base == name else _fit_members(
                ctx, dataset, family, fold_plan, preset, derive_seed(config.seed, name),
                cann_mode, shared[fold].get(base), tuned[name][fold])
            pred = predictions[name] = model.predict(held_out)
            loss_rows.append({"model": name, "fold": fold, "deviance": deviance(pred, held_out)})
            fold_dir = os.path.join(config.outdir, f"fold_{fold}", name)
            os.makedirs(fold_dir, exist_ok=True)
            save_model(model, os.path.join(fold_dir, "model.json"))
            _write_predictions(os.path.join(fold_dir, "predictions.csv"), test_rows, pred)
    return loss_rows, predictions


def run_pipeline(config: RunConfig, dataset: Dataset, fold_plan: FoldPlan | None = None):
    """Train every requested family on every outer fold and collect the
    held-out loss table and the stitched out-of-sample predictions.

    Three task lists run through `fork_map`, in forked workers or in
    process: each fold's GLM and GBM, the network cells of
    `tune_network_specs`, and each fold's final networks and files.
    Either way the same files are written, the lowest failing task's
    `PipelineError` is raised and no worker is left running.

    Returns {"loss_table": rows, "predictions": {family: vector}}; the
    fitted models are in the `model.json` files. Artifacts for completed
    stages are kept on disk even when a later stage fails.
    """
    if fold_plan is None:
        fold_plan = stratified_folds(dataset, seed=derive_seed(config.seed, "folds"))
    elif len(fold_plan.outer) != dataset.n:
        raise PipelineError(
            f"the fold plan assigns {len(fold_plan.outer)} rows, the dataset has {dataset.n}")
    os.makedirs(config.outdir, exist_ok=True)

    folds = range(fold_plan.k_outer)
    shared = fork_map(partial(_fit_shared, config, dataset, fold_plan), folds)
    networks = [name for name in config.families if MODEL_FAMILIES[name][0] != name]
    searches = [(MODEL_FAMILIES[name][1], derive_seed(config.seed, name),
                 {fold: shared[fold].get(MODEL_FAMILIES[name][0]) for fold in folds})
                for name in networks]
    tuned = dict(zip(networks, tune_network_specs(dataset, config.response_family, fold_plan,
                                                  searches, PRESETS[config.preset],
                                                  config.seed)))
    outcomes = fork_map(partial(_run_fold, config, dataset, fold_plan, shared, tuned), folds)

    loss_rows = []
    predictions = {f: np.full(dataset.n, np.nan) for f in config.families}
    for fold, (rows, fold_predictions) in enumerate(outcomes):
        loss_rows.extend(rows)
        for name, pred in fold_predictions.items():
            predictions[name][fold_plan.test_rows(fold)] = pred

    header = ["model", "fold", "deviance"]
    write_rows(os.path.join(config.outdir, "loss_table.csv"), header,
               [tuple(row[key] for key in header) for row in loss_rows])
    for name in config.families:
        _write_predictions(
            os.path.join(config.outdir, f"oos_predictions_{name}.csv"),
            np.arange(dataset.n),
            predictions[name],
        )
    return {"loss_table": loss_rows, "predictions": predictions}


def save_fold_plan(fold_plan: FoldPlan, path) -> None:
    payload = {
        "outer": fold_plan.outer.tolist(),
        "k_outer": fold_plan.k_outer,
        "strat_key": fold_plan.strat_key.tolist(),
        "seed": fold_plan.seed,
    }
    write_json(path, payload)


def load_fold_plan(path) -> FoldPlan:
    """The fold plan `save_fold_plan` wrote. Raises `PipelineError` naming
    the file for a missing key, k_outer < 2, an outer label that is not an
    integer in 0..k_outer-1, a `strat_key` of another length or an empty
    outer fold."""
    d = read_json(path, PipelineError)
    try:
        k_outer, outer = operator.index(d["k_outer"]), np.asarray(d["outer"])
        strat_key, seed = np.asarray(d["strat_key"], dtype=np.int64), d["seed"]
    except (LookupError, TypeError, ValueError) as exc:
        raise PipelineError(f"{path} is not a fold plan: {type(exc).__name__}: {exc}") from exc
    if k_outer < 2:
        raise PipelineError(f"{path}: k_outer is {k_outer}, so no fold has training rows")
    if (outer.ndim != 1 or (outer.size and outer.dtype.kind not in "iu")
            or np.any(outer < 0) or np.any(outer >= k_outer)):
        raise PipelineError(f"{path}: outer labels must be integers in 0..{k_outer - 1}")
    if strat_key.shape != outer.shape:
        raise PipelineError(f"{path}: strat_key has {strat_key.size} entries, outer {outer.size}")
    empty = np.setdiff1d(np.arange(k_outer), outer).tolist()
    if empty:
        raise PipelineError(f"{path}: outer folds {empty} have no rows")
    return FoldPlan(outer.astype(np.int64), k_outer, strat_key, seed)
