"""Command-line entry points.

Each pipeline stage is a subcommand reading the previous stage's
artifacts and writing its own, so stages are resumable and individually
testable. `run` cross-validates the model families set by a JSON config
file, by flags, or by both.
"""

from __future__ import annotations

import os
from dataclasses import asdict, replace

import click
import numpy as np

from . import tariff as tariff_mod
from .data import (
    PortfolioSpec,
    generate_synthetic_portfolio,
    load_claims_csv,
    load_csv,
    load_schema,
    read_rows,
    severity_view,
    stratified_folds,
    write_claims_csv,
    write_csv,
    write_json,
    write_schema,
)
from .evaluation import FAMILIES, LossVector, diebold_mariano, get_family
from .interpretation import partial_dependence, permutation_vip, write_pd_csv, write_vip_csv
from .pipeline import MODEL_FAMILIES, PRESETS, RunConfig, load_config, load_fold_plan, load_model
from .pipeline import run_pipeline, save_fold_plan, save_model
from .surrogate import build_surrogate, write_selection_report
from ._rand import derive_seed


def _require(path, stage):
    if not os.path.exists(path):
        raise click.ClickException(
            f"missing artifact {path!r}; produce it with the `{stage}` stage first"
        )


def _load_data(data, schema, claims=None, family="poisson_log"):
    _require(schema, "ingest/synth")
    _require(data, "ingest/synth")
    dataset = load_csv(data, load_schema(schema))
    if get_family(family).severity:
        if claims is None:
            raise click.ClickException("severity modeling needs --claims")
        _require(claims, "synth")
        dataset = severity_view(dataset, load_claims_csv(claims))
    return dataset


def _read_predictions(path):
    """The row indices and predictions of a `row_index,prediction` file."""
    _require(path, "run")
    header, lines = read_rows(path)
    if len(header) < 2:
        raise click.ClickException(
            f"{path}: a prediction file needs a row index and a prediction column"
        )
    rows, preds = [], []
    for i, line in enumerate(lines, start=1):
        try:
            rows.append(int(line[0]))
            preds.append(float(line[1]))
        except ValueError as exc:
            raise click.ClickException(f"{path}: row {i}: {exc}") from None
    rows = np.asarray(rows, dtype=np.int64)
    unique, counts = np.unique(rows, return_counts=True)
    if np.any(counts > 1):
        raise click.ClickException(f"{path}: row index {unique[counts > 1][0]} is listed twice")
    return rows, np.asarray(preds)


class _Group(click.Group):
    """Reports an exception of a class that a freqsev module defines, such
    as `DataError` or `GlmError`, as a one-line `Error:`, exit code 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except Exception as exc:
            if not type(exc).__module__.startswith(f"{__package__}."):
                raise
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Group)
def main():
    """Frequency-severity insurance pricing models and tariff tools."""


@main.command()
@click.option("--rows", default=6000, show_default=True)
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
@click.option("--out", required=True, type=click.Path())
def synth(rows, seed, out):
    """Generate a synthetic log-linear portfolio (data, claims, schema)."""
    spec = PortfolioSpec(
        n=rows,
        continuous={"age": (18.0, 80.0)},
        categorical={
            "region": {"north": 0.4, "south": 0.35, "east": 0.25},
            "cover": {"basic": 0.6, "full": 0.4},
        },
        freq_intercept=-2.2,
        freq_coefs={
            "age": -0.01,
            "region": {"north": 0.0, "south": 0.3, "east": -0.2},
            "cover": {"basic": 0.0, "full": 0.25},
        },
        sev_intercept=6.5,
        sev_coefs={"age": 0.005, "cover": {"basic": 0.0, "full": 0.4}},
    )
    portfolio = generate_synthetic_portfolio(spec, seed=seed)
    os.makedirs(out, exist_ok=True)
    write_csv(portfolio.dataset, os.path.join(out, "portfolio.csv"))
    write_claims_csv(portfolio.claims, os.path.join(out, "claims.csv"))
    write_schema(portfolio.dataset.schema, os.path.join(out, "schema.txt"))
    click.echo(f"wrote {rows}-row synthetic portfolio to {out}")


@main.command()
@click.option("--data", required=True, type=click.Path())
@click.option("--schema", required=True, type=click.Path())
@click.option("--out", required=True, type=click.Path())
def ingest(data, schema, out):
    """Validate a portfolio file against its schema and summarize it."""
    dataset = _load_data(data, schema)
    summary = {
        "rows": dataset.n,
        "columns": [c.name for c in dataset.schema],
        "total_claims": float(np.sum(dataset.response)),
        "total_exposure": None
        if dataset.exposure is None
        else float(np.sum(dataset.exposure)),
    }
    write_json(out, summary, indent=2)
    click.echo(f"validated {dataset.n} rows")


@main.command()
@click.option("--data", required=True, type=click.Path())
@click.option("--schema", required=True, type=click.Path())
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
@click.option("--out", required=True, type=click.Path())
def folds(data, schema, seed, out):
    """Build the stratified outer fold partition."""
    dataset = _load_data(data, schema)
    plan = stratified_folds(dataset, seed=derive_seed(seed, "folds"))
    save_fold_plan(plan, out)
    click.echo(f"assigned {dataset.n} rows to {plan.k_outer} folds")


@main.command()
@click.option("--config", "config_path", type=click.Path(), help="JSON file of RunConfig fields")
@click.option("--data", "data_path", type=click.Path())
@click.option("--schema", "schema_path", type=click.Path())
@click.option("--claims", "claims_path", type=click.Path())
@click.option("--folds", "folds_path", type=click.Path())
@click.option("--seed", type=click.IntRange(min=0))
@click.option("--preset", type=click.Choice(list(PRESETS)))
@click.option("--families", help=f"comma-separated, e.g. glm,gbm; from {', '.join(MODEL_FAMILIES)}",
              callback=lambda ctx, param, value: value and tuple(value.split(",")))
@click.option("--response-family", type=click.Choice(list(FAMILIES)))
@click.option("--out", "outdir", type=click.Path())
def run(config_path, folds_path, **flags):
    """Cross-validate the requested model families and write per-fold
    artifacts plus a loss table; a flag overrides its --config field."""
    if config_path is not None:
        _require(config_path, "config")
        config = load_config(config_path)
    elif flags["data_path"] is None or flags["schema_path"] is None:
        raise click.ClickException("run needs --config, or --data and --schema")
    else:
        config = RunConfig()
    config = replace(config, **{k: v for k, v in flags.items() if v is not None})
    dataset = _load_data(
        config.data_path, config.schema_path, config.claims_path, config.response_family
    )
    plan = None
    if folds_path is not None:
        _require(folds_path, "folds")
        plan = load_fold_plan(folds_path)
    result = run_pipeline(config, dataset, plan)
    click.echo(f"wrote {len(result['loss_table'])} loss rows to {config.outdir}/loss_table.csv")


@main.command()
@click.option("--data", required=True, type=click.Path())
@click.option("--schema", required=True, type=click.Path())
@click.option("--claims", type=click.Path(), default=None)
@click.option("--pred-a", required=True, type=click.Path())
@click.option("--pred-b", required=True, type=click.Path())
@click.option("--family", type=click.Choice(list(FAMILIES)),
              default="poisson_log", show_default=True)
@click.option("--out", required=True, type=click.Path())
def evaluate(data, schema, claims, pred_a, pred_b, family, out):
    """Diebold-Mariano verdict between two saved prediction files."""
    dataset = _load_data(data, schema, claims, family)
    rows_a, fa = _read_predictions(pred_a)
    rows_b, fb = _read_predictions(pred_b)
    if not np.array_equal(rows_a, rows_b):
        raise click.ClickException("prediction files cover different rows")
    if np.any((rows_a < 0) | (rows_a >= dataset.n)):
        raise click.ClickException(f"{pred_a}: row indices must lie in 0..{dataset.n - 1}")
    sub = dataset.subset(rows_a)
    fam = get_family(family)
    y, w = sub.response, fam.obs_weight(sub)
    la = fam.contributions(fa, y, w)
    lb = fam.contributions(fb, y, w)
    result = diebold_mariano(LossVector(la, "A"), LossVector(lb, "B"))
    write_json(out, {"A_vs_B": asdict(result)}, indent=2)
    click.echo(f"DM verdict: {result.verdict} (p = {result.p_value:.4g})")


@main.command()
@click.option("--data", required=True, type=click.Path())
@click.option("--schema", required=True, type=click.Path())
@click.option("--claims", type=click.Path(), default=None)
@click.option("--model", "model_path", required=True, type=click.Path())
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
@click.option("--out", required=True, type=click.Path())
def interpret(data, schema, claims, model_path, seed, out):
    """Permutation importance and partial dependence for a saved model,
    on the rows of its own response family (claimants for severity)."""
    _require(model_path, "run")
    model = load_model(model_path)
    dataset = _load_data(data, schema, claims, model.family)
    curves = [
        partial_dependence(model, dataset, v, model_id=model.kind)
        for v in dataset.feature_names
    ]
    vip, relative = permutation_vip(model, dataset, seed=seed)
    os.makedirs(out, exist_ok=True)
    write_vip_csv(vip, relative, model.kind, os.path.join(out, "vip.csv"))
    write_pd_csv(curves, os.path.join(out, "pd.csv"))
    click.echo(f"wrote importance and PD tables for {len(curves)} variables")


@main.command()
@click.option("--data", required=True, type=click.Path())
@click.option("--schema", required=True, type=click.Path())
@click.option("--claims", type=click.Path(), default=None)
@click.option("--model", "model_path", required=True, type=click.Path())
@click.option("--out", required=True, type=click.Path())
def surrogate(data, schema, claims, model_path, out):
    """Distill a saved black-box model into a surrogate GLM of the model's
    own response family: its model.json, tariff table and selection report."""
    _require(model_path, "run")
    model = load_model(model_path)
    dataset = _load_data(data, schema, claims, model.family)
    result = build_surrogate(model, dataset, model.family)
    os.makedirs(out, exist_ok=True)
    save_model(result.glm, os.path.join(out, "model.json"))
    write_json(os.path.join(out, "tariff.json"), result.glm.tariff_table, indent=2)
    write_selection_report(result, os.path.join(out, "report.txt"))
    click.echo(f"surrogate selected: {result.report['selected']['mains']}")


@main.command()
@click.option("--premiums", "premium_specs", multiple=True, required=True,
              help="NAME=PATH of a per-row premium file; repeatable")
@click.option("--losses", required=True, type=click.Path())
@click.option("--out", required=True, type=click.Path())
def tariff(premium_specs, losses, out):
    """Pairwise tariff comparison: Gini matrix, balance ratios, Lorenz curves."""
    loss_rows, loss_values = _read_predictions(losses)
    premiums = {}
    for spec in premium_specs:
        if "=" not in spec:
            raise click.ClickException("--premiums expects NAME=PATH")
        name, path = spec.split("=", 1)
        if not name or name in premiums:
            raise click.ClickException(
                f"--premiums needs a non-empty NAME, each once; got {name!r}")
        rows, premiums[name] = _read_predictions(path)
        if not np.array_equal(rows, loss_rows):
            raise click.ClickException(f"{path} and {losses} cover different rows")
    comparison = tariff_mod.compare_tariffs(premiums, loss_values)
    os.makedirs(out, exist_ok=True)
    tariff_mod.write_gini_csv(comparison, os.path.join(out, "gini.csv"))
    tariff_mod.write_balance_csv(comparison, os.path.join(out, "balance.csv"))
    tariff_mod.write_lorenz_csv(comparison, os.path.join(out, "lorenz.csv"))
    click.echo(f"min-max selection: {comparison.selected}")


if __name__ == "__main__":
    main()
