"""Command-line entry points.

Each pipeline stage is a subcommand reading the previous stage's
artifacts and writing its own, so stages are resumable and individually
testable. `run` executes the whole pipeline in one go.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import replace

import click
import numpy as np

from . import tariff as tariff_mod
from .data import (
    PortfolioSpec,
    generate_synthetic_portfolio,
    load_claims_csv,
    load_csv,
    load_schema,
    severity_view,
    stratified_folds,
    write_claims_csv,
    write_csv,
)
from .evaluation import LossVector, diebold_mariano, get_family, write_dm_json
from .interpretation import partial_dependence, permutation_vip, write_pd_csv, write_vip_csv
from .pipeline import PipelineError, RunConfig, load_config, load_fold_plan, load_model
from .pipeline import run_pipeline, save_fold_plan
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


def _read_predictions(path, stage="train"):
    _require(path, stage)
    rows, preds = [], []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        for line in reader:
            if len(header) >= 2:
                rows.append(int(line[0]))
                preds.append(float(line[1]))
            else:
                rows.append(len(preds))
                preds.append(float(line[0]))
    return np.asarray(rows), np.asarray(preds)


@click.group()
def main():
    """Frequency-severity insurance pricing models and tariff tools."""


@main.command()
@click.option("--rows", default=6000, show_default=True)
@click.option("--seed", default=0, show_default=True)
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
    with open(os.path.join(out, "schema.txt"), "w", encoding="utf-8") as fh:
        fh.write(
            "age:continuous\n"
            "region:categorical:north,south,east\n"
            "cover:categorical:basic,full\n"
            "exposure:exposure\n"
            "claim_count:response\n"
        )
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
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
    click.echo(f"validated {dataset.n} rows")


@main.command()
@click.option("--data", required=True, type=click.Path())
@click.option("--schema", required=True, type=click.Path())
@click.option("--seed", default=0, show_default=True)
@click.option("--out", required=True, type=click.Path())
def folds(data, schema, seed, out):
    """Build the stratified outer fold partition."""
    dataset = _load_data(data, schema)
    plan = stratified_folds(dataset, seed=derive_seed(seed, "folds"))
    save_fold_plan(plan, out)
    click.echo(f"assigned {dataset.n} rows to {plan.k_outer} folds")


@main.command()
@click.option("--data", required=True, type=click.Path())
@click.option("--schema", required=True, type=click.Path())
@click.option("--claims", type=click.Path(), default=None)
@click.option("--folds", "folds_path", type=click.Path(), default=None)
@click.option("--seed", default=0, show_default=True)
@click.option("--preset", type=click.Choice(["desk", "paper"]), default="desk", show_default=True)
@click.option("--families", default="glm,gbm", show_default=True)
@click.option("--response-family", type=click.Choice(["poisson_log", "gamma_log"]),
              default="poisson_log", show_default=True)
@click.option("--out", required=True, type=click.Path())
def train(data, schema, claims, folds_path, seed, preset, families, response_family, out):
    """Run cross-validated training for the requested model families."""
    dataset = _load_data(data, schema, claims, response_family)
    plan = None
    if folds_path is not None:
        _require(folds_path, "folds")
        plan = load_fold_plan(folds_path)
    config = RunConfig(
        data_path=data,
        schema_path=schema,
        claims_path=claims,
        seed=seed,
        families=tuple(families.split(",")),
        preset=preset,
        outdir=out,
        response_family=response_family,
    )
    result = run_pipeline(config, dataset, plan)
    click.echo(f"wrote {len(result['loss_table'])} loss rows to {out}/loss_table.csv")


@main.command()
@click.option("--data", required=True, type=click.Path())
@click.option("--schema", required=True, type=click.Path())
@click.option("--claims", type=click.Path(), default=None)
@click.option("--pred-a", required=True, type=click.Path())
@click.option("--pred-b", required=True, type=click.Path())
@click.option("--family", type=click.Choice(["poisson_log", "gamma_log"]),
              default="poisson_log", show_default=True)
@click.option("--out", required=True, type=click.Path())
def evaluate(data, schema, claims, pred_a, pred_b, family, out):
    """Diebold-Mariano verdict between two saved prediction files."""
    dataset = _load_data(data, schema, claims, family)
    rows_a, fa = _read_predictions(pred_a)
    rows_b, fb = _read_predictions(pred_b)
    if not np.array_equal(rows_a, rows_b):
        raise click.ClickException("prediction files cover different rows")
    sub = dataset.subset(rows_a)
    fam = get_family(family)
    y, w = sub.response, fam.obs_weight(sub)
    la = fam.contributions(fa, y, w)
    lb = fam.contributions(fb, y, w)
    result = diebold_mariano(LossVector(la, "A"), LossVector(lb, "B"))
    write_dm_json({"A_vs_B": result}, out)
    click.echo(f"DM verdict: {result.verdict} (p = {result.p_value:.4g})")


@main.command()
@click.option("--data", required=True, type=click.Path())
@click.option("--schema", required=True, type=click.Path())
@click.option("--claims", type=click.Path(), default=None)
@click.option("--model", "model_path", required=True, type=click.Path())
@click.option("--seed", default=0, show_default=True)
@click.option("--out", required=True, type=click.Path())
def interpret(data, schema, claims, model_path, seed, out):
    """Permutation importance and partial dependence for a saved model,
    on the rows of its own response family (claimants for severity)."""
    _require(model_path, "train")
    model = load_model(model_path)
    dataset = _load_data(data, schema, claims, model.family)
    os.makedirs(out, exist_ok=True)
    vip, relative = permutation_vip(model, dataset, seed=seed)
    write_vip_csv(vip, relative, model.kind, os.path.join(out, "vip.csv"))
    curves = [
        partial_dependence(model, dataset, v, model_id=model.kind)
        for v in dataset.feature_names
    ]
    write_pd_csv(curves, os.path.join(out, "pd.csv"))
    click.echo(f"wrote importance and PD tables for {len(curves)} variables")


@main.command()
@click.option("--data", required=True, type=click.Path())
@click.option("--schema", required=True, type=click.Path())
@click.option("--claims", type=click.Path(), default=None)
@click.option("--model", "model_path", required=True, type=click.Path())
@click.option("--out", required=True, type=click.Path())
def surrogate(data, schema, claims, model_path, out):
    """Distill a saved black-box model into a surrogate GLM tariff of the
    model's own response family."""
    _require(model_path, "train")
    model = load_model(model_path)
    dataset = _load_data(data, schema, claims, model.family)
    result = build_surrogate(model, dataset, model.family)
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "surrogate.json"), "w", encoding="utf-8") as fh:
        json.dump(
            {"glm": json.loads(result.glm.to_json()), "tariff": result.tariff_table},
            fh,
            indent=2,
        )
    write_selection_report(result, os.path.join(out, "report.txt"))
    click.echo(f"surrogate selected: {result.report['selected']['mains']}")


@main.command()
@click.option("--premiums", "premium_specs", multiple=True, required=True,
              help="NAME=PATH of a per-row premium file; repeatable")
@click.option("--losses", required=True, type=click.Path())
@click.option("--out", required=True, type=click.Path())
def tariff(premium_specs, losses, out):
    """Pairwise tariff comparison: Gini matrix, balance ratios, Lorenz curves."""
    premiums = {}
    for spec in premium_specs:
        if "=" not in spec:
            raise click.ClickException("--premiums expects NAME=PATH")
        name, path = spec.split("=", 1)
        _, premiums[name] = _read_predictions(path)
    _, loss_values = _read_predictions(losses, stage="train/evaluate")
    comparison = tariff_mod.compare_tariffs(premiums, loss_values)
    os.makedirs(out, exist_ok=True)
    tariff_mod.write_gini_csv(comparison, os.path.join(out, "gini.csv"))
    tariff_mod.write_balance_csv(comparison, os.path.join(out, "balance.csv"))
    tariff_mod.write_lorenz_csv(comparison, os.path.join(out, "lorenz.csv"))
    click.echo(f"min-max selection: {comparison.selected}")


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--seed", type=int, default=None)
@click.option("--preset", type=click.Choice(["desk", "paper"]), default=None)
@click.option("--out", type=click.Path(), default=None)
def run(config_path, seed, preset, out):
    """Run the full pipeline from a JSON config file."""
    _require(config_path, "config")
    try:
        config = load_config(config_path)
    except PipelineError as exc:
        raise click.ClickException(str(exc)) from exc
    overrides = {}
    if seed is not None:
        overrides["seed"] = seed
    if preset is not None:
        overrides["preset"] = preset
    if out is not None:
        overrides["outdir"] = out
    if overrides:
        config = replace(config, **overrides)
    dataset = _load_data(
        config.data_path, config.schema_path, config.claims_path, config.response_family
    )
    result = run_pipeline(config, dataset)
    click.echo(f"pipeline complete: {len(result['loss_table'])} loss rows in {config.outdir}")


if __name__ == "__main__":
    main()
