"""The benchmark's three workloads, drawn from the paper's four steps.

Every workload generates its portfolio from the workload seed with the
spec that `freqsev synth` writes. The program sees only the generated
data; the true rates stay here, for the deviance ratio. The program's
own seed (`RunConfig.seed` and the `seed` arguments of the per-fold
functions) is `PROGRAM_SEED` for every workload seed: it draws the
random network grid, and when it followed the workload seed the drawn
architectures alone moved the cv-nets pass between 31 and 48 s.

A workload has three parts:
- `setup(seed, workdir)` builds the inputs and fits the models that are
  not timed, and returns the state;
- `run(state, outdir, ops)` is one timed pass; every public call goes
  through `ops.call`, which counts it and turns an exception into a
  failed operation;
- `check(state, outputs, ops)` is untimed. It checks the outputs, counts
  each check through `ops.check`, and returns a fingerprint of the
  outputs that must repeat byte for byte at one seed, plus the
  deviance ratio.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from freqsev import data, evaluation, gbm, interpretation, pipeline, surrogate, tariff
from freqsev._rand import derive_seed

# The portfolio `freqsev synth` writes: age, region and cover at a claim
# frequency of about 0.11.
SPEC = data.PortfolioSpec(
    n=6000,
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
SCHEMA_TEXT = (
    "age:continuous\n"
    "region:categorical:north,south,east\n"
    "cover:categorical:basic,full\n"
    "exposure:exposure\n"
    "claim_count:response\n"
)
FREQ, SEV = "poisson_log", "gamma_log"
PROGRAM_SEED = 0
BOOK_ROWS = 100_000
EVAL_ROWS = 10_000
SETUP_TREES, SETUP_DEPTH = 400, 3
FOLD = 0  # the outer fold that fold-gbm runs and distill-price trains on


class PassFailed(RuntimeError):
    """A public call raised; the pass cannot go on."""


class Ops:
    """Counts operations: timed public calls and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - any program error fails the operation
            self.failures.append(f"{getattr(fn, '__qualname__', fn)} raised {exc!r}")
            raise PassFailed(str(exc)) from exc

    def check(self, ok, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"check failed: {what}")
        return bool(ok)


def poisson_deviance(expected_counts, counts) -> float:
    """Mean Poisson deviance, computed here so that scoring stays out of
    the program under test."""
    mu = np.asarray(expected_counts, dtype=float)
    y = np.asarray(counts, dtype=float)
    log_term = np.where(y > 0, y * np.log(np.where(y > 0, y, 1.0) / mu), 0.0)
    return float(np.mean(2.0 * (log_term - (y - mu))))


def deviance_ratio(rates, true_rates, counts, exposure) -> float:
    """Held-out deviance of `rates` over that of the true rates."""
    return poisson_deviance(rates * exposure, counts) / poisson_deviance(
        true_rates * exposure, counts
    )


def _positive(values) -> bool:
    v = np.asarray(values, dtype=float)
    return v.size > 0 and bool(np.all(np.isfinite(v)) and np.all(v > 0))


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))


def _check_loss_table(ops: Ops, rows, families, folds, what: str) -> None:
    """One finite deviance per family and fold, and nothing else."""
    keys = [(r["model"], int(r["fold"])) for r in rows]
    expected = {(f, k) for f in families for k in folds}
    ops.check(len(keys) == len(expected) and set(keys) == expected, f"{what}: one row per family and fold")
    ops.check(all(np.isfinite(float(r["deviance"])) for r in rows), f"{what}: finite deviances")


def _read_loss_table(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


# -- cv-nets --------------------------------------------------------------


class CvNets:
    """The full 6-fold desk pipeline on frequency and on severity, from the
    CSV files `freqsev synth` would write. Networks do the work."""

    name = "cv-nets"
    freq_families = ("glm", "ffnn", "cann_glm_fixed", "cann_glm_flexible")
    sev_families = ("glm", "ffnn", "cann_glm_fixed")

    def setup(self, seed: int, workdir: Path):
        portfolio = data.generate_synthetic_portfolio(SPEC, seed=seed)
        inputs = workdir / "input"
        inputs.mkdir(parents=True, exist_ok=True)
        data.write_csv(portfolio.dataset, inputs / "portfolio.csv")
        data.write_claims_csv(portfolio.claims, inputs / "claims.csv")
        (inputs / "schema.txt").write_text(SCHEMA_TEXT, encoding="utf-8")
        return {"inputs": inputs, "true_rate": portfolio.true_rate}

    def _config(self, state, families, family, outdir: Path):
        inputs = state["inputs"]
        return pipeline.RunConfig(
            data_path=str(inputs / "portfolio.csv"),
            schema_path=str(inputs / "schema.txt"),
            claims_path=str(inputs / "claims.csv"),
            seed=PROGRAM_SEED,
            families=families,
            preset="desk",
            outdir=str(outdir),
            response_family=family,
        )

    def run(self, state, outdir: Path, ops: Ops):
        inputs = state["inputs"]
        schema = ops.call(data.load_schema, inputs / "schema.txt")
        dataset = ops.call(data.load_csv, inputs / "portfolio.csv", schema)
        claims = ops.call(data.load_claims_csv, inputs / "claims.csv")
        severity = ops.call(data.severity_view, dataset, claims)
        freq = ops.call(
            pipeline.run_pipeline,
            self._config(state, self.freq_families, FREQ, outdir / "freq"),
            dataset,
        )
        sev = ops.call(
            pipeline.run_pipeline,
            self._config(state, self.sev_families, SEV, outdir / "sev"),
            severity,
        )
        return {"dataset": dataset, "freq": freq, "sev": sev, "outdir": outdir}

    def check(self, state, out, ops: Ops):
        fingerprint = {}
        for key, families in (("freq", self.freq_families), ("sev", self.sev_families)):
            table = out["outdir"] / key / "loss_table.csv"
            _check_loss_table(ops, _read_loss_table(table), families, range(6), f"{key} loss table")
            for family, pred in out[key]["predictions"].items():
                ops.check(_positive(pred), f"{key} {family} out-of-sample predictions finite and > 0")
            fingerprint[f"{key}/loss_table.csv"] = table.read_bytes()
        ds = out["dataset"]
        y, e = ds.response, ds.exposure
        ratios = {
            family: deviance_ratio(pred, state["true_rate"], y, e)
            for family, pred in out["freq"]["predictions"].items()
            if _positive(pred)
        }
        return fingerprint, min(ratios.values()) if ratios else float("nan")


# -- fold-gbm -------------------------------------------------------------


class FoldGbm:
    """Outer fold 0 of the desk protocol through the pipeline's per-fold
    functions. The GBM tuning grid does the work."""

    name = "fold-gbm"

    def setup(self, seed: int, workdir: Path):
        portfolio = data.generate_synthetic_portfolio(SPEC, seed=seed)
        return {"dataset": portfolio.dataset, "true_rate": portfolio.true_rate}

    def run(self, state, outdir: Path, ops: Ops):
        ds, seed = state["dataset"], PROGRAM_SEED
        desk = pipeline.PRESETS["desk"]
        plan = ops.call(data.stratified_folds, ds, seed=derive_seed(seed, "folds"))
        train, test = plan.train_rows(FOLD), plan.test_rows(FOLD)
        models = {"glm": ops.call(pipeline.fit_fold_glm, ds, FREQ, train, FOLD)}
        models["gbm"] = ops.call(pipeline.fit_fold_gbm, ds, FREQ, plan, FOLD, desk, seed)
        ctx = ops.call(pipeline.build_fold_context, ds, FREQ, plan, FOLD, desk, seed)
        models["cann_gbm_fixed"] = ops.call(
            pipeline.fit_fold_network, ctx, ds, FREQ, plan, desk,
            derive_seed(seed, "cann_gbm_fixed"), "fixed", models["gbm"],
        )
        held_out = ops.call(ds.subset, test)
        predictions, losses = {}, []
        for name, model in models.items():
            predictions[name] = ops.call(model.predict, held_out)
            deviance = ops.call(pipeline.fold_deviance, predictions[name], ds, test, FREQ)
            losses.append({"model": name, "fold": FOLD, "deviance": deviance})
        return {"test": test, "models": models, "predictions": predictions, "losses": losses}

    def check(self, state, out, ops: Ops):
        _check_loss_table(ops, out["losses"], out["models"], [FOLD], "fold loss table")
        for name, pred in out["predictions"].items():
            ops.check(_positive(pred), f"{name} held-out predictions finite and > 0")
        fingerprint = {
            "losses": repr([(r["model"], r["deviance"]) for r in out["losses"]]),
            "gbm_tuned": repr(out["models"]["gbm"].tuned),
            "network_spec": repr(out["models"]["cann_gbm_fixed"].spec),
        }
        ds, test = state["dataset"], out["test"]
        ratio = deviance_ratio(
            out["predictions"]["gbm"], state["true_rate"][test], ds.response[test], ds.exposure[test]
        )
        return fingerprint, ratio


# -- distill-price --------------------------------------------------------


def _book_losses(portfolio) -> np.ndarray:
    losses = np.zeros(portfolio.dataset.n)
    for row, amounts in portfolio.claims.items():
        losses[row] = float(np.sum(amounts))
    return losses


def _selection(result) -> str:
    segments = {
        v: {"labels": list(s.labels), "cuts": list(s.cuts), "levels": list(s.level_to_segment)}
        for v, s in sorted(result.segments.items())
    }
    return json.dumps({"selected": result.report["selected"], "segments": segments}, sort_keys=True)


class DistillPrice:
    """Importance, surrogate distillation, tariffs and evaluation on
    models fitted during set-up. GBM prediction, partial dependence and
    the surrogate's GLM search do the work; nothing is fitted but the
    surrogate GLMs.

    The models are fitted on the P6k drawn at `PROGRAM_SEED`, the same for
    every workload seed; the workload seed draws the renewal book they
    price (at seed + 1). `default_pd_grid` materializes range / smallest
    gap points of the age column before thinning them, and that gap is
    heavy-tailed across draws: over seeds 11-15 the peak RSS ranged from
    359 MB to 2.3 GB. A fixed training portfolio keeps that defect in
    every run at one size, so a fix shows in `peak_rss_mb`."""

    name = "distill-price"

    def setup(self, seed: int, workdir: Path):
        portfolio = data.generate_synthetic_portfolio(SPEC, seed=PROGRAM_SEED)
        ds = portfolio.dataset
        sev = data.severity_view(ds, portfolio.claims)
        plan = data.stratified_folds(ds, seed=derive_seed(PROGRAM_SEED, "folds"))
        train = plan.train_rows(FOLD)
        gbm_seed = derive_seed(PROGRAM_SEED, "gbm", FOLD)
        freq_gbm = gbm.fit_gbm(
            ds.subset(train), FREQ, SETUP_TREES, SETUP_DEPTH, seed=gbm_seed, train_fold=FOLD
        )
        sev_gbm = gbm.fit_gbm(sev, SEV, SETUP_TREES, SETUP_DEPTH, seed=derive_seed(PROGRAM_SEED, "gbm", "sev"))
        freq_glm = pipeline.fit_fold_glm(ds, FREQ, train, FOLD)
        sev_glm = pipeline.fit_fold_glm(sev, SEV, np.arange(sev.n), None)
        book = data.generate_synthetic_portfolio(replace(SPEC, n=BOOK_ROWS), seed=seed + 1)
        return {
            "dataset": ds,
            "severity": sev,
            "freq": {"glm": freq_glm, "gbm": freq_gbm},
            "sev": {"glm": sev_glm, "gbm": sev_gbm},
            "book": book.dataset,
            "book_losses": _book_losses(book),
            "book_true_rate": book.true_rate,
        }

    def run(self, state, outdir: Path, ops: Ops):
        ds, sev, book = state["dataset"], state["severity"], state["book"]
        freq_models, sev_models = dict(state["freq"]), dict(state["sev"])
        vip = ops.call(interpretation.permutation_vip, freq_models["gbm"], ds, seed=PROGRAM_SEED)
        freq_models["surrogate"] = ops.call(surrogate.build_surrogate, freq_models["gbm"], ds, FREQ)
        sev_models["surrogate"] = ops.call(surrogate.build_surrogate, sev_models["gbm"], sev, SEV)
        premiums = {
            name: ops.call(tariff.technical_premium, freq_models[name], sev_models[name], book)
            for name in ("glm", "gbm", "surrogate")
        }
        comparison = ops.call(
            tariff.compare_tariffs,
            {name: p * book.exposure for name, p in premiums.items()},
            state["book_losses"],
        )
        head = ops.call(book.subset, np.arange(EVAL_ROWS))
        y, e = head.response, head.exposure
        rates = {name: ops.call(freq_models[name].predict, head) for name in ("glm", "gbm")}
        losses = {
            name: evaluation.LossVector(
                ops.call(evaluation.poisson_deviance_contributions, rates[name], y, e), name
            )
            for name in rates
        }
        dm = ops.call(evaluation.diebold_mariano, losses["glm"], losses["gbm"])
        expected = {name: rates[name] * e for name in rates}
        thetas = ops.call(
            evaluation.default_theta_grid, np.concatenate([expected["glm"], expected["gbm"]]), y
        )
        curves = {
            name: ops.call(evaluation.murphy_curve, expected[name], y, thetas, name)
            for name in expected
        }
        verdict = ops.call(evaluation.dominance, curves["glm"], curves["gbm"])
        return {
            "vip": vip, "surrogates": (freq_models["surrogate"], sev_models["surrogate"]),
            "premiums": premiums, "comparison": comparison, "rates": rates, "dm": dm,
            "curves": curves, "verdict": verdict,
        }

    def check(self, state, out, ops: Ops):
        vip, relative = out["vip"]
        ops.check(_finite(list(vip.values())) and _finite(list(relative.values())), "finite importances")
        for name, p in out["premiums"].items():
            ops.check(_positive(p), f"{name} premiums finite and > 0")
        for name, r in out["rates"].items():
            ops.check(_positive(r), f"{name} evaluation rates finite and > 0")
        comparison = out["comparison"]
        ops.check(_finite(comparison.gini), "finite Gini matrix")
        ops.check(_finite(list(comparison.balance.values())), "finite balance ratios")
        ops.check(_finite([out["dm"].statistic, out["dm"].p_value]), "finite Diebold-Mariano test")
        for name, curve in out["curves"].items():
            ops.check(_finite(curve.scores), f"{name} Murphy scores finite")
        freq_sur, sev_sur = out["surrogates"]
        fingerprint = {
            "freq_surrogate": _selection(freq_sur),
            "sev_surrogate": _selection(sev_sur),
            "gini": comparison.gini.tobytes(),
            "balance": repr(comparison.balance),
            "selected": comparison.selected,
            "dm": repr(out["dm"]),
            "verdict": out["verdict"],
        }
        book = state["book"]
        rates = freq_sur.predict(book)
        ops.check(_positive(rates), "frequency surrogate rates on the book finite and > 0")
        ratio = deviance_ratio(rates, state["book_true_rate"], book.response, book.exposure)
        return fingerprint, ratio


WORKLOADS = {w.name: w for w in (CvNets(), FoldGbm(), DistillPrice())}
