"""End-to-end CLI flow on a small synthetic portfolio."""

import csv
import json
import os
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from freqsev.cli import main
from freqsev.data import load_claims_csv, load_csv, load_schema, severity_view
from freqsev.interpretation import partial_dependence
from freqsev.pipeline import load_model


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth -> ingest -> folds -> train (glm, and ffnn on its own) shared by
    the CLI tests; `models` holds a fold-0 model.json of each."""
    root = tmp_path_factory.mktemp("cli")
    runner = CliRunner()
    data_dir = root / "data"
    r = runner.invoke(main, ["synth", "--rows", "800", "--seed", "1", "--out", str(data_dir)])
    assert r.exit_code == 0, r.output
    paths = {
        "root": root,
        "data": str(data_dir / "portfolio.csv"),
        "schema": str(data_dir / "schema.txt"),
        "claims": str(data_dir / "claims.csv"),
        "folds": str(root / "folds.json"),
        "train": str(root / "train"),
        "models": {"glm": str(root / "train" / "fold_0" / "glm" / "model.json"),
                   "ffnn": str(root / "train_ffnn" / "fold_0" / "ffnn" / "model.json")},
    }
    r = runner.invoke(main, ["folds", "--data", paths["data"], "--schema", paths["schema"],
                             "--out", paths["folds"]])
    assert r.exit_code == 0, r.output
    r = runner.invoke(main, ["train", "--data", paths["data"], "--schema", paths["schema"],
                             "--folds", paths["folds"], "--families", "glm",
                             "--preset", "desk", "--out", paths["train"]])
    assert r.exit_code == 0, r.output
    r = runner.invoke(main, ["train", "--data", paths["data"], "--schema", paths["schema"],
                             "--folds", paths["folds"], "--families", "ffnn",
                             "--preset", "desk", "--out", str(root / "train_ffnn")])
    assert r.exit_code == 0, r.output
    return paths


def test_synth_and_ingest(workspace, tmp_path):
    for key in ("data", "schema", "claims"):
        assert os.path.exists(workspace[key])
    runner = CliRunner()
    out = tmp_path / "summary.json"
    r = runner.invoke(main, ["ingest", "--data", workspace["data"],
                             "--schema", workspace["schema"], "--out", str(out)])
    assert r.exit_code == 0, r.output
    summary = json.loads(out.read_text())
    assert summary["rows"] == 800
    assert summary["total_exposure"] > 0


def test_train_artifacts(workspace):
    train = workspace["train"]
    assert os.path.exists(os.path.join(train, "loss_table.csv"))
    oos = os.path.join(train, "oos_predictions_glm.csv")
    assert os.path.exists(oos)
    with open(os.path.join(train, "loss_table.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["model"] for r in rows} == {"glm"}
    assert len(rows) == 6
    assert all(float(r["deviance"]) > 0 for r in rows)
    for fold in range(6):
        assert os.path.exists(os.path.join(train, f"fold_{fold}", "glm", "model.json"))


def test_oos_predictions_cover_all_rows(workspace):
    with open(os.path.join(workspace["train"], "oos_predictions_glm.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    indices = sorted(int(r["row_index"]) for r in rows)
    assert indices == list(range(800))
    assert all(float(r["prediction"]) > 0 for r in rows)


def test_evaluate_identical_predictions(workspace, tmp_path):
    runner = CliRunner()
    oos = os.path.join(workspace["train"], "oos_predictions_glm.csv")
    out = tmp_path / "dm.json"
    r = runner.invoke(main, ["evaluate", "--data", workspace["data"],
                             "--schema", workspace["schema"],
                             "--pred-a", oos, "--pred-b", oos, "--out", str(out)])
    assert r.exit_code == 0, r.output
    verdict = json.loads(out.read_text())["A_vs_B"]["verdict"]
    assert verdict == "identical"


# The desk ffnn of fold 0 keeps its start weights here (early stopping found
# no better epoch on these 800 rows), so it predicts a constant and every
# importance is 0; a glm's relative importances sum to 1.
@pytest.mark.parametrize("trained, vip_total", [("glm", 1.0), ("ffnn", 0.0)], ids=["glm", "ffnn"])
def test_interpret_outputs(workspace, tmp_path, trained, vip_total):
    runner = CliRunner()
    model = workspace["models"][trained]
    out = tmp_path / "interp"
    r = runner.invoke(main, ["interpret", "--data", workspace["data"],
                             "--schema", workspace["schema"], "--model", model,
                             "--out", str(out)])
    assert r.exit_code == 0, r.output
    with open(out / "vip.csv", newline="") as fh:
        vip_rows = list(csv.DictReader(fh))
    assert {r["variable"] for r in vip_rows} == {"age", "region", "cover"}
    assert abs(sum(float(r["relative_vip"]) for r in vip_rows) - vip_total) < 1e-9
    with open(out / "pd.csv", newline="") as fh:
        pd_rows = list(csv.DictReader(fh))
    region = [r for r in pd_rows if r["variable"] == "region"]
    assert [r["label"] for r in region] == ["north", "south", "east"]
    assert all(float(r["pd"]) > 0 for r in pd_rows)


@pytest.mark.parametrize("trained", ["glm", "ffnn"])
def test_surrogate_command(workspace, tmp_path, trained):
    runner = CliRunner()
    model = workspace["models"][trained]
    out = tmp_path / "surrogate"
    r = runner.invoke(main, ["surrogate", "--data", workspace["data"],
                             "--schema", workspace["schema"], "--model", model,
                             "--out", str(out)])
    assert r.exit_code == 0, r.output
    payload = json.loads((out / "surrogate.json").read_text())
    assert "glm" in payload and "tariff" in payload
    assert (out / "report.txt").read_text().startswith("surrogate GLM selection report")


def test_severity_evaluate_and_surrogate(workspace, tmp_path):
    runner = CliRunner()
    inputs = ["--data", workspace["data"], "--schema", workspace["schema"],
              "--claims", workspace["claims"]]
    train = tmp_path / "train"
    r = runner.invoke(main, ["train", *inputs, "--families", "glm",
                             "--response-family", "gamma_log", "--out", str(train)])
    assert r.exit_code == 0, r.output
    oos = str(train / "oos_predictions_glm.csv")
    with open(oos, newline="") as fh:
        rows = list(csv.DictReader(fh))
    shifted = tmp_path / "shifted.csv"
    with open(shifted, "w", newline="") as fh:
        fh.write("row_index,prediction\n")
        fh.writelines(f"{r['row_index']},{1.2 * float(r['prediction'])!r}\n" for r in rows)
    out = tmp_path / "dm.json"
    r = runner.invoke(main, ["evaluate", *inputs, "--family", "gamma_log",
                             "--pred-a", str(shifted), "--pred-b", oos, "--out", str(out)])
    assert r.exit_code == 0, r.output
    result = json.loads(out.read_text())["A_vs_B"]
    assert result["verdict"] in ("reject", "no_reject")
    assert np.isfinite(result["statistic"])
    r = runner.invoke(main, ["surrogate", *inputs,
                             "--model", str(train / "fold_0" / "glm" / "model.json"),
                             "--out", str(tmp_path / "surrogate")])
    assert r.exit_code == 0, r.output
    payload = json.loads((tmp_path / "surrogate" / "surrogate.json").read_text())
    assert payload["glm"]["family"] == "gamma_log"


def test_severity_interpret_uses_claimant_rows(workspace, tmp_path):
    runner = CliRunner()
    inputs = ["--data", workspace["data"], "--schema", workspace["schema"]]
    train = tmp_path / "train"
    r = runner.invoke(main, ["train", *inputs, "--claims", workspace["claims"],
                             "--families", "glm", "--response-family", "gamma_log",
                             "--out", str(train)])
    assert r.exit_code == 0, r.output
    model = str(train / "fold_0" / "glm" / "model.json")
    out = tmp_path / "interp"
    r = runner.invoke(main, ["interpret", *inputs, "--model", model, "--out", str(out)])
    assert r.exit_code != 0
    assert "severity modeling needs --claims" in r.output
    r = runner.invoke(main, ["interpret", *inputs, "--claims", workspace["claims"],
                             "--model", model, "--out", str(out)])
    assert r.exit_code == 0, r.output
    with open(out / "vip.csv", newline="") as fh:
        assert {r["variable"] for r in csv.DictReader(fh)} == {"age", "region", "cover"}
    with open(out / "pd.csv", newline="") as fh:
        pd_rows = list(csv.DictReader(fh))
    assert all(float(r["pd"]) > 0 for r in pd_rows)
    # the PD averages over the claimants, not over every policy
    claimants = severity_view(load_csv(workspace["data"], load_schema(workspace["schema"])),
                              load_claims_csv(workspace["claims"]))
    expected = partial_dependence(load_model(model), claimants, "cover").values
    written = [float(r["pd"]) for r in pd_rows if r["variable"] == "cover"]
    np.testing.assert_array_equal(written, expected)


def test_readme_commands_parse():
    """Every `freqsev` line of the README's shell examples, joined across
    backslash continuations, parses against the CLI as it is."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = []
    for block in re.findall(r"```sh\n(.*?)```", readme, flags=re.S):
        lines += block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.startswith("freqsev ")]
    assert {argv[1] for argv in commands} == set(main.commands)
    for _, command, *args in commands:
        main.commands[command].make_context(command, args)


def test_tariff_command(workspace, tmp_path):
    runner = CliRunner()
    oos = os.path.join(workspace["train"], "oos_predictions_glm.csv")
    out = tmp_path / "tariff"
    r = runner.invoke(main, ["tariff", "--premiums", f"glm={oos}",
                             "--premiums", f"copy={oos}", "--losses", oos,
                             "--out", str(out)])
    assert r.exit_code == 0, r.output
    with open(out / "gini.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["benchmark"] for r in rows] == ["glm", "copy"]
    # identical premium vectors: every pairwise Gini is zero
    assert all(abs(float(r["glm"])) < 1e-12 and abs(float(r["copy"])) < 1e-12 for r in rows)
    assert os.path.exists(out / "balance.csv") and os.path.exists(out / "lorenz.csv")


def test_missing_artifact_names_producing_stage(workspace, tmp_path):
    runner = CliRunner()
    r = runner.invoke(main, ["train", "--data", workspace["data"],
                             "--schema", workspace["schema"],
                             "--folds", str(tmp_path / "nope.json"),
                             "--out", str(tmp_path / "train")])
    assert r.exit_code != 0
    assert "missing artifact" in r.output and "folds" in r.output

    r = runner.invoke(main, ["ingest", "--data", str(tmp_path / "nope.csv"),
                             "--schema", workspace["schema"],
                             "--out", str(tmp_path / "summary.json")])
    assert r.exit_code != 0
    assert "missing artifact" in r.output and "synth" in r.output


def test_run_config_typo_is_a_one_line_error(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"familes": ["glm"]}), encoding="utf-8")
    r = CliRunner().invoke(main, ["run", "--config", str(path)])
    assert r.exit_code == 1
    assert r.output.startswith("Error: unknown config keys ['familes']; accepted keys: [")
    assert len(r.output.splitlines()) == 1
