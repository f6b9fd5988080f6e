"""End-to-end CLI flow on a small synthetic portfolio."""

import csv
import importlib
import inspect
import json
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import freqsev
from freqsev.cli import main
from freqsev.data import load_claims_csv, load_csv, load_schema, severity_view
from freqsev.interpretation import partial_dependence
from freqsev.pipeline import load_fold_plan, load_model, save_fold_plan

BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth -> ingest -> folds -> run (glm, and ffnn on its own) shared by
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
    r = runner.invoke(main, ["run", "--data", paths["data"], "--schema", paths["schema"],
                             "--folds", paths["folds"], "--families", "glm",
                             "--preset", "desk", "--out", paths["train"]])
    assert r.exit_code == 0, r.output
    r = runner.invoke(main, ["run", "--data", paths["data"], "--schema", paths["schema"],
                             "--folds", paths["folds"], "--families", "ffnn",
                             "--preset", "desk", "--out", str(root / "train_ffnn")])
    assert r.exit_code == 0, r.output
    return paths


def assert_lines_end_in_lf(directory):
    """Every CSV file under `directory` ends its lines with LF alone."""
    written = sorted(Path(directory).rglob("*.csv"))
    assert written
    for path in written:
        assert b"\r" not in path.read_bytes(), path


def test_synth_and_ingest(workspace, tmp_path):
    for key in ("data", "schema", "claims"):
        assert os.path.exists(workspace[key])
    assert_lines_end_in_lf(Path(workspace["data"]).parent)
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


def test_evaluate_one_row_is_a_usage_error(workspace, tmp_path):
    pred = tmp_path / "one_row.csv"
    pred.write_text("row,prediction\n0,0.1\n")
    r = CliRunner().invoke(main, ["evaluate", "--data", workspace["data"],
                                  "--schema", workspace["schema"], "--pred-a", str(pred),
                                  "--pred-b", str(pred), "--out", str(tmp_path / "dm.json")])
    assert r.exit_code == 1
    assert "at least 2 observations" in r.output



def test_one_column_prediction_file_is_a_one_line_error(workspace, tmp_path):
    """A file without row indices cannot say which rows it predicts."""
    oos = os.path.join(workspace["train"], "oos_predictions_glm.csv")
    pred = tmp_path / "one_column.csv"
    pred.write_text("prediction\n0.1\n0.2\n")
    message = f"Error: {pred}: a prediction file needs a row index and a prediction column\n"
    r = CliRunner().invoke(main, ["evaluate", "--data", workspace["data"],
                                  "--schema", workspace["schema"], "--pred-a", oos,
                                  "--pred-b", str(pred), "--out", str(tmp_path / "dm.json")])
    assert r.exit_code == 1
    assert r.output == message
    r = CliRunner().invoke(main, ["tariff", "--premiums", f"glm={pred}", "--losses", oos,
                                  "--out", str(tmp_path / "tariff")])
    assert r.exit_code == 1
    assert r.output == message

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
    assert_lines_end_in_lf(out)


@pytest.mark.parametrize("trained", ["glm", "ffnn"])
def test_surrogate_command(workspace, tmp_path, trained):
    runner = CliRunner()
    model = workspace["models"][trained]
    out = tmp_path / "surrogate"
    r = runner.invoke(main, ["surrogate", "--data", workspace["data"],
                             "--schema", workspace["schema"], "--model", model,
                             "--out", str(out)])
    assert r.exit_code == 0, r.output
    assert sorted(p.name for p in out.iterdir()) == ["model.json", "report.txt", "tariff.json"]
    surrogate = load_model(out / "model.json")
    assert json.loads((out / "tariff.json").read_text()) == surrogate.tariff_table
    assert (out / "report.txt").read_text().startswith("surrogate GLM selection report")
    r = runner.invoke(main, ["interpret", "--data", workspace["data"],
                             "--schema", workspace["schema"], "--model", str(out / "model.json"),
                             "--out", str(tmp_path / "interp")])
    assert r.exit_code == 0, r.output


def test_severity_evaluate_and_surrogate(workspace, tmp_path):
    runner = CliRunner()
    inputs = ["--data", workspace["data"], "--schema", workspace["schema"],
              "--claims", workspace["claims"]]
    train = tmp_path / "train"
    r = runner.invoke(main, ["run", *inputs, "--families", "glm",
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
    assert load_model(tmp_path / "surrogate" / "model.json").family == "gamma_log"


def test_severity_interpret_uses_claimant_rows(workspace, tmp_path):
    runner = CliRunner()
    inputs = ["--data", workspace["data"], "--schema", workspace["schema"]]
    train = tmp_path / "train"
    r = runner.invoke(main, ["run", *inputs, "--claims", workspace["claims"],
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
    assert_lines_end_in_lf(out)


@pytest.mark.parametrize("names, bad", [(("glm", "glm"), "glm"), (("glm", ""), "")],
                         ids=["repeated", "empty"])
def test_tariff_premium_name_repeated_or_empty_is_a_one_line_error(workspace, tmp_path, names,
                                                                   bad):
    oos = os.path.join(workspace["train"], "oos_predictions_glm.csv")
    args = [arg for name in names for arg in ("--premiums", f"{name}={oos}")]
    r = CliRunner().invoke(main, ["tariff", *args, "--losses", oos, "--out", str(tmp_path / "t")])
    assert r.exit_code == 1
    assert r.output == f"Error: --premiums needs a non-empty NAME, each once; got {bad!r}\n"
    assert not (tmp_path / "t").exists()


def test_non_finite_premium_file_is_a_one_line_error(workspace, tmp_path):
    oos = os.path.join(workspace["train"], "oos_predictions_glm.csv")
    pred = tmp_path / "nan.csv"
    pred.write_text("row_index,prediction\n0,0.1\n1,nan\n")
    losses = tmp_path / "losses.csv"
    losses.write_text("row_index,loss\n0,1.0\n1,2.0\n")
    r = CliRunner().invoke(main, ["tariff", "--premiums", f"glm={pred}", "--losses",
                                  str(losses), "--out", str(tmp_path / "tariff")])
    assert r.exit_code == 1
    assert r.output == "Error: premiums of 'glm' must be finite\n"


def test_data_errors_are_one_line_errors(workspace, tmp_path):
    oos = os.path.join(workspace["train"], "oos_predictions_glm.csv")
    r = CliRunner().invoke(main, ["tariff", "--premiums", f"glm,v2={oos}", "--premiums",
                                  f"glm={oos}", "--losses", oos, "--out", str(tmp_path)])
    assert r.exit_code == 1
    assert r.output == (f"Error: {tmp_path / 'gini.csv'}: "
                        "a cell holds a comma, a quote or a line break\n")
    schema = tmp_path / "schema.txt"
    schema.write_text(Path(workspace["schema"]).read_text() + "n:claim_count\n")
    r = CliRunner().invoke(main, ["ingest", "--data", workspace["data"], "--schema", str(schema),
                                  "--out", str(tmp_path / "summary.json")])
    assert r.exit_code == 1
    assert r.output == "Error: unknown column kind 'claim_count' for 'n'\n"


def test_missing_artifact_names_producing_stage(workspace, tmp_path):
    runner = CliRunner()
    r = runner.invoke(main, ["run", "--data", workspace["data"],
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


@pytest.mark.parametrize("command", ["interpret", "surrogate"])
def test_malformed_model_is_a_one_line_error(workspace, tmp_path, command):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"kind": "gbm", "family": "poisson_log"}), encoding="utf-8")
    r = CliRunner().invoke(main, [command, "--data", workspace["data"],
                                  "--schema", workspace["schema"], "--model", str(model),
                                  "--out", str(tmp_path / "out")])
    assert r.exit_code == 1
    assert r.output == f"Error: {model} is not a complete 'gbm' model: KeyError: 'trees'\n"


def test_fold_plan_of_another_length_is_a_one_line_error(workspace, tmp_path):
    plan = load_fold_plan(workspace["folds"])
    short = tmp_path / "folds.json"
    save_fold_plan(replace(plan, outer=plan.outer[:500], strat_key=plan.strat_key[:500]), short)
    r = CliRunner().invoke(main, ["run", "--data", workspace["data"],
                                  "--schema", workspace["schema"], "--folds", str(short),
                                  "--families", "glm", "--out", str(tmp_path / "train")])
    assert r.exit_code == 1
    assert r.output == "Error: the fold plan assigns 500 rows, the dataset has 800\n"


def test_fold_plan_label_out_of_range_is_a_one_line_error(workspace, tmp_path):
    plan = load_fold_plan(workspace["folds"])
    outer = plan.outer.copy()
    outer[0] = plan.k_outer
    bad = tmp_path / "folds.json"
    save_fold_plan(replace(plan, outer=outer), bad)
    r = CliRunner().invoke(main, ["run", "--data", workspace["data"],
                                  "--schema", workspace["schema"], "--folds", str(bad),
                                  "--families", "glm", "--out", str(tmp_path / "train")])
    assert r.exit_code == 1
    assert r.output == f"Error: {bad}: outer labels must be integers in 0..5\n"


def test_run_config_that_is_not_json_is_a_one_line_error(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{families: glm}", encoding="utf-8")
    r = CliRunner().invoke(main, ["run", "--config", str(path)])
    assert r.exit_code == 1
    assert r.output.startswith(f"Error: {path} is not JSON: ")
    assert len(r.output.splitlines()) == 1


@pytest.mark.parametrize("text", ["5", '["glm"]'], ids=["number", "list"])
def test_run_config_that_is_not_an_object_is_a_one_line_error(tmp_path, text):
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    r = CliRunner().invoke(main, ["run", "--config", str(path)])
    assert r.exit_code == 1
    assert r.output == f"Error: {path} is not a JSON object of RunConfig fields\n"


def test_run_config_families_string_is_a_one_line_error(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"families": "glm"}), encoding="utf-8")
    r = CliRunner().invoke(main, ["run", "--config", str(path)])
    assert r.exit_code == 1
    assert r.output == f"Error: {path}: families must be a list of strings, got 'glm'\n"


@pytest.mark.parametrize("families", [["glm", "glm"], []], ids=["repeated", "empty"])
def test_run_config_families_repeated_or_empty_is_a_one_line_error(tmp_path, families):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"families": families}), encoding="utf-8")
    r = CliRunner().invoke(main, ["run", "--config", str(path)])
    assert r.exit_code == 1
    assert r.output == ("Error: families must name one or more model families, each once; "
                        f"got {families}\n")


def test_run_config_typo_is_a_one_line_error(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"familes": ["glm"]}), encoding="utf-8")
    r = CliRunner().invoke(main, ["run", "--config", str(path)])
    assert r.exit_code == 1
    assert r.output.startswith("Error: unknown config keys ['familes']; accepted keys: [")
    assert len(r.output.splitlines()) == 1


# Each case: the command, the bad file's role and content, and the message
# after `Error: `, where {bad} is the bad file and {losses} the loss file.
BAD_FILES = {
    "row index abc": ("evaluate", "pred", "row_index,prediction\nabc,0.1\n",
                      "{bad}: row 1: invalid literal for int() with base 10: 'abc'"),
    "short line": ("tariff", "pred", "row_index,prediction\n0,0.1\n0\n",
                   "{bad}: line 3 has 1 cells, the header 2"),
    "row index 900": ("evaluate", "pred", "row_index,prediction\n0,0.1\n900,0.2\n",
                      "{bad}: row indices must lie in 0..799"),
    "row index -1": ("evaluate", "pred", "row_index,prediction\n0,0.1\n-1,0.2\n",
                     "{bad}: row indices must lie in 0..799"),
    "duplicate row index": ("evaluate", "pred", "row_index,prediction\n3,0.1\n3,0.2\n",
                            "{bad}: row index 3 is listed twice"),
    "duplicate premium row index": ("tariff", "pred", "row_index,prediction\n0,0.1\n0,0.2\n",
                                    "{bad}: row index 0 is listed twice"),
    "premiums for other rows": ("tariff", "pred", "row_index,prediction\n1,0.1\n0,0.2\n",
                                "{bad} and {losses} cover different rows"),
    "claim amount abc": ("run", "claims", "row_id,amount\n3,10.0\n4,abc\n",
                         "{bad}: row 2: could not convert string to float: 'abc'"),
    "claim amount nan": ("run", "claims", "row_id,amount\n3,10.0\n4,nan\n",
                         "{bad}: row 2: non-finite amount nan"),
    "claim of row 99999": ("run", "claims", "row_id,amount\n3,10.0\n99999,5.0\n",
                           "claims name rows [99999] outside the 800-row portfolio"),
}


@pytest.mark.parametrize("case", BAD_FILES)
def test_bad_input_file_is_a_one_line_error(workspace, tmp_path, case):
    command, role, content, message = BAD_FILES[case]
    bad, losses = tmp_path / "bad.csv", tmp_path / "losses.csv"
    bad.write_text(content)
    losses.write_text("row_index,loss\n0,1.0\n1,2.0\n")
    inputs = ["--data", workspace["data"], "--schema", workspace["schema"]]
    argv = {
        "evaluate": ["evaluate", *inputs, "--pred-a", str(bad), "--pred-b", str(bad),
                     "--out", str(tmp_path / "dm.json")],
        "tariff": ["tariff", "--premiums", f"glm={bad}", "--losses", str(losses),
                   "--out", str(tmp_path / "tariff")],
        "run": ["run", *inputs, "--claims", str(bad), "--response-family", "gamma_log",
                "--families", "glm", "--out", str(tmp_path / "run")],
    }[command]
    r = CliRunner().invoke(main, argv)
    assert r.exit_code == 1
    assert r.output == f"Error: {message.format(bad=bad, losses=losses)}\n"


def test_non_finite_portfolio_value_is_a_one_line_error(workspace, tmp_path):
    lines = Path(workspace["data"]).read_text().splitlines(keepends=True)
    age = lines[0].rstrip("\n").split(",").index("age")
    cells = lines[3].split(",")
    cells[age] = "nan"
    lines[3] = ",".join(cells)
    bad = tmp_path / "portfolio.csv"
    bad.write_text("".join(lines))
    r = CliRunner().invoke(main, ["run", "--data", str(bad), "--schema", workspace["schema"],
                                  "--families", "glm", "--out", str(tmp_path / "run")])
    assert r.exit_code == 1
    assert r.output == "Error: non-finite value nan for 'age' in row 3\n"


def test_negative_claim_count_is_a_one_line_error(workspace, tmp_path):
    lines = Path(workspace["data"]).read_text().splitlines(keepends=True)[:201]
    count = lines[0].rstrip("\n").split(",").index("claim_count")
    cells = lines[5].rstrip("\n").split(",")
    cells[count] = "-1"
    lines[5] = ",".join(cells) + "\n"
    bad = tmp_path / "portfolio.csv"
    bad.write_text("".join(lines))
    r = CliRunner().invoke(main, ["ingest", "--data", str(bad), "--schema", workspace["schema"],
                                  "--out", str(tmp_path / "summary.json")])
    assert r.exit_code == 1
    assert r.output == "Error: negative response -1.0 for 'claim_count' in row 5\n"
    assert not (tmp_path / "summary.json").exists()


def test_a_run_pins_blas_to_one_thread_when_the_environment_does_not(workspace, tmp_path):
    """A seeded network run writes the same bytes with the BLAS thread
    variables unset as with them set to 1; on this 800-row portfolio more
    threads change the networks' bytes, so the package must pin them."""
    paths = [str(Path(freqsev.__file__).resolve().parents[1])]
    trees = []
    for threads in (None, "1"):
        env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
        env.update(dict.fromkeys(BLAS_VARIABLES, threads) if threads else {},
                   PYTHONPATH=os.pathsep.join(paths))
        out = tmp_path / f"threads_{threads}"
        r = subprocess.run([sys.executable, "-m", "freqsev.cli", "run", "--data", workspace["data"],
                            "--schema", workspace["schema"], "--families", "ffnn", "--seed", "1",
                            "--out", str(out)], env=env, capture_output=True, text=True,
                           timeout=300)
        assert r.returncode == 0, r.stderr
        trees.append({p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*"))
                      if p.is_file()})
    assert len(trees[0]) == 6 * 2 + 2
    assert trees[0] == trees[1]


@pytest.mark.parametrize("command", ["synth", "folds", "run", "interpret"])
def test_negative_seed_is_a_usage_error(workspace, tmp_path, command):
    inputs = ["--data", workspace["data"], "--schema", workspace["schema"]]
    argv = {
        "synth": ["synth"],
        "folds": ["folds", *inputs],
        "run": ["run", *inputs, "--families", "glm"],
        "interpret": ["interpret", *inputs, "--model", workspace["models"]["glm"]],
    }[command]
    r = CliRunner().invoke(main, [*argv, "--seed", "-1", "--out", str(tmp_path / "out")])
    assert r.exit_code == 2
    assert r.output.endswith("Error: Invalid value for '--seed': -1 is not in the range x>=0.\n")
    assert not (tmp_path / "out").exists()


def test_interpret_on_a_portfolio_without_rows_is_a_one_line_error(workspace, tmp_path):
    empty = tmp_path / "portfolio.csv"
    empty.write_text(Path(workspace["data"]).read_text().splitlines()[0] + "\n")
    r = CliRunner().invoke(main, ["interpret", "--data", str(empty),
                                  "--schema", workspace["schema"],
                                  "--model", workspace["models"]["glm"],
                                  "--out", str(tmp_path / "interp")])
    assert r.exit_code == 1
    assert r.output == "Error: cannot compute partial dependence on an empty dataset\n"


def test_every_freqsev_error_is_a_one_line_error(monkeypatch):
    """Each exception class a freqsev module defines, raised inside a
    command, ends it with a one-line `Error:` and exit code 1."""
    errors = [cls for info in pkgutil.iter_modules(freqsev.__path__)
              for _, cls in inspect.getmembers(importlib.import_module(f"freqsev.{info.name}"),
                                               inspect.isclass)
              if issubclass(cls, Exception) and cls.__module__ == f"freqsev.{info.name}"]
    assert len(errors) >= 10
    for cls in errors:
        def fail(**params):
            raise cls("the message")

        monkeypatch.setattr(main.commands["synth"], "callback", fail)
        r = CliRunner().invoke(main, ["synth", "--out", "unused"])
        assert (r.exit_code, r.output) == (1, "Error: the message\n"), cls


def test_run_from_config_and_from_flags_write_the_same_bytes(workspace, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "data_path": workspace["data"], "schema_path": workspace["schema"],
        "claims_path": workspace["claims"], "seed": 3, "families": ["glm"],
        "preset": "desk", "outdir": str(tmp_path / "from_config"),
        "response_family": "gamma_log"}), encoding="utf-8")
    runner = CliRunner()
    r = runner.invoke(main, ["run", "--config", str(config)])
    assert r.exit_code == 0, r.output
    r = runner.invoke(main, ["run", "--data", workspace["data"], "--schema", workspace["schema"],
                             "--claims", workspace["claims"], "--seed", "3", "--families", "glm",
                             "--preset", "desk", "--response-family", "gamma_log",
                             "--out", str(tmp_path / "from_flags")])
    assert r.exit_code == 0, r.output
    trees = [{p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}
             for root in (tmp_path / "from_config", tmp_path / "from_flags")]
    assert len(trees[0]) == 6 * 2 + 2
    assert trees[0] == trees[1]
    r = runner.invoke(main, ["run", "--data", workspace["data"], "--out", str(tmp_path / "x")])
    assert r.exit_code == 1
    assert r.output == "Error: run needs --config, or --data and --schema\n"
