"""Command line driver: option resolution, the four commands, exit codes.

Commands run in-process through cli.main so coverage and tracebacks
work; one test shells out to the installed entry point.
"""

import contextlib
import io
import json
import shutil
import subprocess
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest

from fedvra.cli import _round_log_line, _write_lines, load_config_file, main, resolve_options
from fedvra.data import (
    AdmissionRecord,
    load_records,
    load_split_plan,
    save_records,
    verify_split_plan,
)
from fedvra.federated import RoundLog
from fedvra.network import INPUT_DIM

BASE_TS = datetime(2019, 3, 1, tzinfo=timezone.utc)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def record(pid, ward, hours, label=0):
    return AdmissionRecord(
        patient_id=pid,
        ward=ward,
        admission_ts=BASE_TS + timedelta(hours=hours),
        features=np.zeros(INPUT_DIM),
        label=label,
    )


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """One synth -> split -> run -> report pipeline shared by the read-only tests."""
    root = tmp_path_factory.mktemp("chain")
    data = root / "data.jsonl"
    plan = root / "plan.json"
    run_dir = root / "run"
    report_dir = root / "report"
    assert run_cli(
        "synth", "--out", str(data), "--seed", "9", "--n-patients", "40",
        "--class-separation", "2.0", "--positive-rate", "0.3",
    )[0] == 0
    assert run_cli(
        "split", "--data", str(data), "--out", str(plan), "--seed", "9", "--folds", "2",
    )[0] == 0
    assert run_cli(
        "run", "--data", str(data), "--split", str(plan), "--out", str(run_dir),
        "--seed", "9", "--hidden-sizes", "4", "--learning-rates", "0.05",
        "--weight-decays", "0.0001", "--batch-size", "16", "--max-epochs", "3",
        "--patience", "3", "--threads", "2",
    )[0] == 0
    assert run_cli(
        "report", "--run", str(run_dir), "--out", str(report_dir),
        "--seed", "5", "--bootstrap-n", "200",
    )[0] == 0
    return {"root": root, "data": data, "plan": plan, "run": run_dir, "report": report_dir}


def craft_run_dir(root, csv_by_set):
    """Minimal run directory: the same scores for all four treatments."""
    root = Path(root)
    for key in ("a", "b", "federated", "central"):
        tdir = root / key
        tdir.mkdir(parents=True, exist_ok=True)
        for set_name, text in csv_by_set.items():
            (tdir / f"scores_{set_name}.csv").write_text(text)
    return root


# ---------- option plumbing ----------


def test_load_config_file_parses_and_normalises(tmp_path):
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("# comment\n\nn-patients = 30\nseed=11\n")
    assert load_config_file(cfg) == {"n_patients": "30", "seed": "11"}


def test_load_config_file_rejects_bad_line(tmp_path):
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("seed=1\nnot a pair\n")
    with pytest.raises(ValueError, match=":2:"):
        load_config_file(cfg)


def test_resolve_options_error_messages(tmp_path):
    import argparse

    fields = {"n_patients": (int, None, True)}
    with pytest.raises(ValueError, match="--n-patients"):
        resolve_options(argparse.Namespace(), fields)
    ns = argparse.Namespace(n_patients="abc", config=None)
    with pytest.raises(ValueError, match=r"from flag"):
        resolve_options(ns, {"n_patients": (int, None, True)})


def test_main_without_subcommand_prints_help():
    code, out, _ = run_cli()
    assert code == 2
    assert "usage: fedvra" in out


def test_installed_entry_point_reports_version():
    exe = shutil.which("fedvra")
    assert exe, "console script not installed"
    proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("fedvra ")


# ---------- synth ----------


def test_synth_writes_deterministic_dataset(tmp_path):
    args = ["synth", "--seed", "4", "--n-patients", "15"]
    code, out, _ = run_cli(*args, "--out", str(tmp_path / "one.jsonl"))
    assert code == 0
    assert "total" in out
    assert run_cli(*args, "--out", str(tmp_path / "two.jsonl"))[0] == 0
    assert (tmp_path / "one.jsonl").read_bytes() == (tmp_path / "two.jsonl").read_bytes()
    run_cli("synth", "--seed", "5", "--n-patients", "15", "--out", str(tmp_path / "three.jsonl"))
    assert (tmp_path / "one.jsonl").read_bytes() != (tmp_path / "three.jsonl").read_bytes()


def test_synth_rejects_zero_patients(tmp_path):
    code, _, err = run_cli(
        "synth", "--out", str(tmp_path / "d.jsonl"), "--seed", "1", "--n-patients", "0"
    )
    assert code == 2
    assert "n_patients" in err


def test_synth_flags_override_config_file(tmp_path):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("seed=11\nn-patients=30\n")
    from_config = tmp_path / "config.jsonl"
    overridden = tmp_path / "override.jsonl"
    flags_only = tmp_path / "flags.jsonl"
    assert run_cli("synth", "--config", str(cfg), "--out", str(from_config))[0] == 0
    assert run_cli(
        "synth", "--config", str(cfg), "--n-patients", "20", "--out", str(overridden)
    )[0] == 0
    assert run_cli(
        "synth", "--seed", "11", "--n-patients", "20", "--out", str(flags_only)
    )[0] == 0
    assert overridden.read_bytes() == flags_only.read_bytes()
    assert from_config.read_bytes() != overridden.read_bytes()


def test_synth_bad_config_value_names_the_source(tmp_path):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("seed=1\nn_patients=-3\n")
    code, _, err = run_cli("synth", "--config", str(cfg), "--out", str(tmp_path / "d.jsonl"))
    assert code == 2
    assert "config file" in err


# ---------- split ----------


def test_split_outputs_verified_plan(chain):
    records = load_records(chain["data"])
    plan = load_split_plan(chain["plan"])
    assert verify_split_plan(records, plan) == []


def test_split_is_deterministic(chain, tmp_path):
    again = tmp_path / "plan2.json"
    code, out, _ = run_cli(
        "split", "--data", str(chain["data"]), "--out", str(again), "--seed", "9", "--folds", "2"
    )
    assert code == 0
    assert "institution A" in out and "dropped" in out
    assert again.read_bytes() == chain["plan"].read_bytes()


def test_split_drops_train_records_of_test_patients(tmp_path):
    records = [record(f"p{i}", "A2V", hours=i) for i in range(6)]
    records += [record(f"q{i}", "A1", hours=i) for i in range(6)]
    records += [record("px", "A2V", hours=1), record("px", "A2V", hours=50)]
    records += [record("py", "A1", hours=2), record("py", "A1", hours=51)]
    data = tmp_path / "crossing.jsonl"
    save_records(data, records)
    plan_path = tmp_path / "plan.json"
    code, out, _ = run_cli(
        "split", "--data", str(data), "--out", str(plan_path),
        "--seed", "0", "--folds", "2", "--test-fraction", "0.25",
    )
    assert code == 0
    plan = load_split_plan(plan_path)
    assert len(plan.dropped_ids) > 0
    test_patients = {records[i].patient_id for i in plan.test_ids}
    for i in plan.dropped_ids:
        assert records[i].patient_id in test_patients


def test_split_too_few_patients_exits_2(tmp_path):
    data = tmp_path / "tiny.jsonl"
    save_records(data, [record("solo", "A1", hours=h) for h in range(4)])
    code, _, err = run_cli(
        "split", "--data", str(data), "--out", str(tmp_path / "p.json"), "--seed", "0"
    )
    assert code == 2
    assert err.startswith("error:")


def test_split_missing_data_file_exits_2(tmp_path):
    code, _, err = run_cli(
        "split", "--data", str(tmp_path / "absent.jsonl"),
        "--out", str(tmp_path / "p.json"), "--seed", "0",
    )
    assert code == 2


@pytest.mark.parametrize(
    "change",
    [
        lambda rec: list(rec),
        lambda rec: {**rec, "admission_ts": 5},
        lambda rec: {**rec, "ward": ["x"]},
        lambda rec: {**rec, "patient_id": 7},
    ],
    ids=["array", "numeric_admission_ts", "list_ward", "numeric_patient_id"],
)
def test_split_malformed_record_exits_2(chain, tmp_path, change):
    lines = chain["data"].read_text().splitlines()
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines[:3] + [json.dumps(change(json.loads(lines[3])))] + lines[4:]) + "\n")
    code, _, err = run_cli("split", "--data", str(bad), "--out", str(tmp_path / "p.json"), "--seed", "9")
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(bad) in err and "line 4" in err
    assert "Traceback" not in err


# ---------- run ----------

TREATMENT_FILES = {
    "cv_results.json",
    "cv_fits.jsonl",
    "final_model.json",
    "round_logs.jsonl",
    "report_A.json",
    "report_B.json",
    "report_combined.json",
    "scores_A.csv",
    "scores_B.csv",
    "scores_combined.csv",
}


def test_run_writes_all_treatment_outputs(chain):
    assert (chain["run"] / "run_config.json").exists()
    for key in ("a", "b", "federated", "central"):
        tdir = chain["run"] / key
        assert {p.name for p in tdir.iterdir()} == TREATMENT_FILES
        fits = (tdir / "cv_fits.jsonl").read_text().strip().split("\n")
        assert len(fits) == 2  # 1 combo x 2 folds
        report = json.loads((tdir / "report_combined.json").read_text())
        conf = report["confusion"]
        assert conf["tn"] + conf["fp"] + conf["fn"] + conf["tp"] == report["n_records"]


def test_run_refuses_nonempty_dir_without_force(chain, tmp_path):
    copy = tmp_path / "run"
    shutil.copytree(chain["run"], copy)
    args = [
        "run", "--data", str(chain["data"]), "--split", str(chain["plan"]),
        "--out", str(copy), "--seed", "9", "--hidden-sizes", "4",
        "--learning-rates", "0.05", "--weight-decays", "0.0001",
        "--batch-size", "16", "--max-epochs", "3", "--patience", "3",
    ]
    code, _, err = run_cli(*args)
    assert code == 2
    assert "--force" in err
    before = (chain["run"] / "federated" / "final_model.json").read_bytes()
    code, _, _ = run_cli(*args, "--force")
    assert code == 0
    assert (copy / "federated" / "final_model.json").read_bytes() == before
    assert (copy / "central" / "scores_combined.csv").read_bytes() == (
        chain["run"] / "central" / "scores_combined.csv"
    ).read_bytes()


def test_run_single_treatment_only(chain, tmp_path):
    out = tmp_path / "fed_only"
    code, _, _ = run_cli(
        "run", "--data", str(chain["data"]), "--split", str(chain["plan"]),
        "--out", str(out), "--seed", "9", "--treatment", "federated",
        "--hidden-sizes", "4", "--learning-rates", "0.05", "--weight-decays", "0.0001",
        "--batch-size", "16", "--max-epochs", "2", "--patience", "2",
    )
    assert code == 0
    assert {p.name for p in out.iterdir()} == {"run_config.json", "federated"}


def test_run_rejects_unknown_treatment(chain, tmp_path):
    code, _, err = run_cli(
        "run", "--data", str(chain["data"]), "--split", str(chain["plan"]),
        "--out", str(tmp_path / "x"), "--seed", "9", "--treatment", "remote",
    )
    assert code == 2
    assert "treatment" in err


def test_run_corrupted_plan_exits_3(chain, tmp_path):
    plan_data = json.loads(chain["plan"].read_text())
    folded = next(iter(plan_data["fold_of_record"]))
    plan_data["test_ids"].append(int(folded))
    bad = tmp_path / "bad_plan.json"
    bad.write_text(json.dumps(plan_data))
    code, _, err = run_cli(
        "run", "--data", str(chain["data"]), "--split", str(bad),
        "--out", str(tmp_path / "x"), "--seed", "9",
    )
    assert code == 3
    assert err.startswith("error:")


def test_run_plan_missing_key_exits_2(chain, tmp_path):
    plan_data = json.loads(chain["plan"].read_text())
    del plan_data["dropped_ids"]
    bad = tmp_path / "bad_plan.json"
    bad.write_text(json.dumps(plan_data))
    code, _, err = run_cli(
        "run", "--data", str(chain["data"]), "--split", str(bad),
        "--out", str(tmp_path / "x"), "--seed", "9",
    )
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(bad) in err and "dropped_ids" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "key, value",
    [
        ("dropped_ids", 5),
        ("fold_of_record", [1, 2]),
        ("test_ids", [None]),
        ("institution_of_ward", {"A1": ["A"], "A2J": ["B"], "A2V": ["A"], "A3": ["B"]}),
        (None, 5),  # the whole plan is a number
    ],
)
def test_run_plan_wrongly_typed_key_exits_2(chain, tmp_path, key, value):
    plan_data = json.loads(chain["plan"].read_text())
    if key is None:
        plan_data = value
    else:
        plan_data[key] = value
    bad = tmp_path / "bad_plan.json"
    bad.write_text(json.dumps(plan_data))
    code, _, err = run_cli(
        "run", "--data", str(chain["data"]), "--split", str(bad),
        "--out", str(tmp_path / "x"), "--seed", "9",
    )
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(bad) in err and (key or "JSON object") in err
    assert "Traceback" not in err


def test_run_diverging_learning_rate_exits_4(chain, tmp_path):
    code, _, err = run_cli(
        "run", "--data", str(chain["data"]), "--split", str(chain["plan"]),
        "--out", str(tmp_path / "x"), "--seed", "9", "--hidden-sizes", "4",
        "--learning-rates", "1e100", "--weight-decays", "0", "--batch-size", "2",
        "--max-epochs", "2", "--patience", "2",
    )
    assert code == 4
    assert err.startswith("error:") and err.count("\n") == 1
    assert "epoch 0" in err and "overflow" in err
    assert "Traceback" not in err and "RuntimeWarning" not in err


def test_round_log_serialisation(tmp_path):
    log = RoundLog(
        epoch=3,
        lr=0.004,
        train_losses={"B": 0.5, "A": 0.25},
        val_loss=0.75,
        metrics={"f1": 0.5, "roc_auc": None},
    )
    line = _round_log_line(log)
    assert list(json.loads(line)) == ["epoch", "lr", "train_losses", "val_loss", "metrics"]
    assert list(json.loads(line)["train_losses"]) == ["A", "B"]
    path = tmp_path / "rounds.jsonl"
    _write_lines(path, [line, line])
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 2
    assert json.loads(lines[0])["epoch"] == 3
    assert json.loads(lines[1])["metrics"]["roc_auc"] is None


# ---------- report ----------


def test_report_structure(chain):
    payload = json.loads((chain["report"] / "comparison.json").read_text())
    assert (chain["report"] / "comparison.txt").exists()
    for set_name in ("A", "B", "combined"):
        for measure in ("f1", "recall", "precision", "roc_auc", "pr_auc"):
            points = payload["point_estimates"][set_name][measure]
            assert set(points) == {"a", "b", "federated", "central"}
            diffs = payload["differences_vs_federated"][set_name][measure]
            assert set(diffs) == {"a", "b", "central"}
            for key, diff in diffs.items():
                if diff is None:
                    continue
                assert diff["ci_low"] <= diff["mean_diff"] <= diff["ci_high"]
                assert diff["significant"] == (
                    not diff["ci_low"] <= 0.0 <= diff["ci_high"]
                )
        counts = payload["common_agreement"][set_name]
        total = sum(
            counts[k]
            for k in (
                "neg_correct", "neg_wrong", "neg_disagree",
                "pos_correct", "pos_wrong", "pos_disagree",
            )
        )
        conf = payload["confusion"][set_name]["federated"]
        assert total == conf["tn"] + conf["fp"] + conf["fn"] + conf["tp"] > 0
    roc_files = list(chain["report"].glob("roc_*.csv"))
    assert roc_files


def test_report_is_deterministic(chain, tmp_path):
    again = tmp_path / "rep2"
    code, _, _ = run_cli(
        "report", "--run", str(chain["run"]), "--out", str(again),
        "--seed", "5", "--bootstrap-n", "200",
    )
    assert code == 0
    assert (again / "comparison.json").read_bytes() == (
        chain["report"] / "comparison.json"
    ).read_bytes()
    other_seed = tmp_path / "rep3"
    run_cli(
        "report", "--run", str(chain["run"]), "--out", str(other_seed),
        "--seed", "6", "--bootstrap-n", "200",
    )
    assert (other_seed / "comparison.json").read_bytes() != (
        chain["report"] / "comparison.json"
    ).read_bytes()


def test_report_emit_distributions(chain, tmp_path):
    out = tmp_path / "rep"
    code, _, _ = run_cli(
        "report", "--run", str(chain["run"]), "--out", str(out),
        "--seed", "5", "--bootstrap-n", "50", "--emit-distributions",
    )
    assert code == 0
    dists = list(out.glob("dist_*.csv"))
    assert dists
    lines = dists[0].read_text().strip().split("\n")
    assert len(lines) == 50


def test_report_missing_treatment_exits_2(chain, tmp_path):
    partial = tmp_path / "run"
    shutil.copytree(chain["run"], partial)
    shutil.rmtree(partial / "a")
    code, _, err = run_cli(
        "report", "--run", str(partial), "--out", str(tmp_path / "rep"), "--seed", "5"
    )
    assert code == 2
    assert "missing treatment outputs: a" in err


def test_report_record_order_mismatch_exits_2(chain, tmp_path):
    mangled = tmp_path / "run"
    shutil.copytree(chain["run"], mangled)
    path = mangled / "a" / "scores_combined.csv"
    header, first, second, *rest = path.read_text().strip().split("\n")
    path.write_text("\n".join([header, second, first] + rest) + "\n")
    code, _, err = run_cli(
        "report", "--run", str(mangled), "--out", str(tmp_path / "rep"), "--seed", "5"
    )
    assert code == 2
    assert "record order" in err


def test_report_renamed_score_column_exits_2(chain, tmp_path):
    mangled = tmp_path / "run"
    shutil.copytree(chain["run"], mangled)
    path = mangled / "b" / "scores_A.csv"
    header, *rest = path.read_text().split("\n")
    path.write_text("\n".join([header.replace("score", "prob")] + rest))
    code, _, err = run_cli(
        "report", "--run", str(mangled), "--out", str(tmp_path / "rep"), "--seed", "5"
    )
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(path) in err and "score" in err
    assert "Traceback" not in err


def test_report_short_score_row_exits_2(chain, tmp_path):
    mangled = tmp_path / "run"
    shutil.copytree(chain["run"], mangled)
    path = mangled / "a" / "scores_A.csv"
    header, first, *rest = path.read_text().split("\n")
    path.write_text("\n".join([header, ",".join(first.split(",")[:2])] + rest))
    code, _, err = run_cli(
        "report", "--run", str(mangled), "--out", str(tmp_path / "rep"), "--seed", "5"
    )
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(path) in err and "line 2" in err
    assert "Traceback" not in err


def test_report_identical_treatments_have_zero_differences(tmp_path):
    csv_a = "record_id,label,score,prediction\n" + "".join(
        f"{i},{l},{s!r},{int(s >= 0.5)}\n"
        for i, (l, s) in enumerate([(0, 0.1), (1, 0.7), (0, 0.4)])
    )
    csv_b = "record_id,label,score,prediction\n" + "".join(
        f"{i},{l},{s!r},{int(s >= 0.5)}\n"
        for i, (l, s) in enumerate([(1, 0.8), (0, 0.2), (1, 0.3)], start=3)
    )
    rows = csv_a.strip().split("\n")[1:] + csv_b.strip().split("\n")[1:]
    csv_c = "record_id,label,score,prediction\n" + "\n".join(rows) + "\n"
    run_dir = craft_run_dir(tmp_path / "run", {"A": csv_a, "B": csv_b, "combined": csv_c})
    out = tmp_path / "rep"
    code, _, err = run_cli(
        "report", "--run", str(run_dir), "--out", str(out), "--seed", "2",
        "--bootstrap-n", "150",
    )
    assert code == 0, err
    payload = json.loads((out / "comparison.json").read_text())
    seen = 0
    for set_name in ("A", "B", "combined"):
        for measure in ("f1", "recall", "precision", "roc_auc", "pr_auc"):
            for diff in payload["differences_vs_federated"][set_name][measure].values():
                if diff is None:
                    continue
                assert diff["mean_diff"] == 0.0
                assert diff["ci_low"] == 0.0 and diff["ci_high"] == 0.0
                assert diff["significant"] is False
                seen += 1
    assert seen >= 9


def test_report_degenerate_bootstrap_exits_4(tmp_path):
    # two-record combined set: about half of all resamples are single
    # class, so the ROC-AUC bootstrap gives up
    csv_a = "record_id,label,score,prediction\n0,0,0.2,0\n"
    csv_b = "record_id,label,score,prediction\n1,1,0.8,1\n"
    csv_c = "record_id,label,score,prediction\n0,0,0.2,0\n1,1,0.8,1\n"
    run_dir = craft_run_dir(tmp_path / "run", {"A": csv_a, "B": csv_b, "combined": csv_c})
    code, _, err = run_cli(
        "report", "--run", str(run_dir), "--out", str(tmp_path / "rep"),
        "--seed", "3", "--bootstrap-n", "101",
    )
    assert code == 4
    assert "undefined on" in err
