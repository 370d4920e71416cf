"""Command line driver: option resolution, the four commands, exit codes.

Commands run in-process through cli.main so coverage and tracebacks
work; one test shells out to the installed entry point, and a few run
the CLI in a fresh interpreter: to see what a report imports, which
version it reports, and that a run's outputs ignore the BLAS thread
setting of the environment.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import fedvra
from fedvra.cli import (
    _load_scored_sets,
    _render_text_report,
    _round_log_line,
    _write_lines,
    _write_treatment_outputs,
    build_comparison,
    load_config_file,
    main,
    resolve_options,
)
from fedvra.data import load_records, load_split_plan, save_records, verify_split_plan
from fedvra.experiment import HyperCombo, Treatment, TreatmentRun
from fedvra.federated import RoundLog
from fedvra.network import init_model
from params_dict import params_to_dict
from record_rows import record, table


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


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


def cli_process(*argv, cwd=None, blas_threads=None):
    """python -m fedvra.cli in a child whose environment is built here, not
    inherited: the path, the source tree and, if given, OPENBLAS_NUM_THREADS."""
    env = {"PATH": os.environ.get("PATH", ""), "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return subprocess.run([sys.executable, "-m", "fedvra.cli", *argv], cwd=cwd, env=env, capture_output=True, text=True)


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    version = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["version"]
    assert fedvra.__version__ == version
    proc = cli_process("--version")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"fedvra {version}\n"


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


@pytest.mark.parametrize(
    "command, option, value",
    [
        ("synth", "--class-separation", "nan"),
        ("synth", "--ward-shift", "inf"),
        ("run", "--learning-rates", "0.01,inf"),
        ("run", "--weight-decays", "0.1,nan"),
    ],
)
def test_non_finite_option_exits_2_before_writing(tmp_path, command, option, value):
    out = tmp_path / "out"
    common = ["--out", str(out), "--seed", "1"]
    args = ["--n-patients", "10"] if command == "synth" else ["--data", "d.jsonl", "--split", "p.json"]
    code, _, err = run_cli(command, *common, *args, option, value)
    assert code == 2
    assert err.startswith(f"error: bad value for {option[2:].replace('-', '_')} (from flag)") and err.count("\n") == 1
    assert "finite" in err
    assert not out.exists()


def test_config_file_not_utf8_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"seed=1\nn_patients=\xff\n")
    out = tmp_path / "d.jsonl"
    code, _, err = run_cli("synth", "--config", str(cfg), "--out", str(out))
    assert code == 2
    assert err.startswith(f"error: config file {cfg} is not UTF-8:") and err.count("\n") == 1
    assert not out.exists()


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
    records = table(records)
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
    test_patients = {records.patient_id[i] for i in plan.test_ids}
    for i in plan.dropped_ids:
        assert records.patient_id[i] in test_patients


def test_split_too_few_patients_exits_2(tmp_path):
    data = tmp_path / "tiny.jsonl"
    save_records(data, table([record("solo", "A1", hours=h) for h in range(4)]))
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
        lambda rec: json.dumps(rec).replace("A", "\xc4").encode("latin-1"),  # not UTF-8
    ],
    ids=["array", "numeric_admission_ts", "list_ward", "numeric_patient_id", "latin1_bytes"],
)
def test_split_malformed_record_exits_2(chain, tmp_path, change):
    lines = chain["data"].read_bytes().splitlines()
    line = change(json.loads(lines[3]))
    line = line if isinstance(line, bytes) else json.dumps(line).encode()
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b"\n".join(lines[:3] + [line] + lines[4:]) + b"\n")
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


def test_run_fold_renumbered_to_zero_exits_3(chain, tmp_path):
    plan_data = json.loads(chain["plan"].read_text())
    plan_data["fold_of_record"] = {i: 0 if f == 1 else f for i, f in plan_data["fold_of_record"].items()}
    bad = tmp_path / "bad_plan.json"
    bad.write_text(json.dumps(plan_data))
    out = tmp_path / "x"
    code, _, err = run_cli(
        "run", "--data", str(chain["data"]), "--split", str(bad), "--out", str(out), "--seed", "9",
    )
    assert code == 3
    assert err.startswith("error:") and err.count("\n") == 1
    assert "fold numbers outside 1..2: [0]" in err and "hold no records: [1]" in err
    assert not out.exists()


@pytest.fixture(scope="module")
def fold_without_institution_a(tmp_path_factory):
    """40 patients at seed 1 in 5 folds: fold 1 holds no record of institution A."""
    root = tmp_path_factory.mktemp("gap")
    data, plan = root / "data.jsonl", root / "plan.json"
    assert run_cli("synth", "--out", str(data), "--seed", "1", "--n-patients", "40")[0] == 0
    code, out, _ = run_cli("split", "--data", str(data), "--out", str(plan), "--seed", "1", "--folds", "5")
    assert code == 0
    assert out.splitlines()[4].split()[:2] == ["1", "0/0"]  # fold 1, A neg/pos
    return data, plan


SMALL_RUN = ["--hidden-sizes", "4", "--learning-rates", "0.05", "--weight-decays", "0.0001", "--max-epochs", "2"]


@pytest.mark.parametrize("treatment", ["a", "federated", "all"])
def test_run_fold_without_an_institutions_records_exits_2(fold_without_institution_a, tmp_path, treatment):
    data, plan = fold_without_institution_a
    out = tmp_path / "x"
    code, _, err = run_cli(
        "run", "--data", str(data), "--split", str(plan), "--out", str(out), "--seed", "1",
        "--treatment", treatment, *SMALL_RUN,
    )
    assert code == 2
    assert err.startswith("error: fold 1 holds no records of institution A,") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("treatment", ["a", "all"])
def test_run_fold_holding_every_positive_exits_2(tmp_path, treatment):
    data, plan = tmp_path / "data.jsonl", tmp_path / "plan.json"
    assert run_cli("synth", "--out", str(data), "--seed", "1", "--n-patients", "40")[0] == 0
    code, out, _ = run_cli("split", "--data", str(data), "--out", str(plan), "--seed", "1", "--folds", "2")
    assert code == 0
    assert out.splitlines()[4].split()[:2] == ["1", "7/0"]  # fold 1, A neg/pos
    run_dir = tmp_path / "x"
    code, _, err = run_cli(
        "run", "--data", str(data), "--split", str(plan), "--out", str(run_dir), "--seed", "1",
        "--treatment", treatment, *SMALL_RUN,
    )
    assert code == 2
    assert err == "error: holding out fold 2 leaves no positive record of institution A for treatment 'a' to train on\n"
    assert not (run_dir / "run_config.json").exists()


def test_run_pooled_treatment_trains_on_a_fold_without_institution_a(fold_without_institution_a, tmp_path):
    data, plan = fold_without_institution_a
    code, _, err = run_cli(
        "run", "--data", str(data), "--split", str(plan), "--out", str(tmp_path / "x"), "--seed", "1",
        "--treatment", "central", *SMALL_RUN,
    )
    assert (code, err) == (0, "")


def test_run_single_fold_has_nothing_to_train_on_exits_2(fold_without_institution_a, tmp_path):
    data, _ = fold_without_institution_a
    plan = tmp_path / "plan.json"
    assert run_cli("split", "--data", str(data), "--out", str(plan), "--seed", "1", "--folds", "1")[0] == 0
    out = tmp_path / "x"
    code, _, err = run_cli(
        "run", "--data", str(data), "--split", str(plan), "--out", str(out), "--seed", "1",
        "--treatment", "central", *SMALL_RUN,
    )
    assert code == 2
    assert "fold 1 holds every record of institutions A and B" in err and err.count("\n") == 1
    assert not out.exists()


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


@pytest.mark.parametrize("content", [b"{\"test_ids\": \"\xff\"}", b"{not json"], ids=["latin1_byte", "not_json"])
def test_run_plan_not_utf8_json_exits_2(chain, tmp_path, content):
    bad = tmp_path / "bad_plan.json"
    bad.write_bytes(content)
    code, _, err = run_cli(
        "run", "--data", str(chain["data"]), "--split", str(bad), "--out", str(tmp_path / "x"), "--seed", "9",
    )
    assert code == 2
    assert err.startswith(f"error: split plan {bad} is not UTF-8 JSON:") and err.count("\n") == 1


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


def test_run_streams_a_large_final_model(tmp_path):
    """run writes final_model.json row by row: the h=512 model's file
    has the bytes of its dict form, and writing every output of the
    treatment stays under 1 MB of traced memory (12 MB when the text
    was built from nested lists)."""
    params = init_model(512, 8)
    run = TreatmentRun(
        treatment=Treatment.FEDERATED,
        cv_results=[],
        best_combo=HyperCombo(hidden_size=512, learning_rate=0.01, weight_decay=0.0),
        epoch_budget=2,
        params=params,
        final_logs=[],
        evaluations={},
        record_ids={},
    )
    tracemalloc.start()
    try:
        _write_treatment_outputs(tmp_path, run)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    written = (tmp_path / "federated" / "final_model.json").read_bytes()
    assert written == (json.dumps(params_to_dict(params)) + "\n").encode("utf-8")


def test_run_outputs_do_not_depend_on_the_blas_thread_setting(tmp_path):
    """The CLI fixes BLAS to one thread before numpy loads, whatever the
    environment says: a threaded BLAS splits an h=512 model's sums by core
    count, which moved final_model.json. Each run writes to a directory of
    the same relative name, so run_config.json can match too."""
    assert cli_process(
        "synth", "--out", "data.jsonl", "--seed", "3", "--n-patients", "200", "--class-separation", "2.0", cwd=tmp_path
    ).returncode == 0
    assert cli_process("split", "--data", "data.jsonl", "--out", "plan.json", "--seed", "3", cwd=tmp_path).returncode == 0
    outputs = {}
    for threads in ("1", None, "2"):
        case = tmp_path / f"blas-{threads}"
        case.mkdir()
        proc = cli_process(
            "run", "--data", "../data.jsonl", "--split", "../plan.json", "--out", "run", "--seed", "3",
            "--treatment", "federated", "--hidden-sizes", "512", "--learning-rates", "0.005",
            "--weight-decays", "0.0001", "--max-epochs", "20", "--patience", "20",
            cwd=case, blas_threads=threads,
        )
        assert proc.returncode == 0, proc.stderr
        run_dir = case / "run"
        outputs[threads] = {str(f.relative_to(run_dir)): f.read_bytes() for f in run_dir.rglob("*") if f.is_file()}
    assert "federated/final_model.json" in outputs["1"]
    for threads in (None, "2"):
        assert sorted(outputs[threads]) == sorted(outputs["1"])
        assert [name for name, data in outputs[threads].items() if data != outputs["1"][name]] == []


# ---------- report ----------


def test_run_set_reports_match_the_comparison(chain):
    # run and report score a test set the same way: each report_<set>.json
    # holds the confusion and measures that comparison.json computes
    payload = json.loads((chain["report"] / "comparison.json").read_text())
    measures = ("f1", "recall", "precision", "roc_auc", "pr_auc")
    for key in ("a", "b", "federated", "central"):
        for set_name in ("A", "B", "combined"):
            written = json.loads((chain["run"] / key / f"report_{set_name}.json").read_text())
            assert (written["treatment"], written["test_set"]) == (key, set_name)
            assert written["confusion"] == payload["confusion"][set_name][key]
            for measure in measures:
                assert written[measure] == payload["point_estimates"][set_name][measure][key]


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


def test_report_refuses_a_directory_holding_files_it_would_not_write(chain, tmp_path):
    out = tmp_path / "rep"
    base = ("report", "--run", str(chain["run"]), "--out", str(out), "--bootstrap-n", "20")
    assert run_cli(*base, "--seed", "5", "--emit-distributions")[0] == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert any(name.startswith("dist_") for name in first)
    # a rerun that writes the same set of files may overwrite them
    assert run_cli(*base, "--seed", "5", "--emit-distributions")[0] == 0
    assert {p.name: p.read_bytes() for p in out.iterdir()} == first
    code, _, err = run_cli(*base, "--seed", "6")
    assert code == 2
    stale = min(name for name in first if name.startswith("dist_"))
    assert err == f"error: report directory {out} holds {stale}, which this report would not write\n"
    assert {p.name: p.read_bytes() for p in out.iterdir()} == first


def test_report_missing_treatment_exits_2(chain, tmp_path):
    partial = tmp_path / "run"
    shutil.copytree(chain["run"], partial)
    shutil.rmtree(partial / "a")
    code, _, err = run_cli(
        "report", "--run", str(partial), "--out", str(tmp_path / "rep"), "--seed", "5"
    )
    assert code == 2
    assert "missing treatment outputs: a" in err
    assert not (tmp_path / "rep").exists()
    code, _, err = run_cli("report", "--run", str(partial), "--seed", "5")
    assert code == 2
    assert "missing treatment outputs: a" in err
    assert not (partial / "report").exists()


def test_report_scores_not_utf8_exits_2(chain, tmp_path):
    mangled = tmp_path / "run"
    shutil.copytree(chain["run"], mangled)
    path = mangled / "b" / "scores_A.csv"
    path.write_bytes(path.read_bytes().replace(b"record_id", b"record_\xefd"))
    code, _, err = run_cli("report", "--run", str(mangled), "--seed", "5")
    assert code == 2
    assert err.startswith(f"error: scores file {path} is not UTF-8:") and err.count("\n") == 1
    assert not (mangled / "report").exists()


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


@pytest.mark.parametrize(
    "treatment, column, value, message",
    [
        ("a", 1, "2", "labels must be 0 or 1"),
        ("b", 2, "nan", "scores must lie in [0, 1]"),
        ("central", 1, None, "differ from those in"),  # None: flip the label
    ],
    ids=["label_2", "score_nan", "label_differs_across_treatments"],
)
def test_report_bad_score_values_name_the_file(chain, tmp_path, treatment, column, value, message):
    mangled = tmp_path / "run"
    shutil.copytree(chain["run"], mangled)
    path = mangled / treatment / "scores_B.csv"
    header, first, *rest = path.read_text().split("\n")
    cells = first.split(",")
    cells[column] = value if value is not None else str(1 - int(cells[column]))
    path.write_text("\n".join([header, ",".join(cells)] + rest))
    out = tmp_path / "rep"
    code, _, err = run_cli("report", "--run", str(mangled), "--out", str(out), "--seed", "5")
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err and message in err
    assert not out.exists()


def test_build_comparison_reproduces_the_written_report(chain):
    scored = _load_scored_sets(chain["run"])
    payload, dists = build_comparison(scored, 5, 200)
    assert dists == {}
    payload["config"]["run_dir"] = str(chain["run"])
    assert payload == json.loads((chain["report"] / "comparison.json").read_text())
    text = (chain["report"] / "comparison.txt").read_text()
    assert "\n".join(_render_text_report(payload)) + "\n" == text


REPORT_COSTS = """
import sys
import numpy
from fedvra import cli, stats

def no_percentile(*args, **kwargs):
    raise AssertionError("np.percentile called")

numpy.percentile = no_percentile
calls = []
tie_groups = stats._tie_groups
stats._tie_groups = lambda *args: calls.append(args) or tie_groups(*args)
code = cli.main(["report", "--run", sys.argv[1], "--out", sys.argv[2], "--seed", "5", "--bootstrap-n", "200"])
print(code, len(calls), "numpy.ma" in sys.modules)
"""


def test_report_process_sorts_each_scored_set_once_and_skips_numpy_ma(chain, tmp_path):
    # np.percentile imports numpy.ma through np.unique; the report takes its CI
    # bounds from one sort instead, and each of its 12 scored sets (4 treatments
    # x 3 test sets) sorts its tie groups once for every measure and bootstrap
    src = Path(__file__).resolve().parent.parent / "src"
    out = tmp_path / "rep"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", REPORT_COSTS, str(chain["run"]), str(out)], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].split() == ["0", "12", "False"]
    for name in ("comparison.json", "comparison.txt"):
        assert (out / name).read_bytes() == (chain["report"] / name).read_bytes()


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
    # set A has both classes, so its ROC curves and distributions exist
    # before the combined set fails; the two-record combined set has
    # about half of all resamples single class, so its ROC-AUC
    # bootstrap gives up. Nothing may be written.
    csv_a = "record_id,label,score,prediction\n2,0,0.1,0\n3,1,0.9,1\n4,0,0.6,1\n5,1,0.4,0\n"
    csv_b = "record_id,label,score,prediction\n1,1,0.8,1\n"
    csv_c = "record_id,label,score,prediction\n0,0,0.2,0\n1,1,0.8,1\n"
    run_dir = craft_run_dir(tmp_path / "run", {"A": csv_a, "B": csv_b, "combined": csv_c})
    out = tmp_path / "rep"
    for emit in ([], ["--emit-distributions"]):
        code, _, err = run_cli(
            "report", "--run", str(run_dir), "--out", str(out),
            "--seed", "3", "--bootstrap-n", "101", *emit,
        )
        assert code == 4
        assert "undefined on" in err
        assert not out.exists()
