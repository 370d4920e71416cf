"""Command line driver: synth, split, run, report.

Every command takes an explicit seed and is fully deterministic given
its flags; rerunning a command writes byte-identical files. Options
resolve as flags over config-file keys over built-in defaults, where
the config file is a flat UTF-8 key=value file (unknown keys are
ignored so one file can serve several commands).

Exit codes: 0 success, 2 invalid arguments, 3 data or invariant
violation, 4 numerical or statistical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    DEFAULT_POSITIVE_RATE,
    SynthConfig,
    check_split_plan,
    generate_synthetic,
    load_records,
    load_split_plan,
    make_split_plan,
    save_records,
    save_split_plan,
    ward_counts,
)
from .errors import NumericalError, SplitInvariantError, StatisticalError, UndefinedMetricError
from .experiment import (
    DEFAULT_HIDDEN_SIZES,
    DEFAULT_LEARNING_RATES,
    DEFAULT_WEIGHT_DECAYS,
    GridSpec,
    TEST_SET_NAMES,
    Treatment,
    TreatmentRun,
    run_treatments,
)
from .federated import RoundLog
from .network import TrainConfig, params_to_dict
from .seeds import derive_seed
from .stats import (
    ScoredSet,
    bootstrap_ci,
    bootstrap_diff,
    common_agreement,
    contingency,
    metric_bundle,
    roc_curve,
)

REPORT_MEASURES = ("f1", "recall", "precision", "roc_auc", "pr_auc")
TREATMENT_KEYS = tuple(t.key for t in Treatment)
# contingency_vs_federated keys, in the field order of stats.ContingencyCounts
CONTINGENCY_KEYS = ("both_correct", "federated_only", "treatment_only", "neither")


# ---------- output files ----------


def _write_lines(path, lines) -> None:
    """The one writer of every file run and report produce: each line
    followed by a newline, UTF-8."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in lines)


def _write_json(path, payload) -> None:
    """Indented JSON with sorted keys and a trailing newline."""
    _write_lines(path, [json.dumps(payload, indent=2, sort_keys=True)])


def _round_log_line(log: RoundLog) -> str:
    return json.dumps({**asdict(log), "train_losses": dict(sorted(log.train_losses.items()))})


# ---------- option resolution ----------


def _uint(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError("must be non-negative")
    return value


def _posint(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError("must be at least 1")
    return value


def _unit_float(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise ValueError("must lie in [0, 1]")
    return value


def _nonneg_float(text: str) -> float:
    value = float(text)
    if value < 0:
        raise ValueError("must be non-negative")
    return value


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(_posint(part) for part in text.split(","))


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(_nonneg_float(part) for part in text.split(","))


def _choice(options):
    def conv(text: str) -> str:
        if text not in options:
            raise ValueError(f"must be one of {', '.join(options)}")
        return text

    return conv


def load_config_file(path) -> dict[str, str]:
    """Flat key=value file; blank lines and # comments are skipped."""
    out: dict[str, str] = {}
    text = Path(path).read_text(encoding="utf-8")
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def resolve_options(args: argparse.Namespace, fields: dict) -> dict:
    """Merge flags > config file > defaults into one dict."""
    file_cfg = load_config_file(args.config) if getattr(args, "config", None) else {}
    out = {}
    for key, (convert, default, required) in fields.items():
        raw = getattr(args, key, None)
        source = "flag"
        if raw is None and key in file_cfg:
            raw = file_cfg[key]
            source = "config file"
        if raw is None:
            if required:
                raise ValueError(f"missing required option --{key.replace('_', '-')}")
            out[key] = default
            continue
        try:
            out[key] = convert(raw) if isinstance(raw, str) else raw
        except ValueError as exc:
            raise ValueError(f"bad value for {key} (from {source}): {raw!r}: {exc}") from exc
    return out


# ---------- synth ----------

SYNTH_FIELDS = {
    "out": (str, None, True),
    "seed": (_uint, None, True),
    "n_patients": (_posint, None, True),
    "positive_rate": (_unit_float, DEFAULT_POSITIVE_RATE, False),
    "class_separation": (_nonneg_float, 1.0, False),
    "ward_shift": (_nonneg_float, 0.5, False),
    "admissions_min": (_posint, 1, False),
    "admissions_max": (_posint, 3, False),
}


def cmd_synth(args: argparse.Namespace) -> int:
    opt = resolve_options(args, SYNTH_FIELDS)
    config = SynthConfig(
        n_patients=opt["n_patients"],
        seed=opt["seed"],
        admissions_per_patient=(opt["admissions_min"], opt["admissions_max"]),
        positive_rate=opt["positive_rate"],
        class_separation=opt["class_separation"],
        ward_shift=opt["ward_shift"],
    )
    records = generate_synthetic(config)
    save_records(opt["out"], records)
    print(f"wrote {len(records)} records to {opt['out']}")
    print(f"{'ward':<6} {'records':>8} {'positives':>10}")
    for ward in sorted(ward_counts(records)):
        in_ward = [r for r in records if r.ward == ward]
        pos = sum(r.label for r in in_ward)
        print(f"{ward:<6} {len(in_ward):>8} {pos:>10}")
    print(f"{'total':<6} {len(records):>8} {sum(r.label for r in records):>10}")
    return 0


# ---------- split ----------

SPLIT_FIELDS = {
    "data": (str, None, True),
    "out": (str, None, True),
    "seed": (_uint, None, True),
    "test_fraction": (_unit_float, 0.2, False),
    "folds": (_posint, 5, False),
}


def cmd_split(args: argparse.Namespace) -> int:
    opt = resolve_options(args, SPLIT_FIELDS)
    records = load_records(opt["data"])
    plan = make_split_plan(
        records, test_fraction=opt["test_fraction"], n_folds=opt["folds"], seed=opt["seed"]
    )
    check_split_plan(records, plan)
    save_split_plan(opt["out"], plan)

    print(f"wrote split plan for {len(records)} records to {opt['out']}")
    insts = sorted(set(plan.institution_of_ward.values()))
    for inst in insts:
        wards = sorted(w for w, i in plan.institution_of_ward.items() if i == inst)
        print(f"institution {inst}: wards {', '.join(wards)}")
    header = ["fold"] + [f"{inst} neg/pos" for inst in insts] + ["total neg/pos"]
    print("  ".join(f"{h:>14}" for h in header))
    rows = [(str(fold), plan.fold_ids(fold)) for fold in range(1, plan.n_folds + 1)]
    for name, ids in rows + [("test", plan.test_ids)]:
        by_inst = {inst: [0, 0] for inst in insts}
        total = [0, 0]
        for i in ids:
            by_inst[plan.institution_of_ward[records[i].ward]][records[i].label] += 1
            total[records[i].label] += 1
        cells = [name] + [f"{by_inst[i][0]}/{by_inst[i][1]}" for i in insts]
        cells.append(f"{total[0]}/{total[1]}")
        print("  ".join(f"{c:>14}" for c in cells))
    print(f"dropped {len(plan.dropped_ids)} train/val records of test-set patients")
    return 0


# ---------- run ----------

RUN_FIELDS = {
    "data": (str, None, True),
    "split": (str, None, True),
    "out": (str, None, True),
    "seed": (_uint, None, True),
    "treatment": (_choice(TREATMENT_KEYS + ("all",)), "all", False),
    "hidden_sizes": (_int_list, DEFAULT_HIDDEN_SIZES, False),
    "learning_rates": (_float_list, DEFAULT_LEARNING_RATES, False),
    "weight_decays": (_float_list, DEFAULT_WEIGHT_DECAYS, False),
    "batch_size": (_posint, 32, False),
    "gamma": (float, 0.975, False),
    "max_epochs": (_posint, 120, False),
    "patience": (_posint, 7, False),
    "aggregation": (_choice(("size", "uniform")), "size", False),
    "threads": (_posint, 1, False),
}


def _set_report_dict(run: TreatmentRun, set_name: str) -> dict:
    ev = run.evaluations[set_name]
    return {
        "treatment": run.treatment.key,
        "test_set": set_name,
        "combo": asdict(run.best_combo),
        "epoch_budget": run.epoch_budget,
        "n_records": len(ev.record_ids),
        "confusion": ev.confusion._asdict(),
        "f1": ev.f1,
        "recall": ev.recall,
        "precision": ev.precision,
        "roc_auc": ev.roc_auc,
        "pr_auc": ev.pr_auc,
    }


def _write_treatment_outputs(out_dir: Path, run: TreatmentRun) -> None:
    tdir = out_dir / run.treatment.key
    tdir.mkdir(parents=True, exist_ok=True)
    cv_payload = {
        "selected": asdict(run.best_combo),
        "epoch_budget": run.epoch_budget,
        "results": [
            {
                "combo": asdict(r.combo),
                "f1": r.f1,
                "fold_f1": list(r.fold_f1s),
                "best_epochs": list(r.best_epochs),
                "min_fold_f1": min(r.fold_f1s),
                "mean_fold_f1": sum(r.fold_f1s) / len(r.fold_f1s),
                "max_fold_f1": max(r.fold_f1s),
            }
            for r in run.cv_results
        ],
    }
    _write_json(tdir / "cv_results.json", cv_payload)
    fit_lines = (
        json.dumps(
            {
                "treatment": run.treatment.key,
                "combo_index": ci,
                **asdict(result.combo),
                "fold": fit.fold,
                "best_epoch": fit.best_epoch,
                "epochs_run": fit.epochs_run,
                "val_loss": fit.val_loss,
                "f1": fit.f1,
            }
        )
        for ci, result in enumerate(run.cv_results)
        for fit in result.fold_fits
    )
    _write_lines(tdir / "cv_fits.jsonl", fit_lines)
    _write_lines(tdir / "final_model.json", [json.dumps(params_to_dict(run.params))])
    _write_lines(tdir / "round_logs.jsonl", map(_round_log_line, run.final_logs))
    for set_name, ev in run.evaluations.items():
        _write_json(tdir / f"report_{set_name}.json", _set_report_dict(run, set_name))
        rows = zip(ev.record_ids, ev.labels, ev.scores, ev.predictions)
        _write_lines(
            tdir / f"scores_{set_name}.csv",
            ["record_id,label,score,prediction"]
            + [f"{rid},{int(label)},{float(score)!r},{int(pred)}" for rid, label, score, pred in rows],
        )


def cmd_run(args: argparse.Namespace) -> int:
    opt = resolve_options(args, RUN_FIELDS)
    out_dir = Path(opt["out"])
    if out_dir.exists() and any(out_dir.iterdir()) and not args.force:
        raise ValueError(f"run directory {out_dir} is not empty; pass --force to overwrite")
    records = load_records(opt["data"])
    plan = load_split_plan(opt["split"])
    check_split_plan(records, plan)

    if opt["treatment"] == "all":
        treatments = list(Treatment)
    else:
        treatments = [Treatment(opt["treatment"])]
    grid = GridSpec(
        hidden_sizes=opt["hidden_sizes"],
        learning_rates=opt["learning_rates"],
        weight_decays=opt["weight_decays"],
    )
    base_config = TrainConfig(
        lr0=opt["learning_rates"][0],
        hidden_size=opt["hidden_sizes"][0],
        seed=opt["seed"],
        batch_size=opt["batch_size"],
        gamma=opt["gamma"],
        max_epochs=opt["max_epochs"],
        patience=opt["patience"],
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    effective = dict(opt)
    effective["treatments"] = [t.key for t in treatments]
    effective["force"] = bool(args.force)
    effective["version"] = __version__
    _write_json(out_dir / "run_config.json", effective)

    runs = run_treatments(
        treatments,
        records,
        plan,
        grid,
        base_config,
        uniform_weights=(opt["aggregation"] == "uniform"),
        threads=opt["threads"],
    )
    for key in sorted(runs):
        run = runs[key]
        _write_treatment_outputs(out_dir, run)
        combined = run.evaluations["combined"]
        combo = run.best_combo
        print(
            f"{key}: hidden={combo.hidden_size} lr={combo.learning_rate} "
            f"wd={combo.weight_decay} epochs={run.epoch_budget} "
            f"combined F1={combined.f1:.3f}"
        )
    print(f"run outputs in {out_dir}")
    return 0


# ---------- report ----------

REPORT_FIELDS = {
    "run": (str, None, True),
    "out": (str, None, False),
    "seed": (_uint, None, True),
    "bootstrap_n": (_posint, 10000, False),
}


SCORE_COLUMNS = ("record_id", "label", "score")


def _load_scored_sets(run_dir: Path) -> dict[str, dict[str, ScoredSet]]:
    """scored[treatment][set]; requires all four treatments present."""
    missing = [key for key in TREATMENT_KEYS if not (run_dir / key / "scores_combined.csv").exists()]
    if missing:
        raise ValueError(f"run directory {run_dir} is missing treatment outputs: {', '.join(missing)}")
    scored: dict[str, dict[str, ScoredSet]] = {}
    ids: dict[str, list[str]] = {}
    for key in TREATMENT_KEYS:
        scored[key] = {}
        for set_name in TEST_SET_NAMES:
            path = run_dir / key / f"scores_{set_name}.csv"
            labels: list[int] = []
            scores: list[float] = []
            rids: list[str] = []
            with open(path, newline="", encoding="utf-8") as fh:
                reader = csv.DictReader(fh)
                missing = [c for c in SCORE_COLUMNS if c not in (reader.fieldnames or ())]
                if missing:
                    raise ValueError(f"{path} is missing column(s): {', '.join(missing)}")
                for row in reader:
                    try:
                        label, score = int(row["label"]), float(row["score"])
                    except (TypeError, ValueError):
                        raise ValueError(f"{path} line {reader.line_num}: label and score must be numbers") from None
                    rids.append(row["record_id"])
                    labels.append(label)
                    scores.append(score)
            if not labels:
                raise ValueError(f"{path} holds no scores")
            scored[key][set_name] = ScoredSet(labels=np.array(labels), scores=np.array(scores))
            if set_name in ids and ids[set_name] != rids:
                raise ValueError(f"record order in {path} differs across treatments")
            ids[set_name] = rids
    return scored


def cmd_report(args: argparse.Namespace) -> int:
    opt = resolve_options(args, REPORT_FIELDS)
    run_dir = Path(opt["run"])
    out_dir = Path(opt["out"]) if opt["out"] else run_dir / "report"
    out_dir.mkdir(parents=True, exist_ok=True)
    scored = _load_scored_sets(run_dir)
    seed = opt["seed"]
    n_resamples = opt["bootstrap_n"]
    fed = Treatment.FEDERATED.key
    others = [k for k in TREATMENT_KEYS if k != fed]

    points: dict = {}
    boots: dict = {}
    diffs: dict = {}
    conf: dict = {}
    conting: dict = {}
    common: dict = {}
    for set_name in TEST_SET_NAMES:
        sets = {key: scored[key][set_name] for key in TREATMENT_KEYS}
        bundles = {key: metric_bundle(s.labels, s.scores) for key, s in sets.items()}
        conf[set_name] = {key: bundles[key][0]._asdict() for key in TREATMENT_KEYS}
        points[set_name], boots[set_name], diffs[set_name] = {}, {}, {}
        for measure in REPORT_MEASURES:
            point = points[set_name][measure] = {key: bundles[key][1][measure] for key in TREATMENT_KEYS}
            boots[set_name][measure] = {}
            for key in TREATMENT_KEYS:
                if point[key] is None:
                    boots[set_name][measure][key] = None
                    continue
                result, samples = bootstrap_ci(
                    sets[key],
                    measure,
                    n_resamples=n_resamples,
                    seed=derive_report_seed(seed, "ci", set_name, measure, key),
                    return_samples=True,
                )
                boots[set_name][measure][key] = _result_numbers(result)
                if args.emit_distributions:
                    _write_distribution(out_dir / f"dist_{set_name}_{measure}_{key}.csv", samples)
            diffs[set_name][measure] = {}
            for key in others:
                if point[key] is None or point[fed] is None:
                    diffs[set_name][measure][key] = None
                    continue
                result, samples = bootstrap_diff(
                    sets[key],
                    sets[fed],
                    measure,
                    n_resamples=n_resamples,
                    seed=derive_report_seed(seed, "diff", set_name, measure, key),
                    pair=(key, fed),
                    return_samples=True,
                )
                diffs[set_name][measure][key] = _result_numbers(result)
                if args.emit_distributions:
                    _write_distribution(
                        out_dir / f"dist_{set_name}_{measure}_{key}_minus_{fed}.csv", samples
                    )

        correct = {key: s.predictions == s.labels for key, s in sets.items()}
        conting[set_name] = {
            key: dict(zip(CONTINGENCY_KEYS, contingency(correct[fed], correct[key]))) for key in others
        }
        agreement = common_agreement(list(sets.values()))
        common[set_name] = {**asdict(agreement), "agreement_rate": agreement.agreement_rate}
        for key, s in sets.items():
            try:
                curve = roc_curve(s.labels, s.scores)
            except UndefinedMetricError:
                continue
            _write_lines(
                out_dir / f"roc_{key}_{set_name}.csv",
                ["fpr,tpr,threshold"] + [f"{fpr!r},{tpr!r},{threshold!r}" for fpr, tpr, threshold in curve],
            )

    payload = {
        "config": {
            "run_dir": str(run_dir),
            "seed": seed,
            "n_resamples": n_resamples,
            "measures": list(REPORT_MEASURES),
            "treatments": list(TREATMENT_KEYS),
        },
        "point_estimates": points,
        "confusion": conf,
        "contingency_vs_federated": conting,
        "common_agreement": common,
        "bootstrap": boots,
        "differences_vs_federated": diffs,
    }
    _write_json(out_dir / "comparison.json", payload)
    _write_lines(out_dir / "comparison.txt", _render_text_report(payload))
    print(f"report written to {out_dir}")
    return 0


def derive_report_seed(seed: int, *parts: str) -> int:
    return derive_seed(seed, "report", *parts)


def _result_numbers(result) -> dict:
    """A bootstrap or difference result without its measure and pair labels."""
    return {k: v for k, v in asdict(result).items() if k not in ("measure", "pair")}


def _write_distribution(path, samples) -> None:
    _write_lines(path, (f"{float(value)!r}" for value in samples))


def _fmt(value) -> str:
    if value is None:
        return "undefined"
    return f"{value:.3f}"


def _render_text_report(payload: dict) -> list[str]:
    lines: list[str] = []
    keys = payload["config"]["treatments"]
    lines.append("treatment comparison")
    lines.append("")
    for set_name in TEST_SET_NAMES:
        lines.append(f"== test set {set_name} ==")
        header = ["measure"] + list(keys)
        lines.append("  ".join(f"{h:>12}" for h in header))
        for measure in payload["config"]["measures"]:
            row = [measure] + [_fmt(payload["point_estimates"][set_name][measure][k]) for k in keys]
            lines.append("  ".join(f"{c:>12}" for c in row))
        lines.append("")
        lines.append("confusion (tn fp / fn tp):")
        for key in keys:
            c = payload["confusion"][set_name][key]
            lines.append(f"  {key:>10}: {c['tn']:>5} {c['fp']:>5} / {c['fn']:>5} {c['tp']:>5}")
        lines.append("")
        lines.append("contingency vs federated (both / fed-only / other-only / neither):")
        for key, cells in sorted(payload["contingency_vs_federated"][set_name].items()):
            lines.append(
                f"  {key:>10}: {cells['both_correct']:>5} {cells['federated_only']:>5} "
                f"{cells['treatment_only']:>5} {cells['neither']:>5}"
            )
        ca = payload["common_agreement"][set_name]
        lines.append("")
        lines.append(
            "common agreement: "
            f"neg correct/wrong/disagree {ca['neg_correct']}/{ca['neg_wrong']}/{ca['neg_disagree']}, "
            f"pos correct/wrong/disagree {ca['pos_correct']}/{ca['pos_wrong']}/{ca['pos_disagree']}, "
            f"rate {ca['agreement_rate']:.3f}"
        )
        lines.append("")
        lines.append("bootstrap 95% CIs and paired differences vs federated:")
        for measure in payload["config"]["measures"]:
            for key in keys:
                ci = payload["bootstrap"][set_name][measure][key]
                if ci is None:
                    lines.append(f"  {measure:>10} {key:>10}: undefined")
                    continue
                lines.append(
                    f"  {measure:>10} {key:>10}: mean {ci['mean']:.3f} "
                    f"[{ci['ci_low']:.3f}, {ci['ci_high']:.3f}]"
                )
            for key, diff in sorted(payload["differences_vs_federated"][set_name][measure].items()):
                if diff is None:
                    lines.append(f"  {measure:>10} {key:>10} - federated: undefined")
                    continue
                verdict = "significant" if diff["significant"] else "not significant"
                lines.append(
                    f"  {measure:>10} {key:>10} - federated: {diff['mean_diff']:+.3f} "
                    f"[{diff['ci_low']:+.3f}, {diff['ci_high']:+.3f}] {verdict}"
                )
        lines.append("")
    return lines


# ---------- parser ----------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedvra",
        description="Deterministic local/federated/centralised training comparison on admission records.",
    )
    parser.add_argument("--version", action="version", version=f"fedvra {__version__}")
    sub = parser.add_subparsers(dest="command")

    def add_common(p):
        p.add_argument("--config", help="flat key=value config file; flags take precedence")
        p.add_argument("--seed", help="root seed (required here or in the config file)")

    p_synth = sub.add_parser("synth", help="generate a synthetic admission dataset (JSON lines)")
    add_common(p_synth)
    p_synth.add_argument("--out", help="output dataset path")
    p_synth.add_argument("--n-patients", dest="n_patients", help="number of patients")
    p_synth.add_argument("--positive-rate", dest="positive_rate", help="target positive fraction")
    p_synth.add_argument("--class-separation", dest="class_separation", help="label mean shift")
    p_synth.add_argument("--ward-shift", dest="ward_shift", help="per-ward mean shift")
    p_synth.add_argument("--admissions-min", dest="admissions_min", help="min admissions per patient")
    p_synth.add_argument("--admissions-max", dest="admissions_max", help="max admissions per patient")
    p_synth.set_defaults(func=cmd_synth)

    p_split = sub.add_parser("split", help="build and verify a leakage-safe split plan")
    add_common(p_split)
    p_split.add_argument("--data", help="dataset path (JSON lines)")
    p_split.add_argument("--out", help="output split plan path")
    p_split.add_argument("--test-fraction", dest="test_fraction", help="held-out time slice per institution")
    p_split.add_argument("--folds", help="number of cross-validation folds")
    p_split.set_defaults(func=cmd_split)

    p_run = sub.add_parser("run", help="grid search, final fits, and test evaluation per treatment")
    add_common(p_run)
    p_run.add_argument("--data", help="dataset path (JSON lines)")
    p_run.add_argument("--split", help="split plan path")
    p_run.add_argument("--out", help="run output directory")
    p_run.add_argument("--treatment", help="a, b, federated, central, or all")
    p_run.add_argument("--hidden-sizes", dest="hidden_sizes", help="comma list, e.g. 64,128,256,512")
    p_run.add_argument("--learning-rates", dest="learning_rates", help="comma list, e.g. 0.005,0.001")
    p_run.add_argument("--weight-decays", dest="weight_decays", help="comma list, e.g. 0.001,0.0001")
    p_run.add_argument("--batch-size", dest="batch_size", help="minibatch size")
    p_run.add_argument("--gamma", help="learning-rate decay per epoch")
    p_run.add_argument("--max-epochs", dest="max_epochs", help="epoch cap per fit")
    p_run.add_argument("--patience", help="early-stopping patience in epochs")
    p_run.add_argument("--aggregation", help="size (weight by silo training size) or uniform")
    p_run.add_argument("--threads", help="parallel cross-validation fits; outputs identical for any value")
    p_run.add_argument("--force", action="store_true", help="allow writing into a non-empty run directory")
    p_run.set_defaults(func=cmd_run)

    p_report = sub.add_parser("report", help="bootstrap comparison report over a completed run directory")
    add_common(p_report)
    p_report.add_argument("--run", help="run directory produced by the run command")
    p_report.add_argument("--out", help="report output directory (default: <run>/report)")
    p_report.add_argument("--bootstrap-n", dest="bootstrap_n", help="bootstrap resamples per measure")
    p_report.add_argument(
        "--emit-distributions",
        action="store_true",
        help="also write full resample distributions as CSV",
    )
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except SplitInvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, StatisticalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
