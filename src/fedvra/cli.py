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
import math
import sys
from collections import Counter
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    SynthConfig,
    _write_json,
    _write_lines,
    _write_text,
    generate_synthetic,
    load_records,
    load_split_plan,
    make_split_plan,
    save_records,
    save_split_plan,
    split_index,
    ward_counts,
)
from .errors import NumericalError, SplitInvariantError, StatisticalError, UndefinedMetricError
from .experiment import (
    DEFAULT_HIDDEN_SIZES,
    DEFAULT_LEARNING_RATES,
    DEFAULT_WEIGHT_DECAYS,
    GridSpec,
    TEST_SET_NAMES,
    TREATMENTS,
    TreatmentRun,
    run_treatments,
)
from .federated import RoundLog
from .network import TrainConfig, params_json_pieces
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
TREATMENT_KEYS = tuple(TREATMENTS)
FEDERATED_KEY = "federated"
OTHER_KEYS = tuple(k for k in TREATMENT_KEYS if k != FEDERATED_KEY)
# the report's bootstrap entries of one (set, measure), in report order:
# (payload section, seed label, treatment, treatments scored, dist_*.csv stem);
# a CI per treatment, then a paired difference against federated per other treatment
BOOTSTRAP_ENTRIES = tuple(("bootstrap", "ci", key, (key,), key) for key in TREATMENT_KEYS) + tuple(
    ("differences_vs_federated", "diff", key, (key, FEDERATED_KEY), f"{key}_minus_{FEDERATED_KEY}")
    for key in OTHER_KEYS
)
# contingency_vs_federated keys, in the field order of stats.ContingencyCounts
CONTINGENCY_KEYS = ("both_correct", "federated_only", "treatment_only", "neither")


# ---------- output files ----------


def _round_log_line(log: RoundLog) -> str:
    # a final fit is never validated: "metrics" is always null and stays for the file's pinned key order
    return json.dumps({**asdict(log), "train_losses": dict(sorted(log.train_losses.items())), "metrics": None})


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
    if not (math.isfinite(value) and value >= 0):
        raise ValueError("must be finite and non-negative")
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


def _read_utf8(path, what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8-sig")  # drops one leading byte-order mark
    except UnicodeDecodeError as exc:
        raise ValueError(f"{what} {path} is not UTF-8: {exc}") from None


def load_config_file(path) -> dict[str, str]:
    """Flat key=value file; blank lines and # comments are skipped."""
    out: dict[str, str] = {}
    text = _read_utf8(path, "config file")
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
    for key, (convert, default, required, *_) in fields.items():
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


# Each command's options: key -> (convert, default, required, help).
# build_parser makes one --flag per key; the same keys are config-file keys.
SEED_FIELD = (_uint, None, True, "root seed (required here or in the config file)")


# ---------- synth ----------

_SYNTH = {f.name: f.default for f in fields(SynthConfig)}  # each default is declared once, on the config
SYNTH_FIELDS = {
    "out": (str, None, True, "output dataset path"),
    "seed": SEED_FIELD,
    "n_patients": (_posint, None, True, "number of patients"),
    "positive_rate": (_unit_float, _SYNTH["positive_rate"], False, "target positive fraction"),
    "class_separation": (_nonneg_float, _SYNTH["class_separation"], False, "label mean shift"),
    "ward_shift": (_nonneg_float, _SYNTH["ward_shift"], False, "per-ward mean shift"),
    "admissions_min": (_posint, _SYNTH["admissions_per_patient"][0], False, "min admissions per patient"),
    "admissions_max": (_posint, _SYNTH["admissions_per_patient"][1], False, "max admissions per patient"),
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
    counts = ward_counts(records)
    positives = Counter(ward for ward, label in zip(records.ward, records.label.tolist()) if label)
    for ward in sorted(counts):
        print(f"{ward:<6} {counts[ward]:>8} {positives[ward]:>10}")
    print(f"{'total':<6} {len(records):>8} {sum(positives.values()):>10}")
    return 0


# ---------- split ----------

SPLIT_FIELDS = {
    "data": (str, None, True, "dataset path (JSON lines)"),
    "out": (str, None, True, "output split plan path"),
    "seed": SEED_FIELD,
    "test_fraction": (_unit_float, 0.2, False, "held-out time slice per institution"),
    "folds": (_posint, 5, False, "number of cross-validation folds"),
}


def cmd_split(args: argparse.Namespace) -> int:
    opt = resolve_options(args, SPLIT_FIELDS)
    records = load_records(opt["data"])
    plan = make_split_plan(
        records, test_fraction=opt["test_fraction"], n_folds=opt["folds"], seed=opt["seed"]
    )
    institution, fold = split_index(records, plan)  # raises before a broken plan is written
    save_split_plan(opt["out"], plan)

    print(f"wrote split plan for {len(records)} records to {opt['out']}")
    insts = sorted(set(plan.institution_of_ward.values()))
    for inst in insts:
        wards = sorted(w for w, i in plan.institution_of_ward.items() if i == inst)
        print(f"institution {inst}: wards {', '.join(wards)}")
    header = ["fold"] + [f"{inst} neg/pos" for inst in insts] + ["total neg/pos"]
    print("  ".join(f"{h:>14}" for h in header))
    for name, rows in [(str(f), fold == f) for f in range(1, plan.n_folds + 1)] + [("test", fold == 0)]:
        masks = [rows & (institution == inst) for inst in insts] + [rows]  # each institution's, then all
        cells = [name] + ["{}/{}".format(*np.bincount(records.label[mask], minlength=2)) for mask in masks]
        print("  ".join(f"{c:>14}" for c in cells))
    print(f"dropped {len(plan.dropped_ids)} train/val records of test-set patients")
    return 0


# ---------- run ----------

_TRAIN = {f.name: f.default for f in fields(TrainConfig)}
RUN_FIELDS = {
    "data": (str, None, True, "dataset path (JSON lines)"),
    "split": (str, None, True, "split plan path"),
    "out": (str, None, True, "run output directory"),
    "seed": SEED_FIELD,
    "treatment": (_choice(TREATMENT_KEYS + ("all",)), "all", False, "a, b, federated, central, or all"),
    "hidden_sizes": (_int_list, DEFAULT_HIDDEN_SIZES, False, "comma list, e.g. 64,128,256,512"),
    "learning_rates": (_float_list, DEFAULT_LEARNING_RATES, False, "comma list, e.g. 0.005,0.001"),
    "weight_decays": (_float_list, DEFAULT_WEIGHT_DECAYS, False, "comma list, e.g. 0.001,0.0001"),
    "batch_size": (_posint, _TRAIN["batch_size"], False, "minibatch size"),
    "gamma": (float, _TRAIN["gamma"], False, "learning-rate decay per epoch"),
    "max_epochs": (_posint, _TRAIN["max_epochs"], False, "epoch cap per fit"),
    "patience": (_posint, _TRAIN["patience"], False, "early-stopping patience in epochs"),
    "aggregation": (_choice(("size", "uniform")), "size", False, "size (weight by silo training size) or uniform"),
    "threads": (_posint, 1, False, "parallel CV and final fits; outputs identical for any value"),
}


def _set_report_dict(run: TreatmentRun, set_name: str) -> dict:
    s = run.evaluations[set_name]
    conf, metrics = metric_bundle(s)
    return {
        "treatment": run.treatment,
        "test_set": set_name,
        "combo": asdict(run.best_combo),
        "epoch_budget": run.epoch_budget,
        "n_records": len(s),
        "confusion": conf._asdict(),
        **metrics,
    }


def _write_treatment_outputs(out_dir: Path, run: TreatmentRun) -> None:
    tdir = out_dir / run.treatment
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
                "treatment": run.treatment,
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
    _write_text(tdir / "final_model.json", params_json_pieces(run.params))
    _write_lines(tdir / "round_logs.jsonl", map(_round_log_line, run.final_logs))
    for set_name, s in run.evaluations.items():
        _write_json(tdir / f"report_{set_name}.json", _set_report_dict(run, set_name))
        rows = zip(run.record_ids[set_name], s.labels, s.scores, s.predictions)
        _write_lines(
            tdir / f"scores_{set_name}.csv",
            ["record_id,label,score,prediction"]
            + [f"{rid},{int(label)},{float(score)!r},{int(pred)}" for rid, label, score, pred in rows],
        )


def cmd_run(args: argparse.Namespace) -> int:
    opt = resolve_options(args, RUN_FIELDS)
    out_dir = Path(opt["out"])
    keys = list(TREATMENT_KEYS) if opt["treatment"] == "all" else [opt["treatment"]]
    if out_dir.exists() and any(out_dir.iterdir()):
        if not args.force:
            raise ValueError(f"run directory {out_dir} is not empty; pass --force to overwrite")
        # --force rewrites a run, never mixes two: refuse any entry this run would leave behind,
        # such as another treatment's directory or a report of the earlier run
        rewritten = {"run_config.json", *keys}  # the file and the treatment directories
        stale = sorted(p.name for p in out_dir.iterdir() if p.name not in rewritten or p.is_dir() != (p.name in keys))
        if stale:
            raise ValueError(f"run directory {out_dir} holds {', '.join(stale)}, which this run would not rewrite")
    records = load_records(opt["data"])
    plan = load_split_plan(opt["split"])
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
        uniform_weights=(opt["aggregation"] == "uniform"),
    )
    runs = run_treatments(keys, records, plan, grid, base_config, threads=opt["threads"])
    out_dir.mkdir(parents=True, exist_ok=True)  # only now: a failed run writes nothing
    effective = dict(opt)
    effective["treatments"] = keys
    effective["force"] = bool(args.force)
    effective["version"] = __version__
    _write_json(out_dir / "run_config.json", effective)
    for key in sorted(runs):
        run = runs[key]
        _write_treatment_outputs(out_dir, run)
        combined = run.evaluations["combined"]
        combo = run.best_combo
        print(
            f"{key}: hidden={combo.hidden_size} lr={combo.learning_rate} "
            f"wd={combo.weight_decay} epochs={run.epoch_budget} "
            f"combined F1={metric_bundle(combined)[1]['f1']:.3f}"
        )
    print(f"run outputs in {out_dir}")
    return 0


# ---------- report ----------

REPORT_FIELDS = {
    "run": (str, None, True, "run directory produced by the run command"),
    "out": (str, None, False, "report output directory (default: <run>/report)"),
    "seed": SEED_FIELD,
    "bootstrap_n": (_posint, 10000, False, "bootstrap resamples per measure"),
}


SCORE_COLUMNS = ("record_id", "label", "score")


def _load_scored_sets(run_dir: Path) -> dict[str, dict[str, ScoredSet]]:
    """scored[treatment][set]; requires all four treatments present, and
    the same records with the same labels, in the same order, in each."""
    missing = [key for key in TREATMENT_KEYS if not (run_dir / key / "scores_combined.csv").exists()]
    if missing:
        raise ValueError(f"run directory {run_dir} is missing treatment outputs: {', '.join(missing)}")
    scored: dict[str, dict[str, ScoredSet]] = {}
    first: dict[str, tuple] = {}  # set -> (path, record ids, labels) of the first treatment
    for key in TREATMENT_KEYS:
        scored[key] = {}
        for set_name in TEST_SET_NAMES:
            path = run_dir / key / f"scores_{set_name}.csv"
            labels: list[int] = []
            scores: list[float] = []
            rids: list[str] = []
            reader = csv.DictReader(_read_utf8(path, "scores file").splitlines())
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
            try:
                scored[key][set_name] = ScoredSet(labels=np.array(labels), scores=np.array(scores))
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
            first_path, first_rids, first_labels = first.setdefault(set_name, (path, rids, labels))
            if (rids, labels) != (first_rids, first_labels):
                raise ValueError(f"record order or labels in {path} differ from those in {first_path}")
    return scored


def build_comparison(scored: dict[str, dict[str, ScoredSet]], seed: int, n_resamples: int):
    """The comparison.json payload, less config.run_dir, and the resample
    values by dist_*.csv stem.

    Every (test set, measure) runs the BOOTSTRAP_ENTRIES. An entry is
    None when the point estimate of a treatment it scores is undefined.
    """
    sections = ("point_estimates", "confusion", "contingency_vs_federated", "common_agreement")
    payload = {section: {} for section in sections + ("bootstrap", "differences_vs_federated")}
    payload["config"] = {
        "seed": seed,
        "n_resamples": n_resamples,
        "measures": list(REPORT_MEASURES),
        "treatments": list(TREATMENT_KEYS),
    }
    dists: dict[str, np.ndarray] = {}
    for set_name in TEST_SET_NAMES:
        sets = {key: scored[key][set_name] for key in TREATMENT_KEYS}
        bundles = {key: metric_bundle(s) for key, s in sets.items()}
        payload["confusion"][set_name] = {key: bundles[key][0]._asdict() for key in TREATMENT_KEYS}
        payload["contingency_vs_federated"][set_name] = {
            key: dict(zip(CONTINGENCY_KEYS, contingency(sets[FEDERATED_KEY], sets[key]))) for key in OTHER_KEYS
        }
        agreement = common_agreement(list(sets.values()))
        payload["common_agreement"][set_name] = {**asdict(agreement), "agreement_rate": agreement.agreement_rate}
        points = payload["point_estimates"][set_name] = {}
        for measure in REPORT_MEASURES:
            point = points[measure] = {key: bundles[key][1][measure] for key in TREATMENT_KEYS}
            for section, label, key, keys, stem in BOOTSTRAP_ENTRIES:
                cell = payload[section].setdefault(set_name, {}).setdefault(measure, {})
                cell[key] = None
                if any(point[k] is None for k in keys):
                    continue
                entry_seed = derive_report_seed(seed, label, set_name, measure, key)
                if label == "ci":
                    result, samples = bootstrap_ci(sets[key], measure, n_resamples, entry_seed)
                else:
                    result, samples = bootstrap_diff(sets[key], sets[FEDERATED_KEY], measure, n_resamples, entry_seed)
                cell[key] = asdict(result)
                dists[f"dist_{set_name}_{measure}_{stem}"] = samples
    return payload, dists


def cmd_report(args: argparse.Namespace) -> int:
    opt = resolve_options(args, REPORT_FIELDS)
    run_dir = Path(opt["run"])
    out_dir = Path(opt["out"]) if opt["out"] else run_dir / "report"
    scored = _load_scored_sets(run_dir)
    payload, dists = build_comparison(scored, opt["seed"], opt["bootstrap_n"])
    dists = dists if args.emit_distributions else {}
    payload["config"]["run_dir"] = str(run_dir)
    curves = {}
    for key, sets in scored.items():
        for set_name, s in sets.items():
            try:
                curves[f"roc_{key}_{set_name}"] = roc_curve(s)
            except UndefinedMetricError:
                continue
    written = {f"{stem}.csv" for stem in [*dists, *curves]}
    stale = sorted(
        p.name for pattern in ("dist_*.csv", "roc_*.csv") for p in out_dir.glob(pattern) if p.name not in written
    )
    if stale:
        raise ValueError(f"report directory {out_dir} holds {stale[0]}, which this report would not write")

    out_dir.mkdir(parents=True, exist_ok=True)
    for stem, samples in dists.items():
        _write_lines(out_dir / f"{stem}.csv", (f"{float(value)!r}" for value in samples))
    for stem, curve in curves.items():
        rows = (f"{fpr!r},{tpr!r},{threshold!r}" for fpr, tpr, threshold in curve)
        _write_lines(out_dir / f"{stem}.csv", ["fpr,tpr,threshold", *rows])
    _write_json(out_dir / "comparison.json", payload)
    _write_lines(out_dir / "comparison.txt", _render_text_report(payload))
    print(f"report written to {out_dir}")
    return 0


def derive_report_seed(seed: int, *parts: str) -> int:
    return derive_seed(seed, "report", *parts)


def _fmt(value) -> str:
    if value is None:
        return "undefined"
    return f"{value:.3f}"


def _render_text_report(payload: dict) -> list[str]:
    lines = ["treatment comparison", ""]
    for set_name in TEST_SET_NAMES:
        lines.append(f"== test set {set_name} ==")
        lines.append("  ".join(f"{h:>12}" for h in ("measure", *TREATMENT_KEYS)))
        for measure in REPORT_MEASURES:
            row = [measure] + [_fmt(payload["point_estimates"][set_name][measure][k]) for k in TREATMENT_KEYS]
            lines.append("  ".join(f"{c:>12}" for c in row))
        lines += ["", "confusion (tn fp / fn tp):"]
        for key in TREATMENT_KEYS:
            c = payload["confusion"][set_name][key]
            lines.append(f"  {key:>10}: {c['tn']:>5} {c['fp']:>5} / {c['fn']:>5} {c['tp']:>5}")
        lines += ["", "contingency vs federated (both / fed-only / other-only / neither):"]
        for key in OTHER_KEYS:
            cells = payload["contingency_vs_federated"][set_name][key]
            lines.append(f"  {key:>10}: " + " ".join(f"{cells[k]:>5}" for k in CONTINGENCY_KEYS))
        ca = payload["common_agreement"][set_name]
        lines.append("")
        lines.append(
            "common agreement: "
            f"neg correct/wrong/disagree {ca['neg_correct']}/{ca['neg_wrong']}/{ca['neg_disagree']}, "
            f"pos correct/wrong/disagree {ca['pos_correct']}/{ca['pos_wrong']}/{ca['pos_disagree']}, "
            f"rate {ca['agreement_rate']:.3f}"
        )
        lines += ["", "bootstrap 95% CIs and paired differences vs federated:"]
        for measure in REPORT_MEASURES:
            for section, label, key, _, _ in BOOTSTRAP_ENTRIES:
                result = payload[section][set_name][measure][key]
                name = f"{measure:>10} {key:>10}" + (f" - {FEDERATED_KEY}" if label == "diff" else "")
                if result is None:
                    lines.append(f"  {name}: undefined")
                elif label == "ci":
                    lines.append(
                        f"  {name}: mean {result['mean']:.3f} [{result['ci_low']:.3f}, {result['ci_high']:.3f}]"
                    )
                else:
                    verdict = "significant" if result["significant"] else "not significant"
                    lines.append(
                        f"  {name}: {result['mean_diff']:+.3f} "
                        f"[{result['ci_low']:+.3f}, {result['ci_high']:+.3f}] {verdict}"
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

    def add_command(name, func, fields, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="flat key=value config file; flags take precedence")
        for key, (*_, text) in fields.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=text)
        p.set_defaults(func=func)
        return p

    add_command("synth", cmd_synth, SYNTH_FIELDS, "generate a synthetic admission dataset (JSON lines)")
    add_command("split", cmd_split, SPLIT_FIELDS, "build and verify a leakage-safe split plan")
    p_run = add_command("run", cmd_run, RUN_FIELDS, "grid search, final fits, and test evaluation per treatment")
    p_run.add_argument("--force", action="store_true", help="allow writing into a non-empty run directory")
    p_report = add_command(
        "report", cmd_report, REPORT_FIELDS, "bootstrap comparison report over a completed run directory"
    )
    p_report.add_argument(
        "--emit-distributions",
        action="store_true",
        help="also write full resample distributions as CSV",
    )
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
