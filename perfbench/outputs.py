"""Output checks and exact work counts for one finished pipeline.

Digests cover every deterministic file the stages write; a pinned file
that is missing or differs is one failed operation. Files the pinned
set does not name (for example later timing or telemetry files) are
not checked.

The work counts are derived from the outputs, the plan and the data
file alone, not from timings, so they repeat exactly for a given input
seed and can serve as the numerators of the throughput metrics.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from workloads import DATA, PLAN, RUN_DIR


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def collect_digests(workdir: Path) -> dict[str, str]:
    """SHA-256 of the data, the plan and every file under the run directory."""
    out = {}
    for name in (DATA, PLAN):
        if (workdir / name).is_file():
            out[name] = sha256_file(workdir / name)
    run_dir = workdir / RUN_DIR
    if run_dir.is_dir():
        for path in sorted(p for p in run_dir.rglob("*") if p.is_file()):
            out[path.relative_to(workdir).as_posix()] = sha256_file(path)
    return out


def check_digests(actual: dict[str, str], expected: dict[str, str]) -> list[str]:
    """One problem line per expected file that is missing or differs."""
    problems = []
    for name in sorted(expected):
        if name not in actual:
            problems.append(f"missing {name}")
        elif actual[name] != expected[name]:
            problems.append(f"digest mismatch {name}")
    return problems


def _record_wards(data_path: Path) -> list[str]:
    with open(data_path, encoding="utf-8") as fh:
        return [json.loads(line)["ward"] for line in fh if line.strip()]


def _silo_sizes(treatment: str, wards, plan: dict, heldout_fold: int | None) -> list[int]:
    """Training-silo sizes of one fit, mirroring the four treatments."""
    inst_of_ward = plan["institution_of_ward"]
    by_inst = {"A": 0, "B": 0}
    for rid, fold in plan["fold_of_record"].items():
        if heldout_fold is None or fold != heldout_fold:
            by_inst[inst_of_ward[wards[int(rid)]]] += 1
    if treatment == "central":
        return [by_inst["A"] + by_inst["B"]]
    if treatment == "a":
        return [by_inst["A"]]
    if treatment == "b":
        return [by_inst["B"]]
    return [by_inst["A"], by_inst["B"]]


def work_counts(workdir: Path) -> dict[str, int]:
    """Exact work counts of a finished pipeline.

    train_samples: sum over CV and final fits of epochs run times the
    fit's training-silo sizes. steps: the same with each silo's size
    replaced by its minibatch count. fits and rounds count the fits and
    their epochs. resamples and redrawn sum n_resamples and n_redrawn
    over every bootstrap in comparison.json.
    """
    wards = _record_wards(workdir / DATA)
    plan = json.loads((workdir / PLAN).read_text(encoding="utf-8"))
    run_dir = workdir / RUN_DIR
    config = json.loads((run_dir / "run_config.json").read_text(encoding="utf-8"))
    batch = config["batch_size"]
    counts = dict(train_samples=0, steps=0, fits=0, rounds=0)

    def add(epochs: int, sizes: list[int]) -> None:
        counts["fits"] += 1
        counts["rounds"] += epochs
        counts["train_samples"] += epochs * sum(sizes)
        counts["steps"] += epochs * sum(math.ceil(n / batch) for n in sizes)

    for treatment in config["treatments"]:
        tdir = run_dir / treatment
        with open(tdir / "cv_fits.jsonl", encoding="utf-8") as fh:
            for line in fh:
                fit = json.loads(line)
                add(fit["epochs_run"], _silo_sizes(treatment, wards, plan, fit["fold"]))
        budget = json.loads((tdir / "cv_results.json").read_text(encoding="utf-8"))["epoch_budget"]
        add(budget, _silo_sizes(treatment, wards, plan, None))

    comparison = json.loads((run_dir / "report" / "comparison.json").read_text(encoding="utf-8"))
    counts["resamples"] = counts["redrawn"] = 0
    for section in ("bootstrap", "differences_vs_federated"):
        for by_measure in comparison[section].values():
            for by_treatment in by_measure.values():
                for entry in by_treatment.values():
                    if entry is not None:
                        counts["resamples"] += entry["n_resamples"] + entry["n_redrawn"]
                        counts["redrawn"] += entry["n_redrawn"]
    counts["records"] = len(wards)
    return counts
