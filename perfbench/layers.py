"""Per-layer metrics of one traced pipeline, from its spans and counts.

A layer is a module of `fedvra`; a span is named `<module>.<function>`.
The harness opens one root span per stage (`stage.<name>`).

Which end-to-end metric each layer metric should move, and where.
cv-threads2 is not gated by BENCHMARK.json (see workloads.py); what the
table says of it holds for runs by hand.

| layer metrics | should move | on workloads |
|---|---|---|
| data.* | setup_s | all |
| data.load_records_*, data.features_matrix_s | run_s | all |
| network.* | run_s, train_samples_per_s | cv-serial, cv-threads2 (no change on report-bootstrap) |
| federated.* | run_s | cv-serial, cv-threads2 |
| experiment.pool_busy_frac | run_s | cv-threads2 (stays near 1 on cv-serial) |
| experiment.* (others) | run_s | cv-serial, cv-threads2 |
| stats.* | report_s, resamples_per_s | report-bootstrap |
| stats.roc_auc_us_p50, stats.pr_auc_us_p50 | run_s | cv-serial, cv-threads2 (per-epoch validation AUCs) |
| cli.* | run_s, report_s | all |
| seeds.* | none: exact counts; a change shows an added or dropped stream | all |
| trace.* | none: the cost and coverage of tracing itself | all |
"""

from __future__ import annotations

import math
from collections import defaultdict

from tracing import overlaps, root_of, self_times

LAYERS = ("data", "network", "federated", "experiment", "stats", "cli", "seeds")

# (name, unit, better); the order is the order of the printed result.
METRICS = (
    ("data.generate_synthetic_s", "s", "lower"),
    ("data.save_records_s", "s", "lower"),
    ("data.load_records_s", "s", "lower"),
    ("data.load_records_us_per_record", "us", "lower"),
    ("data.make_split_plan_s", "s", "lower"),
    ("data.verify_split_plan_s", "s", "lower"),
    ("data.features_matrix_s", "s", "lower"),
    ("network.steps", "count", "higher"),
    ("network.step_us_p50", "us", "lower"),
    ("network.step_us_p99", "us", "lower"),
    ("network.backward_us_p50", "us", "lower"),
    ("network.sgd_step_us_p50", "us", "lower"),
    ("network.forward_batch_s", "s", "lower"),
    ("network.average_models_s", "s", "lower"),
    ("federated.rounds", "count", "higher"),
    ("federated.local_train_epoch_s", "s", "lower"),
    ("federated.local_train_epoch_self_s", "s", "lower"),
    ("federated.federated_validate_s", "s", "lower"),
    ("federated.threshold_and_rank_metrics_s", "s", "lower"),
    ("federated.federated_train_s", "s", "lower"),
    ("federated.train_for_epochs_s", "s", "lower"),
    ("experiment.fits", "count", "higher"),
    ("experiment.grid_search_cv_s", "s", "lower"),
    ("experiment.silos_for_treatment_s", "s", "lower"),
    ("experiment.train_final_s", "s", "lower"),
    ("experiment.evaluate_s", "s", "lower"),
    ("experiment.pool_busy_frac", "ratio", "higher"),
    ("stats.resamples", "count", "higher"),
    ("stats.redraw_frac", "ratio", "lower"),
    ("stats.bootstrap_ci_s", "s", "lower"),
    ("stats.bootstrap_diff_s", "s", "lower"),
    ("stats.resample_us", "us", "lower"),
    ("stats.roc_auc_us_p50", "us", "lower"),
    ("stats.pr_auc_us_p50", "us", "lower"),
    ("stats.roc_curve_s", "s", "lower"),
    ("stats.common_agreement_s", "s", "lower"),
    ("cli.cmd_synth_s", "s", "lower"),
    ("cli.cmd_split_s", "s", "lower"),
    ("cli.cmd_run_self_s", "s", "lower"),
    ("cli.cmd_report_self_s", "s", "lower"),
    ("seeds.make_rng_calls", "count", "lower"),
    ("seeds.derive_seed_calls", "count", "lower"),
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS),
    ("trace.run_network_federated_frac", "ratio", "lower"),
    ("trace.report_stats_frac", "ratio", "lower"),
    ("trace.unattributed_frac", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def step_times(spans) -> list[float]:
    """backward + the sgd_step that follows it on the same thread."""
    pending = {}
    steps = []
    for s in sorted(spans, key=lambda s: s.start):
        if s.name == "network.backward":
            pending[s.thread] = s
        elif s.name == "network.sgd_step" and s.thread in pending:
            steps.append(pending.pop(s.thread).duration + s.duration)
    return steps


def stage_accounting(spans) -> dict[str, dict[str, float]]:
    """Per stage: wall, self time by layer, unattributed time and overlap.

    wall == sum(layer self times) + unattributed - overlap, where
    unattributed is the stage span's own self time and overlap is time
    counted twice because pool workers ran side by side.
    """
    own = self_times(spans)
    over = overlaps(spans)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        root = root_of(s)
        if not root.name.startswith("stage."):
            raise ValueError(f"span {s.name!r} is outside every stage span")
        acc = out.setdefault(root.name[len("stage."):], defaultdict(float))
        if s is root:
            acc["wall"] = s.duration
            acc["unattributed"] = own[s]
        else:
            acc[s.name.partition(".")[0]] += own[s]
        acc["overlap"] += over[s]
    return {stage: dict(acc) for stage, acc in out.items()}


def layer_metrics(spans, stages: dict, counts: dict[str, int], threads: int) -> dict[str, float]:
    """Every metric in METRICS except trace.overhead_frac.

    stages is stage_accounting(spans); counts are the pipeline's work counts.
    """
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    own = self_times(spans)

    def total(name):
        return sum(s.duration for s in by_name[name])

    def self_total(name):
        return sum(own[s] for s in by_name[name])

    def p50_us(name):
        return percentile([s.duration for s in by_name[name]], 0.5) * 1e6

    steps = step_times(spans)
    m = {
        "data.generate_synthetic_s": total("data.generate_synthetic"),
        "data.save_records_s": total("data.save_records"),
        "data.load_records_s": total("data.load_records"),
        "data.load_records_us_per_record": total("data.load_records")
        * 1e6 / max(1, len(by_name["data.load_records"]) * counts["records"]),
        "data.make_split_plan_s": total("data.make_split_plan"),
        "data.verify_split_plan_s": total("data.verify_split_plan"),
        "data.features_matrix_s": total("data.features_matrix"),
        "network.steps": len(steps),
        "network.step_us_p50": percentile(steps, 0.5) * 1e6,
        "network.step_us_p99": percentile(steps, 0.99) * 1e6,
        "network.backward_us_p50": p50_us("network.backward"),
        "network.sgd_step_us_p50": p50_us("network.sgd_step"),
        "network.forward_batch_s": total("network.forward_batch"),
        "network.average_models_s": total("network.average_models"),
        "federated.rounds": counts["rounds"],
        "federated.local_train_epoch_s": total("federated.local_train_epoch"),
        "federated.local_train_epoch_self_s": self_total("federated.local_train_epoch"),
        "federated.federated_validate_s": total("federated.federated_validate"),
        "federated.threshold_and_rank_metrics_s": total("federated.threshold_and_rank_metrics"),
        "federated.federated_train_s": total("federated.federated_train"),
        "federated.train_for_epochs_s": total("federated.train_for_epochs"),
        "experiment.fits": counts["fits"],
        "experiment.grid_search_cv_s": total("experiment.grid_search_cv"),
        "experiment.silos_for_treatment_s": total("experiment.silos_for_treatment"),
        "experiment.train_final_s": total("experiment.train_final"),
        "experiment.evaluate_s": total("experiment.evaluate"),
        "experiment.pool_busy_frac": total("federated.federated_train")
        / max(1e-12, threads * total("experiment.grid_search_cv")),
        "stats.resamples": counts["resamples"],
        "stats.redraw_frac": counts["redrawn"] / max(1, counts["resamples"]),
        "stats.bootstrap_ci_s": total("stats.bootstrap_ci"),
        "stats.bootstrap_diff_s": total("stats.bootstrap_diff"),
        "stats.resample_us": (total("stats.bootstrap_ci") + total("stats.bootstrap_diff"))
        * 1e6 / max(1, counts["resamples"]),
        "stats.roc_auc_us_p50": p50_us("stats.roc_auc"),
        "stats.pr_auc_us_p50": p50_us("stats.pr_auc"),
        "stats.roc_curve_s": total("stats.roc_curve"),
        "stats.common_agreement_s": total("stats.common_agreement"),
        "cli.cmd_synth_s": total("cli.cmd_synth"),
        "cli.cmd_split_s": total("cli.cmd_split"),
        "cli.cmd_run_self_s": self_total("cli.cmd_run"),
        "cli.cmd_report_self_s": self_total("cli.cmd_report"),
        "seeds.make_rng_calls": len(by_name["seeds.make_rng"]),
        "seeds.derive_seed_calls": len(by_name["seeds.derive_seed"]),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(acc.get(layer, 0.0) for acc in stages.values())
    run, report = stages["run"], stages["report"]
    m["trace.run_network_federated_frac"] = (run.get("network", 0.0) + run.get("federated", 0.0)) / (
        run["wall"] + run["overlap"]
    )
    m["trace.report_stats_frac"] = report.get("stats", 0.0) / (report["wall"] + report["overlap"])
    m["trace.unattributed_frac"] = sum(a["unattributed"] for a in stages.values()) / sum(
        a["wall"] for a in stages.values()
    )
    return m
