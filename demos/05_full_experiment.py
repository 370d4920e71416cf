"""The whole pipeline in miniature: four treatments on one dataset.

Grid search with patient-grouped cross-validation, a median-budget
final fit, and combined-test evaluation, for each of: local A, local
B, federated, centralised. Takes a few seconds.

Run with: python3 demos/05_full_experiment.py
"""

from fedvra.data import SynthConfig, generate_synthetic, make_split_plan
from fedvra.experiment import GridSpec, Treatment, run_treatments
from fedvra.network import TrainConfig

records = generate_synthetic(
    SynthConfig(n_patients=500, seed=23, positive_rate=0.15, class_separation=1.2, ward_shift=1.0)
)
plan = make_split_plan(records, test_fraction=0.2, n_folds=3, seed=0)
print(f"{len(records)} records; {len(plan.test_ids)} held out for testing")

grid = GridSpec(hidden_sizes=(8, 16), learning_rates=(0.01,), weight_decays=(1e-4,))
config = TrainConfig(lr0=0.01, hidden_size=8, seed=7, batch_size=32, max_epochs=15, patience=4)

runs = run_treatments(list(Treatment), records, plan, grid, config, threads=4)

print("\n== cross-validation selection ==")
for key, run in sorted(runs.items()):
    chosen = run.best_combo
    print(
        f"  {key:<10} hidden={chosen.hidden_size:<3} lr={chosen.learning_rate} "
        f"wd={chosen.weight_decay}  cv F1 per combo: "
        + ", ".join(f"{r.f1:.3f}" for r in run.cv_results)
        + f"  final budget {run.epoch_budget} epochs"
    )

print("\n== combined test set ==")
header = f"  {'treatment':<10} {'precision':>9} {'recall':>7} {'F1':>6} {'ROC-AUC':>8}"
print(header)
for key in ("a", "b", "federated", "central"):
    ev = runs[key].evaluations["combined"]
    auc = f"{ev.roc_auc:.3f}" if ev.roc_auc is not None else "undef"
    print(f"  {key:<10} {ev.precision:>9.3f} {ev.recall:>7.3f} {ev.f1:>6.3f} {auc:>8}")

print("\nper-institution F1 for the federated model:")
for set_name in ("A", "B"):
    ev = runs["federated"].evaluations[set_name]
    print(f"  test set {set_name}: F1 {ev.f1:.3f} on {len(ev.record_ids)} records")
