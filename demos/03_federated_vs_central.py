"""Federated averaging across two silos vs pooling all the data.

Run with: python3 demos/03_federated_vs_central.py
"""

from fedvra.data import SynthConfig, generate_synthetic, make_split_plan, split_index
from fedvra.experiment import Treatment, silos_for_treatment
from fedvra.federated import federated_train, federated_validate, resolve_pos_weight
from fedvra.network import TrainConfig
from fedvra.stats import metric_bundle

records = generate_synthetic(
    SynthConfig(n_patients=400, seed=11, positive_rate=0.15, class_separation=1.5, ward_shift=1.0)
)
plan = make_split_plan(records, test_fraction=0.2, n_folds=5, seed=0)
index = split_index(records, plan)  # every record's institution and fold
config = TrainConfig(lr0=0.01, hidden_size=16, seed=3, batch_size=32, max_epochs=30, patience=5)

print("== two-silo federation (institutions A and B, fold 1 held out) ==")
silos = silos_for_treatment(Treatment.FEDERATED, records, index, heldout_fold=1)
for silo in silos:
    neg, pos = silo.label_counts()
    print(f"  silo {silo.name}: {silo.n_train} train ({pos} positive), {silo.n_val} val")

params, logs, kept = federated_train(silos, config)
print(f"trained for {len(logs)} rounds; per-round validation loss:")
for log in logs:
    print(f"  epoch {log.epoch:>2}: val={log.val_loss:.4f}")
# the kept checkpoint is measured from the set its round scored, as a cross-validation fit is
best = min(logs, key=lambda log: log.val_loss)
_, metrics = metric_bundle(kept)
print(f"kept the checkpoint of epoch {best.epoch}: val={best.val_loss:.4f}  f1={metrics['f1']:.3f}")

print("\n== the same records pooled into one silo: plain training ==")
pool = silos_for_treatment(Treatment.CENTRALISED, records, index, heldout_fold=1)
print(f"  silo {pool[0].name}: {pool[0].n_train} train, {pool[0].n_val} val")
pooled_params, pooled_logs, _ = federated_train(pool, config)
print(f"trained for {len(pooled_logs)} epochs; best validation loss {min(log.val_loss for log in pooled_logs):.4f}")

print("\n== what averaging does to held-out loss ==")
# train each silo alone and compare it, the federation and the pool on
# the full validation pool
models = {"A alone": federated_train(silos[:1], config)[0], "B alone": federated_train(silos[1:], config)[0]}
models.update(federated=params, pooled=pooled_params)
pos_weight = resolve_pos_weight(silos)
for label, model in models.items():
    loss, scored = federated_validate(model, silos, pos_weight)
    _, metrics = metric_bundle(scored)
    print(f"  {label:<10} pooled val loss={loss:.4f}  f1={metrics['f1']:.3f}")
