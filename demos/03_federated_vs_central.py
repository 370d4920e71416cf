"""Federated averaging across two silos vs pooling all the data.

Run with: python3 demos/03_federated_vs_central.py
"""

from fedvra.data import SynthConfig, generate_synthetic, make_split_plan
from fedvra.experiment import Treatment, silos_for_treatment
from fedvra.federated import federated_train, federated_validate, resolve_pos_weight
from fedvra.network import TrainConfig

records = generate_synthetic(
    SynthConfig(n_patients=400, seed=11, positive_rate=0.15, class_separation=1.5, ward_shift=1.0)
)
plan = make_split_plan(records, test_fraction=0.2, n_folds=5, seed=0)
config = TrainConfig(lr0=0.01, hidden_size=16, seed=3, batch_size=32, max_epochs=30, patience=5)

print("== two-silo federation (institutions A and B, fold 1 held out) ==")
silos = silos_for_treatment(Treatment.FEDERATED, records, plan, heldout_fold=1)
for silo in silos:
    neg, pos = silo.label_counts()
    print(f"  silo {silo.name}: {silo.n_train} train ({pos} positive), {silo.n_val} val")

params, logs = federated_train(silos, config)
print(f"trained for {len(logs)} rounds; per-round validation loss:")
for log in logs:
    per_silo = "  ".join(f"{k}={v:.3f}" for k, v in log.train_losses.items())
    print(f"  epoch {log.epoch:>2}: val={log.val_loss:.4f}  train {per_silo}  f1={log.metrics['f1']:.3f}")

print("\n== the same records pooled into one silo: plain training ==")
pool = silos_for_treatment(Treatment.CENTRALISED, records, plan, heldout_fold=1)
print(f"  silo {pool[0].name}: {pool[0].n_train} train, {pool[0].n_val} val")
pooled_params, pooled_logs = federated_train(pool, config)
print(f"trained for {len(pooled_logs)} epochs; best validation loss {min(log.val_loss for log in pooled_logs):.4f}")

print("\n== what averaging does to held-out loss ==")
# train each silo alone and compare it, the federation and the pool on
# the full validation pool
pos_weight = resolve_pos_weight(config, silos)
models = {"A alone": federated_train(silos[:1], config)[0], "B alone": federated_train(silos[1:], config)[0]}
models.update(federated=params, pooled=pooled_params)
for label, model in models.items():
    loss, metrics, _, _ = federated_validate(model, silos, pos_weight)
    print(f"  {label:<10} pooled val loss={loss:.4f}  f1={metrics['f1']:.3f}")
