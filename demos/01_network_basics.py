"""Tour of the network layer: init, forward, weighted loss, SGD, averaging.

Run with: python3 demos/01_network_basics.py
"""

import numpy as np

from fedvra.network import (
    INPUT_DIM,
    average_models,
    backward,
    batch_loss,
    forward_batch,
    init_model,
    lr_at_epoch,
    predict_proba,
    sgd_step,
)

rng = np.random.default_rng(7)

print("== one-hidden-layer classifier ==")
model = init_model(hidden_size=16, seed=42)
print(f"shapes: w1 {model.w1.shape}, b1 {model.b1.shape}, w2 {model.w2.shape}, b2 scalar")

x = rng.standard_normal((8, INPUT_DIM))
y = (rng.uniform(size=8) < 0.25).astype(np.float64)
logits = forward_batch(model, x)
print(f"logits[:3]       = {np.round(logits[:3], 4)}")
print(f"one-record prob  = {predict_proba(model, x[0]):.4f}")

# the positive class is rare, so its loss term is up-weighted by the
# negative-to-positive ratio
pos_weight = (8 - y.sum()) / max(y.sum(), 1.0)
loss = batch_loss(model, x, y, pos_weight)
print(f"weighted BCE with pos_weight={pos_weight:.1f}: {loss:.4f}")

print("\n== one SGD step lowers the training loss ==")
for step in range(5):
    grads = backward(model, x, y, pos_weight)
    lr = lr_at_epoch(0.05, 0.975, step)
    model = sgd_step(model, grads, lr, weight_decay=1e-4)
    print(f"step {step}: lr={lr:.5f} loss={batch_loss(model, x, y, pos_weight):.4f}")

print("\n== learning-rate schedule ==")
for epoch in (0, 10, 50, 100):
    print(f"epoch {epoch:>3}: lr = {lr_at_epoch(0.005, 0.975, epoch):.6f}")
print("ratio at epoch 100:", f"{lr_at_epoch(1.0, 0.975, 100):.4f} (about a tenth)")

print("\n== parameter averaging ==")
m1 = init_model(hidden_size=16, seed=1)
m2 = init_model(hidden_size=16, seed=2)
avg = average_models([m1, m2], weights=[30, 10])
print("weighted mean of first w1 entry:")
print(f"  m1={m1.w1[0, 0]:+.5f}  m2={m2.w1[0, 0]:+.5f}  avg={avg.w1[0, 0]:+.5f}")
print(f"  expected (30*m1 + 10*m2)/40 = {(30 * m1.w1[0, 0] + 10 * m2.w1[0, 0]) / 40:+.5f}")
