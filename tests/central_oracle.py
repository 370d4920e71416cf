"""The centralised trainer written as one flat loop: the test oracle
for single-silo federation.

It follows the federated loop's seeding conventions (the init stream,
and a per-epoch shuffle stream named by `name`) but shares none of its
orchestration code, so acceptance check 03 and the experiment tests can
check bit for bit that a one-silo federation is plain training.
"""

import numpy as np

from fedvra.experiment import CENTRAL_SILO_NAME
from fedvra.federated import RoundLog, Silo
from fedvra.network import (
    ModelParams,
    TrainConfig,
    backward,
    batch_loss,
    init_model,
    lr_at_epoch,
    sgd_step,
)
from fedvra.seeds import derive_seed, make_rng


def train_centralized(
    train_features: np.ndarray,
    train_labels: np.ndarray,
    val_features: np.ndarray,
    val_labels: np.ndarray,
    config: TrainConfig,
    name: str = CENTRAL_SILO_NAME,
) -> tuple[ModelParams, list[RoundLog]]:
    """Plain single-pool trainer, written as a flat loop.

    Follows the same seeding conventions as the federated loop (init
    stream, per-epoch shuffle stream named by `name`) so the two can be
    compared bit for bit, while sharing none of its orchestration code.
    """
    pool = Silo(name, train_features, train_labels, val_features, val_labels)  # validates the arrays
    if pool.n_train < 1 or pool.n_val < 1:
        raise ValueError("training and validation sets must be non-empty")
    x, y, vx, vy = pool.train_features, pool.train_labels, pool.val_features, pool.val_labels
    n_pos = float(y.sum())
    if n_pos == 0:
        raise ValueError("cannot derive pos_weight: no positive training samples")
    pos_weight = (y.shape[0] - n_pos) / n_pos

    model = init_model(config.hidden_size, derive_seed(config.seed, "init"))
    best_loss = np.inf
    best_model = model
    since_improvement = 0
    logs: list[RoundLog] = []
    for epoch in range(config.max_epochs):
        lr = lr_at_epoch(config.lr0, config.gamma, epoch)
        order = make_rng(config.seed, "shuffle", name, epoch).permutation(x.shape[0])
        for start in range(0, x.shape[0], config.batch_size):
            chunk = order[start : start + config.batch_size]
            model = sgd_step(model, backward(model, x[chunk], y[chunk], pos_weight), lr, config.weight_decay)
        train_loss = batch_loss(model, x, y, pos_weight)
        val_loss = batch_loss(model, vx, vy, pos_weight)
        logs.append(RoundLog(epoch=epoch, lr=lr, train_losses={name: train_loss}, val_loss=val_loss))
        if val_loss < best_loss:
            best_loss = val_loss
            best_model = model
            since_improvement = 0
        else:
            since_improvement += 1
            if since_improvement >= config.patience:
                break
    return best_model, logs
