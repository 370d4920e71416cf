"""Multi-silo training with per-epoch parameter averaging.

Every epoch each silo runs one local pass of minibatch SGD starting
from the shared model, the server averages the updated parameter sets
(weighted by silo training size, or uniformly), validates the averaged
model on the concatenated validation sets, and early-stops on that
validation loss.

Both trainers run the same round loop (_rounds), which yields each
round's local models and their average, and each measures its own
rounds: federated_train validates the average and early-stops on its
loss, train_for_epochs runs a fixed number of rounds and logs every
silo's training loss. With a single silo a round is one epoch of plain
training.

Privacy boundary: the orchestration functions (_rounds, federated_train,
train_for_epochs, federated_validate) touch silos only through
local_train_epoch, local_validate, and the aggregate counters
(name, n_train, label_counts). Raw features and labels never cross
that interface; only parameters travel in, and parameters or
(logits, labels) travel out. The concatenated validation labels do
leave each silo, which is the documented cost of central validation.

Each local epoch, training loss, averaging and validation pass runs
with floating-point overflow and invalid operations raising, so a
diverging run stops where it first produces a non-finite number, with
a NumericalError naming the silo (or the server) and the epoch.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .network import (
    INPUT_DIM,
    ModelParams,
    TrainConfig,
    _frozen,
    average_models,
    backward,
    batch_loss,
    forward_batch,
    init_model,
    loss_from_logits,
    lr_at_epoch,
    sgd_step,
    sigmoid,
)
from .seeds import derive_seed, make_rng
from .stats import ScoredSet


@dataclass(frozen=True, eq=False)
class Silo:
    """One institution's private shard: training and validation arrays.

    Validated once, here, so training steps can work on plain slices:
    the training and the validation features must be finite with
    INPUT_DIM columns, and their labels 0 or 1, one per row. The silo
    keeps read-only arrays: it adopts an array that is already read-only
    and owns its memory (see _frozen), and copies anything else. The
    caller must not make an adopted array writeable again.
    """

    name: str
    train_features: np.ndarray
    train_labels: np.ndarray
    val_features: np.ndarray
    val_labels: np.ndarray

    def __post_init__(self):
        if not self.name:
            raise ValueError("silo name must be non-empty")
        for part in ("train", "val"):
            x = _frozen(getattr(self, f"{part}_features"))
            y = _frozen(getattr(self, f"{part}_labels"))
            if x.ndim != 2 or x.shape[1] != INPUT_DIM:
                raise ValueError(f"{part} features must have shape (n, {INPUT_DIM}), got {x.shape}")
            if y.shape != x.shape[:1]:
                raise ValueError(f"{part} features and labels must have matching lengths")
            if not np.isfinite(x).all():
                raise ValueError(f"{part} features contain non-finite entries")
            if not ((y == 0.0) | (y == 1.0)).all():
                raise ValueError(f"{part} labels must be 0 or 1")
            object.__setattr__(self, f"{part}_features", x)
            object.__setattr__(self, f"{part}_labels", y)

    @property
    def n_train(self) -> int:
        return int(self.train_labels.shape[0])

    @property
    def n_val(self) -> int:
        return int(self.val_labels.shape[0])

    def label_counts(self) -> tuple[int, int]:
        """(negatives, positives) in the training shard."""
        pos = int(self.train_labels.sum())
        return self.n_train - pos, pos


@dataclass(frozen=True)
class RoundLog:
    """One epoch of the shared loop."""

    epoch: int
    lr: float
    train_losses: dict[str, float]
    val_loss: float | None


@contextmanager
def _raise_numerical(where: str, epoch: int):
    """Overflow or an invalid operation inside raises, and any numerical
    failure leaves as a NumericalError naming where and in which epoch it
    happened. The error state is set once per block, not per step."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except (FloatingPointError, NumericalError) as exc:
        raise NumericalError(f"{where}, epoch {epoch}: {exc}") from None


def local_train_epoch(
    model: ModelParams, silo: Silo, config: TrainConfig, pos_weight: float, epoch: int
) -> ModelParams:
    """One full local pass in shuffled minibatches with the given
    positive-class loss weight; returns new parameters.

    The shuffle stream is named by (config.seed, silo.name, epoch), so
    the pass is reproducible regardless of when or where it runs.
    """
    if silo.n_train < 1:
        raise ValueError(f"silo {silo.name!r} has no training data")
    lr = lr_at_epoch(config.lr0, config.gamma, epoch)
    order = make_rng(config.seed, "shuffle", silo.name, epoch).permutation(silo.n_train)
    x, y = silo.train_features, silo.train_labels
    with _raise_numerical(f"silo {silo.name!r}", epoch):
        for start in range(0, silo.n_train, config.batch_size):
            chunk = order[start : start + config.batch_size]
            model = sgd_step(model, backward(model, x[chunk], y[chunk], pos_weight), lr, config.weight_decay)
    return model


def local_validate(model: ModelParams, silo: Silo) -> tuple[np.ndarray, np.ndarray]:
    """Silo-side evaluation: (logits, labels) for the local validation set."""
    if silo.n_val < 1:
        raise ValueError(f"silo {silo.name!r} has no validation data")
    return forward_batch(model, silo.val_features), silo.val_labels


def federated_validate(model: ModelParams, silos: list[Silo], pos_weight: float) -> tuple[float, ScoredSet]:
    """Validate one model across all silos.

    Each silo evaluates locally; the server concatenates the logits and
    labels in fixed silo order. Returns the loss over the concatenation
    and its ScoredSet: the labels and the sigmoid scores.
    """
    if not silos:
        raise ValueError("at least one silo is required")
    parts = [local_validate(model, silo) for silo in silos]
    logits = np.concatenate([logits for logits, _ in parts])
    labels = np.concatenate([labels for _, labels in parts])
    return loss_from_logits(logits, labels, pos_weight), ScoredSet(labels, sigmoid(logits))


def resolve_pos_weight(silos: list[Silo]) -> float:
    """The negative/positive ratio of the silos' pooled training labels,
    which must hold both classes."""
    counts = [silo.label_counts() for silo in silos]
    neg, pos = sum(n for n, _ in counts), sum(p for _, p in counts)
    if pos == 0 or neg == 0:
        raise ValueError(f"cannot derive pos_weight: no {'positive' if pos == 0 else 'negative'} training samples")
    return neg / pos


def _rounds(silos: list[Silo], config: TrainConfig, max_epochs: int):
    """The FedAvg round loop shared by both trainers.

    Checks the silos and resolves pos_weight and the aggregation weights
    once. Each round every silo runs one local epoch from the shared
    model and the server averages the results; the round yields
    (epoch, the silos' local models, their average, pos_weight), and
    each trainer measures what it logs.
    """
    if not silos:
        raise ValueError("at least one silo is required")
    if len({s.name for s in silos}) != len(silos):
        raise ValueError("silo names must be unique")
    for silo in silos:
        if silo.n_train < 1:
            raise ValueError(f"silo {silo.name!r} has no training data")
    pos_weight = resolve_pos_weight(silos)
    weights = [1.0] * len(silos) if config.uniform_weights else [float(s.n_train) for s in silos]

    model = init_model(config.hidden_size, derive_seed(config.seed, "init"))
    for epoch in range(max_epochs):
        updated = [local_train_epoch(model, silo, config, pos_weight, epoch) for silo in silos]
        with _raise_numerical("averaging on the server", epoch):
            model = average_models(updated, weights)
        yield epoch, updated, model, pos_weight


def _silo_train_loss(model: ModelParams, silo: Silo, pos_weight: float, epoch: int) -> float:
    """Silo-side: loss of its own updated model over its training shard."""
    with _raise_numerical(f"silo {silo.name!r} training loss", epoch):
        return batch_loss(model, silo.train_features, silo.train_labels, pos_weight)


def federated_train(silos: list[Silo], config: TrainConfig) -> tuple[ModelParams, list[RoundLog], ScoredSet]:
    """Train across silos with per-epoch averaging and early stopping.

    Returns the checkpoint with the lowest validation loss, the per-epoch
    logs (validation loss only: no round runs a training-loss pass) and
    the ScoredSet of the round that kept the checkpoint. Only a strictly
    lower loss is an improvement: training stops after config.patience
    rounds in a row without one, and a non-finite loss raises
    NumericalError. With a single silo this is exactly plain centralized training.
    """
    for silo in silos:
        if silo.n_val < 1:
            raise ValueError(f"silo {silo.name!r} has no validation data")
    best_loss, best_params, best_scored, since_best = math.inf, None, None, 0
    logs: list[RoundLog] = []
    for epoch, _, model, pos_weight in _rounds(silos, config, config.max_epochs):
        with _raise_numerical(f"validation on silos {', '.join(repr(s.name) for s in silos)}", epoch):
            val_loss, scored = federated_validate(model, silos, pos_weight)
        logs.append(RoundLog(epoch, lr_at_epoch(config.lr0, config.gamma, epoch), {}, val_loss))
        if not np.isfinite(val_loss):
            raise NumericalError(f"validation loss is not finite: {val_loss}")
        if val_loss < best_loss:
            best_loss, best_params, best_scored, since_best = val_loss, model, scored, 0
        else:
            since_best += 1
            if since_best >= config.patience:
                break
    return best_params, logs, best_scored


def train_for_epochs(silos: list[Silo], config: TrainConfig, n_epochs: int) -> tuple[ModelParams, list[RoundLog]]:
    """Fixed-budget variant: no validation, no early stopping; each round logs every silo's training loss."""
    if n_epochs < 1:
        raise ValueError("n_epochs must be at least 1")
    logs: list[RoundLog] = []
    for epoch, updated, model, pos_weight in _rounds(silos, config, n_epochs):
        losses = {silo.name: _silo_train_loss(local, silo, pos_weight, epoch) for silo, local in zip(silos, updated)}
        logs.append(RoundLog(epoch, lr_at_epoch(config.lr0, config.gamma, epoch), losses, val_loss=None))
    return model, logs
