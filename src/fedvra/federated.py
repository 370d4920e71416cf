"""Multi-silo training with per-epoch parameter averaging.

Every epoch each silo runs one local pass of minibatch SGD starting
from the shared model, the server averages the updated parameter sets
(weighted by silo training size, or uniformly), validates the averaged
model on the concatenated validation sets, and early-stops on that
validation loss.

Both trainers run the same round loop (_rounds): federated_train adds
validation and early stopping on top, train_for_epochs runs a fixed
number of rounds. With a single silo a round is one epoch of plain
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
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalError
from .network import (
    INPUT_DIM,
    ModelParams,
    TrainConfig,
    _frozen,
    average_models,
    backward,
    forward_batch,
    init_model,
    loss_from_logits,
    lr_at_epoch,
    sgd_step,
    sigmoid,
)
from .seeds import derive_seed, make_rng
from .stats import ScoredSet, metric_bundle


@dataclass(frozen=True, eq=False)
class Silo:
    """One institution's private shard: training and validation arrays.

    Validated once, here, so training steps can work on plain slices:
    the training and the validation features must be finite with
    INPUT_DIM columns, and their labels 0 or 1, one per row. The silo
    keeps read-only arrays of its own: it adopts an array that is
    already read-only and owns its memory, and copies anything else.
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
    # metric_bundle's five measures, then the confusion counts tn, fp, fn and tp
    metrics: dict[str, float | int | None] | None


@dataclass(frozen=True)
class EarlyStopState:
    """Best checkpoint so far plus the non-improvement counter."""

    patience: int
    best_loss: float = math.inf
    best_params: ModelParams | None = None
    epochs_since_improvement: int = 0

    def __post_init__(self):
        if self.patience < 1:
            raise ValueError("patience must be at least 1")


def early_stop_update(
    state: EarlyStopState, loss: float, params: ModelParams
) -> tuple[EarlyStopState, bool]:
    """Fold one validation loss into the state; True means stop now.

    Strict improvement resets the counter and stores the checkpoint;
    otherwise the counter grows and training stops once it reaches the
    patience.
    """
    if not np.isfinite(loss):
        raise NumericalError(f"validation loss is not finite: {loss}")
    if loss < state.best_loss:
        return replace(state, best_loss=loss, best_params=params, epochs_since_improvement=0), False
    counter = state.epochs_since_improvement + 1
    return replace(state, epochs_since_improvement=counter), counter >= state.patience


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
    logits_parts = []
    label_parts = []
    for silo in silos:
        logits, labels = local_validate(model, silo)
        logits_parts.append(logits)
        label_parts.append(labels)
    logits = np.concatenate(logits_parts)
    labels = np.concatenate(label_parts)
    return loss_from_logits(logits, labels, pos_weight), ScoredSet(labels, sigmoid(logits))


def resolve_pos_weight(silos: list[Silo]) -> float:
    """The negative/positive ratio of the silos' pooled training labels."""
    neg = 0
    pos = 0
    for silo in silos:
        n, p = silo.label_counts()
        neg += n
        pos += p
    if pos == 0:
        raise ValueError("cannot derive pos_weight: no positive training samples")
    return neg / pos


def _rounds(silos: list[Silo], config: TrainConfig, max_epochs: int, train_losses: bool = True):
    """The FedAvg round loop shared by both trainers.

    Checks the silos and resolves pos_weight and the aggregation weights
    once. Each round every silo runs one local epoch from the shared
    model and the server averages the results; the round yields
    (averaged model, RoundLog without validation, pos_weight). Without
    train_losses no silo computes its training loss and the logs'
    train_losses are empty.
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
        losses = {
            silo.name: _silo_train_loss(local_model, silo, pos_weight, epoch)
            for silo, local_model in zip(silos, updated)
        } if train_losses else {}
        with _raise_numerical("averaging on the server", epoch):
            model = average_models(updated, weights)
        log = RoundLog(
            epoch=epoch,
            lr=lr_at_epoch(config.lr0, config.gamma, epoch),
            train_losses=losses,
            val_loss=None,
            metrics=None,
        )
        yield model, log, pos_weight


def _silo_train_loss(model: ModelParams, silo: Silo, pos_weight: float, epoch: int) -> float:
    """Silo-side: loss of its own updated model over its training shard."""
    with _raise_numerical(f"silo {silo.name!r} training loss", epoch):
        return loss_from_logits(forward_batch(model, silo.train_features), silo.train_labels, pos_weight)


def federated_train(
    silos: list[Silo], config: TrainConfig, *, train_losses: bool = True
) -> tuple[ModelParams, list[RoundLog]]:
    """Train across silos with per-epoch averaging and early stopping.

    Returns the checkpoint with the lowest validation loss and the
    per-epoch logs. With a single silo this reduces exactly to plain
    centralized training. train_losses=False skips each round's
    training-loss pass over every silo's shard (a fit whose logs keep
    only validation, as cross-validation's do).
    """
    for silo in silos:
        if silo.n_val < 1:
            raise ValueError(f"silo {silo.name!r} has no validation data")
    state = EarlyStopState(patience=config.patience)
    logs: list[RoundLog] = []
    for model, log, pos_weight in _rounds(silos, config, config.max_epochs, train_losses):
        with _raise_numerical(f"validation on silos {', '.join(repr(s.name) for s in silos)}", log.epoch):
            val_loss, scored = federated_validate(model, silos, pos_weight)
            conf, metrics = metric_bundle(scored)
        logs.append(replace(log, val_loss=val_loss, metrics={**metrics, **conf._asdict()}))
        state, stop = early_stop_update(state, val_loss, model)
        if stop:
            break
    assert state.best_params is not None
    return state.best_params, logs


def train_for_epochs(silos: list[Silo], config: TrainConfig, n_epochs: int) -> tuple[ModelParams, list[RoundLog]]:
    """Fixed-budget variant: no validation, no early stopping."""
    if n_epochs < 1:
        raise ValueError("n_epochs must be at least 1")
    logs: list[RoundLog] = []
    for model, log, _ in _rounds(silos, config, n_epochs):
        logs.append(log)
    return model, logs
