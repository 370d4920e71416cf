"""One-hidden-layer binary classifier on 300-dimensional inputs, from scratch.

The network is 300 -> hidden -> 1 with a ReLU hidden layer and a sigmoid
output. The loss is class-weighted binary cross-entropy over the logits

    loss = mean_i of  p * y_i * softplus(-z_i) + (1 - y_i) * softplus(z_i)

which is the numerically stable form of
-[p * y * log(sigmoid(z)) + (1 - y) * log(1 - sigmoid(z))]; the log of a
saturated sigmoid is never materialised. p is the positive-class weight
(typically the negative/positive count ratio of the training set).

Parameters are immutable value objects holding read-only float64
arrays; every operation is a pure function returning new values, so
training is bit-reproducible for a fixed seed and data order. Training
data is validated once, where it enters (federated.Silo): backward and
batch_loss take plain feature and label arrays and check only shapes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import NumericalError

INPUT_DIM = 300


def _frozen(values) -> np.ndarray:
    """Read-only float64 array that no caller can still write to.

    Adopts a read-only float64 array that owns its memory and copies
    anything else.
    """
    arr = values
    if not (type(arr) is np.ndarray and arr.dtype == np.float64 and arr.flags.owndata and not arr.flags.writeable):
        arr = np.array(values, dtype=np.float64)
        arr.setflags(write=False)
    return arr


def _ro(values, shape_hint: str) -> np.ndarray:
    """Finite read-only float64 array (see _frozen)."""
    arr = _frozen(values)
    if not np.isfinite(arr).all():
        raise ValueError(f"{shape_hint} contains non-finite entries")
    return arr


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Weights and biases of the classifier. Immutable."""

    w1: np.ndarray  # (hidden, INPUT_DIM)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden,)
    b2: float

    def __post_init__(self):
        w1 = _ro(self.w1, "w1")
        b1 = _ro(self.b1, "b1")
        w2 = _ro(self.w2, "w2")
        b2 = float(self.b2)
        if w1.ndim != 2 or w1.shape[1] != INPUT_DIM:
            raise ValueError(f"w1 must have shape (hidden, {INPUT_DIM}), got {w1.shape}")
        h = w1.shape[0]
        if h < 1:
            raise ValueError("hidden size must be at least 1")
        if b1.shape != (h,) or w2.shape != (h,):
            raise ValueError("b1 and w2 must have shape (hidden,)")
        if not np.isfinite(b2):
            raise ValueError("b2 must be finite")
        object.__setattr__(self, "w1", w1)
        object.__setattr__(self, "b1", b1)
        object.__setattr__(self, "w2", w2)
        object.__setattr__(self, "b2", b2)

    @property
    def hidden_size(self) -> int:
        return self.w1.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModelParams):
            return NotImplemented
        return (
            np.array_equal(self.w1, other.w1)
            and np.array_equal(self.b1, other.b1)
            and np.array_equal(self.w2, other.w2)
            and self.b2 == other.b2
        )


class Gradients(NamedTuple):
    """Loss gradients as float64 arrays (and a float b2), shaped like the
    matching ModelParams; stored as given, without a copy."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: float


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for one training run.

    pos_weight left as None means "compute the negative/positive ratio
    from the training labels"; the trainers resolve it before any
    silo-level work starts.
    """

    lr0: float
    hidden_size: int
    seed: int
    batch_size: int = 32
    weight_decay: float = 0.0
    gamma: float = 0.975
    max_epochs: int = 120
    patience: int = 7
    pos_weight: float | None = None

    def __post_init__(self):
        if not (np.isfinite(self.lr0) and self.lr0 >= 0):
            raise ValueError("lr0 must be finite and non-negative")
        if self.hidden_size < 1:
            raise ValueError("hidden_size must be at least 1")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if not (np.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError("weight_decay must be finite and non-negative")
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError("gamma must lie in (0, 1]")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be at least 1")
        if self.patience < 1:
            raise ValueError("patience must be at least 1")
        if self.pos_weight is not None and not (np.isfinite(self.pos_weight) and self.pos_weight > 0):
            raise ValueError("pos_weight must be positive when given")


def sigmoid(z):
    """Numerically stable logistic function, elementwise."""
    arr = np.atleast_1d(np.asarray(z, dtype=np.float64))
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    ez = np.exp(arr[~pos])
    out[~pos] = ez / (1.0 + ez)
    if np.ndim(z) == 0:
        return float(out[0])
    return out


def softplus(z):
    """log(1 + exp(z)) without overflow."""
    z = np.asarray(z, dtype=np.float64)
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def init_model(hidden_size: int, seed: int) -> ModelParams:
    """Seeded init: weights uniform in +-1/sqrt(fan_in) per layer, biases zero."""
    if hidden_size < 1:
        raise ValueError("hidden_size must be at least 1")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    rng = np.random.default_rng(seed)
    bound1 = 1.0 / np.sqrt(INPUT_DIM)
    bound2 = 1.0 / np.sqrt(hidden_size)
    w1 = rng.uniform(-bound1, bound1, size=(hidden_size, INPUT_DIM))
    w2 = rng.uniform(-bound2, bound2, size=hidden_size)
    return ModelParams(w1=w1, b1=np.zeros(hidden_size), w2=w2, b2=0.0)


def forward_batch(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Logits for a whole feature matrix (n, INPUT_DIM) -> (n,)."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != INPUT_DIM:
        raise ValueError(f"features must have shape (n, {INPUT_DIM}), got {x.shape}")
    hidden = np.maximum(x @ params.w1.T + params.b1, 0.0)
    return hidden @ params.w2 + params.b2


def forward(params: ModelParams, x: np.ndarray) -> float:
    """Logit for a single input vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (INPUT_DIM,):
        raise ValueError(f"input must be a vector of length {INPUT_DIM}, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("input contains non-finite entries")
    return float(forward_batch(params, x[None, :])[0])


def predict_proba(params: ModelParams, x: np.ndarray) -> float:
    """Probability of the positive class for a single input vector."""
    return float(sigmoid(forward(params, x)))


def loss_from_logits(logits: np.ndarray, labels: np.ndarray, pos_weight: float) -> float:
    """Mean weighted cross-entropy given precomputed logits."""
    if not (np.isfinite(pos_weight) and pos_weight > 0):
        raise ValueError("pos_weight must be a positive real")
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if z.shape != y.shape or z.ndim != 1 or z.size < 1:
        raise ValueError("logits and labels must be equal-length non-empty vectors")
    per_sample = pos_weight * y * softplus(-z) + (1.0 - y) * softplus(z)
    return float(per_sample.mean())


def batch_loss(params: ModelParams, features: np.ndarray, labels: np.ndarray, pos_weight: float) -> float:
    """Mean weighted cross-entropy of the samples under the current parameters."""
    return loss_from_logits(forward_batch(params, features), labels, pos_weight)


def backward(params: ModelParams, features: np.ndarray, labels: np.ndarray, pos_weight: float) -> Gradients:
    """Analytic gradients of batch_loss. ReLU subgradient at 0 is taken as 0.

    Only shapes are checked: finite features and 0/1 labels are the
    caller's to guarantee, as a Silo does for its arrays.
    """
    if not (np.isfinite(pos_weight) and pos_weight > 0):
        raise ValueError("pos_weight must be a positive real")
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != INPUT_DIM or x.shape[0] < 1 or y.shape != x.shape[:1]:
        raise ValueError(f"need features (n >= 1, {INPUT_DIM}) and labels (n,), got {x.shape} and {y.shape}")
    n = x.shape[0]
    z1 = x @ params.w1.T + params.b1
    hidden = np.maximum(z1, 0.0)
    logits = hidden @ params.w2 + params.b2
    # d(loss)/d(logit), mean already folded in
    delta = ((1.0 - y) * sigmoid(logits) - pos_weight * y * sigmoid(-logits)) / n
    g_w2 = hidden.T @ delta
    g_b2 = float(delta.sum())
    d_hidden = np.outer(delta, params.w2) * (z1 > 0.0)
    g_w1 = d_hidden.T @ x
    g_b1 = d_hidden.sum(axis=0)
    return Gradients(w1=g_w1, b1=g_b1, w2=g_w2, b2=g_b2)


def _decayed_step(w: np.ndarray, g: np.ndarray, lr: float, weight_decay: float) -> np.ndarray:
    """w - lr * (g + weight_decay * w), bit for bit, built in one fresh buffer."""
    out = weight_decay * w
    out += g
    out *= lr
    return np.subtract(w, out, out=out)


def sgd_step(params: ModelParams, grads: Gradients, lr: float, weight_decay: float) -> ModelParams:
    """One SGD update with decoupled weight decay on weights only, not biases."""
    if not (np.isfinite(lr) and lr >= 0):
        raise ValueError("lr must be finite and non-negative")
    if not (np.isfinite(weight_decay) and weight_decay >= 0):
        raise ValueError("weight_decay must be finite and non-negative")
    if grads.w1.shape != params.w1.shape or grads.b1.shape != params.b1.shape or grads.w2.shape != params.w2.shape:
        raise ValueError("gradient shapes do not match parameter shapes")
    with np.errstate(over="ignore", invalid="ignore"):
        w1 = _decayed_step(params.w1, grads.w1, lr, weight_decay)
        b1 = params.b1 - lr * grads.b1
        w2 = _decayed_step(params.w2, grads.w2, lr, weight_decay)
        b2 = params.b2 - lr * grads.b2
    for arr in (w1, b1, w2):
        arr.setflags(write=False)  # fresh arrays: ModelParams adopts them without a copy
    # The shapes match, so ModelParams can only reject the update for a
    # non-finite entry; a non-finite gradient always produces one.
    try:
        return ModelParams(w1=w1, b1=b1, w2=w2, b2=b2)
    except ValueError:
        raise NumericalError("parameter update produced non-finite values") from None


def lr_at_epoch(lr0: float, gamma: float, epoch: int) -> float:
    """Exponential decay schedule lr0 * gamma**epoch. Epochs count from 0."""
    if not (np.isfinite(lr0) and lr0 >= 0):
        raise ValueError("lr0 must be finite and non-negative")
    if not (0.0 < gamma <= 1.0):
        raise ValueError("gamma must lie in (0, 1]")
    if epoch < 0:
        raise ValueError("epoch must be non-negative")
    return lr0 * gamma**epoch


def average_models(models: list[ModelParams], weights) -> ModelParams:
    """Convex combination of parameter sets, weights normalised to sum 1.

    Accumulation is anchored at the first model (x0 + sum w_i * (x_i - x0))
    so identical inputs average to themselves exactly; a weight vector with
    a single nonzero entry returns that model exactly.
    """
    if len(models) < 1:
        raise ValueError("at least one model is required")
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (len(models),):
        raise ValueError("need exactly one weight per model")
    if not np.isfinite(w).all() or (w < 0).any():
        raise ValueError("weights must be finite and non-negative")
    total = float(w.sum())
    if total <= 0:
        raise ValueError("weights must not all be zero")
    first = models[0]
    for m in models[1:]:
        if m.w1.shape != first.w1.shape:
            raise ValueError("all models must share the same hidden size")
    nonzero = np.flatnonzero(w)
    if len(nonzero) == 1:
        m = models[int(nonzero[0])]
        return ModelParams(w1=m.w1, b1=m.b1, w2=m.w2, b2=m.b2)
    norm = w / total
    w1 = np.array(first.w1)
    b1 = np.array(first.b1)
    w2 = np.array(first.w2)
    b2 = first.b2
    for i in range(1, len(models)):
        c = norm[i]
        if c == 0.0:
            continue
        m = models[i]
        w1 += c * (m.w1 - first.w1)
        b1 += c * (m.b1 - first.b1)
        w2 += c * (m.w2 - first.w2)
        b2 += c * (m.b2 - first.b2)
    return ModelParams(w1=w1, b1=b1, w2=w2, b2=b2)


def params_to_dict(params: ModelParams) -> dict:
    """JSON-ready dict with row-major weight lists at full precision."""
    return {
        "hidden_size": params.hidden_size,
        "w1": params.w1.tolist(),
        "b1": params.b1.tolist(),
        "w2": params.w2.tolist(),
        "b2": params.b2,
    }


def params_from_dict(data: dict) -> ModelParams:
    params = ModelParams(w1=data["w1"], b1=data["b1"], w2=data["w2"], b2=data["b2"])
    if params.hidden_size != int(data["hidden_size"]):
        raise ValueError("hidden_size field does not match the w1 shape")
    return params


def save_params(path, params: ModelParams) -> None:
    Path(path).write_text(json.dumps(params_to_dict(params)) + "\n", encoding="utf-8")


def load_params(path) -> ModelParams:
    return params_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
