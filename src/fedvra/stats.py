"""Classification metrics, percentile bootstrap, and model-agreement counts.

Threshold metrics use the 0/0 -> 0 convention so they are defined for
every input. The ranking metrics (ROC-AUC, PR-AUC) require both classes
and raise UndefinedMetricError otherwise; the bootstrap redraws such
resamples and reports how many redraws happened.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import StatisticalError, UndefinedMetricError
from .seeds import make_rng

THRESHOLD = 0.5


class Confusion(NamedTuple):
    tn: int
    fp: int
    fn: int
    tp: int


class ContingencyCounts(NamedTuple):
    """Joint correctness of two models: first index = first model."""

    both_correct: int
    first_only: int
    second_only: int
    neither: int


@dataclass(frozen=True)
class CommonAgreement:
    """Per ground-truth class: samples where all models predict identically."""

    neg_correct: int
    neg_wrong: int
    neg_disagree: int
    pos_correct: int
    pos_wrong: int
    pos_disagree: int

    @property
    def total(self) -> int:
        return (
            self.neg_correct + self.neg_wrong + self.neg_disagree
            + self.pos_correct + self.pos_wrong + self.pos_disagree
        )

    @property
    def agreement_rate(self) -> float:
        agreed = self.neg_correct + self.neg_wrong + self.pos_correct + self.pos_wrong
        return agreed / self.total


@dataclass(frozen=True, eq=False)
class ScoredSet:
    """Labels, scores in [0, 1], and the thresholded predictions."""

    labels: np.ndarray
    scores: np.ndarray
    predictions: np.ndarray | None = None

    def __post_init__(self):
        y = np.asarray(self.labels, dtype=np.int64)
        s = np.asarray(self.scores, dtype=np.float64)
        if y.ndim != 1 or y.size < 1 or s.shape != y.shape:
            raise ValueError("labels and scores must be equal-length non-empty vectors")
        if not np.isin(y, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")
        if not np.isfinite(s).all() or (s < 0).any() or (s > 1).any():
            raise ValueError("scores must lie in [0, 1]")
        derived = (s >= THRESHOLD).astype(np.int64)
        if self.predictions is None:
            preds = derived
        else:
            preds = np.asarray(self.predictions, dtype=np.int64)
            if not np.array_equal(preds, derived):
                raise ValueError("predictions must equal scores thresholded at 0.5")
        for arr in (y, s, preds):
            arr.setflags(write=False)
        object.__setattr__(self, "labels", y)
        object.__setattr__(self, "scores", s)
        object.__setattr__(self, "predictions", preds)

    def __len__(self) -> int:
        return self.labels.size


@dataclass(frozen=True)
class BootstrapResult:
    measure: str
    mean: float
    ci_low: float
    ci_high: float
    n_resamples: int
    n_redrawn: int


@dataclass(frozen=True)
class DiffResult:
    """Paired bootstrap difference first - second on a shared test set."""

    pair: tuple[str, str]
    measure: str
    mean_diff: float
    ci_low: float
    ci_high: float
    significant: bool
    n_resamples: int
    n_redrawn: int


def confusion(labels, predictions) -> Confusion:
    """Counts (TN, FP, FN, TP) for binary labels and predictions."""
    y = np.asarray(labels, dtype=np.int64)
    p = np.asarray(predictions, dtype=np.int64)
    if y.shape != p.shape or y.ndim != 1 or y.size < 1:
        raise ValueError("labels and predictions must be equal-length non-empty vectors")
    if not np.isin(y, (0, 1)).all() or not np.isin(p, (0, 1)).all():
        raise ValueError("labels and predictions must be 0 or 1")
    tp = int(np.sum((y == 1) & (p == 1)))
    tn = int(np.sum((y == 0) & (p == 0)))
    fp = int(np.sum((y == 0) & (p == 1)))
    fn = int(np.sum((y == 1) & (p == 0)))
    return Confusion(tn=tn, fp=fp, fn=fn, tp=tp)


def prf1(conf: Confusion) -> tuple[float, float, float]:
    """Precision, recall, F1 with the 0/0 -> 0 convention."""
    tn, fp, fn, tp = conf
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def accuracy(conf: Confusion) -> float:
    tn, fp, fn, tp = conf
    return (tn + tp) / (tn + fp + fn + tp)


def _score_groups(labels, scores):
    """Descending-score tie groups: list of (score, n_pos, n_neg)."""
    y = np.asarray(labels, dtype=np.int64)
    s = np.asarray(scores, dtype=np.float64)
    if y.shape != s.shape or y.ndim != 1 or y.size < 1:
        raise ValueError("labels and scores must be equal-length non-empty vectors")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    y_sorted = y[order]
    groups = []
    start = 0
    for end in range(1, y.size + 1):
        if end == y.size or s_sorted[end] != s_sorted[start]:
            block = y_sorted[start:end]
            n_pos = int(block.sum())
            groups.append((float(s_sorted[start]), n_pos, len(block) - n_pos))
            start = end
    return groups


def roc_auc(labels, scores) -> float:
    """Area under the ROC step curve by the trapezoidal rule.

    Tie groups contribute half credit, so the value equals the
    Mann-Whitney pair-counting statistic exactly. Integer accumulation
    keeps the single final division exact up to rounding.
    """
    groups = _score_groups(labels, scores)
    n_pos = sum(g[1] for g in groups)
    n_neg = sum(g[2] for g in groups)
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("ROC-AUC undefined: only one class present")
    acc2 = 0  # twice the unnormalised area
    tp_before = 0
    for _, p, n in groups:
        acc2 += n * (2 * tp_before + p)
        tp_before += p
    return acc2 / (2.0 * n_pos * n_neg)


def pr_auc(labels, scores) -> float:
    """Average precision: step-wise sum of precision * delta recall."""
    groups = _score_groups(labels, scores)
    n_pos = sum(g[1] for g in groups)
    n_neg = sum(g[2] for g in groups)
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("PR-AUC undefined: only one class present")
    ap = 0.0
    tp = 0
    fp = 0
    for _, p, n in groups:
        prev_tp = tp
        tp += p
        fp += n
        if tp > prev_tp:
            ap += (tp - prev_tp) / n_pos * (tp / (tp + fp))
    return ap


def roc_curve(labels, scores) -> list[tuple[float, float, float]]:
    """All distinct-threshold ROC points as (fpr, tpr, threshold)."""
    groups = _score_groups(labels, scores)
    n_pos = sum(g[1] for g in groups)
    n_neg = sum(g[2] for g in groups)
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("ROC curve undefined: only one class present")
    points = [(0.0, 0.0, float("inf"))]
    tp = 0
    fp = 0
    for score, p, n in groups:
        tp += p
        fp += n
        points.append((fp / n_neg, tp / n_pos, score))
    return points


def metric_bundle(labels, scores) -> tuple[Confusion, dict[str, float | None]]:
    """Confusion at the 0.5 threshold plus F1, precision, recall, ROC-AUC
    and PR-AUC, in that key order; the AUCs are None when only one class
    is present."""
    y = np.asarray(labels, dtype=np.int64)
    conf = confusion(y, (scores >= THRESHOLD).astype(np.int64))
    precision, recall, f1 = prf1(conf)
    metrics: dict[str, float | None] = {"f1": f1, "precision": precision, "recall": recall}
    try:
        metrics["roc_auc"] = roc_auc(y, scores)
        metrics["pr_auc"] = pr_auc(y, scores)
    except UndefinedMetricError:
        metrics["roc_auc"] = metrics["pr_auc"] = None
    return conf, metrics


def _measure_from_arrays(name: str, labels: np.ndarray, scores: np.ndarray) -> float:
    if name in ("f1", "precision", "recall", "accuracy"):
        preds = (scores >= THRESHOLD).astype(np.int64)
        conf = confusion(labels, preds)
        if name == "accuracy":
            return accuracy(conf)
        precision, recall, f1 = prf1(conf)
        return {"f1": f1, "precision": precision, "recall": recall}[name]
    if name == "roc_auc":
        return roc_auc(labels, scores)
    if name == "pr_auc":
        return pr_auc(labels, scores)
    raise ValueError(f"unknown measure {name!r}")


MEASURES = ("f1", "precision", "recall", "accuracy", "roc_auc", "pr_auc")
# measures that can be undefined on a single-class resample
_RESAMPLE_SENSITIVE = ("roc_auc", "pr_auc")


_MAX_REDRAW_ROUNDS = 1000


def _bootstrap_values(
    rng: np.random.Generator,
    n_resamples: int,
    size: int,
    evaluate: Callable[[np.ndarray], float],
    can_be_undefined: bool,
) -> tuple[np.ndarray, int]:
    """Resample values with redraw-on-undefined; returns (values, n_redrawn)."""
    values = np.empty(n_resamples, dtype=np.float64)
    n_redrawn = 0
    first_pass_undefined = 0
    for i in range(n_resamples):
        idx = rng.integers(0, size, size=size)
        if not can_be_undefined:
            values[i] = evaluate(idx)
            continue
        try:
            values[i] = evaluate(idx)
            continue
        except UndefinedMetricError:
            first_pass_undefined += 1
        for _ in range(_MAX_REDRAW_ROUNDS):
            idx = rng.integers(0, size, size=size)
            n_redrawn += 1
            try:
                values[i] = evaluate(idx)
                break
            except UndefinedMetricError:
                continue
        else:
            raise StatisticalError("measure undefined on every redraw attempt")
    if 2 * first_pass_undefined > n_resamples:
        raise StatisticalError(
            f"measure undefined on {first_pass_undefined} of {n_resamples} resamples"
        )
    return values, n_redrawn


def bootstrap_ci(
    scored: ScoredSet,
    measure: str,
    n_resamples: int = 10000,
    seed: int = 0,
    return_samples: bool = False,
):
    """Percentile bootstrap (2.5th / 97.5th) of a measure on a scored set."""
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}; pick one of {MEASURES}")
    if n_resamples < 1:
        raise ValueError("n_resamples must be at least 1")
    rng = make_rng(seed, "bootstrap-ci")
    labels, scores = scored.labels, scored.scores

    def evaluate(idx):
        return _measure_from_arrays(measure, labels[idx], scores[idx])

    values, n_redrawn = _bootstrap_values(
        rng, n_resamples, len(scored), evaluate, measure in _RESAMPLE_SENSITIVE
    )
    result = BootstrapResult(
        measure=measure,
        mean=float(values.mean()),
        ci_low=float(np.percentile(values, 2.5)),
        ci_high=float(np.percentile(values, 97.5)),
        n_resamples=n_resamples,
        n_redrawn=n_redrawn,
    )
    if return_samples:
        return result, values
    return result


def bootstrap_diff(
    first: ScoredSet,
    second: ScoredSet,
    measure: str,
    n_resamples: int = 10000,
    seed: int = 0,
    pair: tuple[str, str] = ("first", "second"),
    return_samples: bool = False,
):
    """Paired percentile bootstrap of measure(first) - measure(second).

    Both sets must score the same test records in the same order; each
    resample draws one index vector and applies it to both, so the
    difference distribution is paired. The difference is significant
    when the 95% interval excludes zero.
    """
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}; pick one of {MEASURES}")
    if n_resamples < 1:
        raise ValueError("n_resamples must be at least 1")
    if not np.array_equal(first.labels, second.labels):
        raise ValueError("paired bootstrap requires identical label vectors")
    rng = make_rng(seed, "bootstrap-diff")
    y = first.labels
    s1, s2 = first.scores, second.scores

    def evaluate(idx):
        return _measure_from_arrays(measure, y[idx], s1[idx]) - _measure_from_arrays(
            measure, y[idx], s2[idx]
        )

    values, n_redrawn = _bootstrap_values(
        rng, n_resamples, len(first), evaluate, measure in _RESAMPLE_SENSITIVE
    )
    ci_low = float(np.percentile(values, 2.5))
    ci_high = float(np.percentile(values, 97.5))
    result = DiffResult(
        pair=pair,
        measure=measure,
        mean_diff=float(values.mean()),
        ci_low=ci_low,
        ci_high=ci_high,
        significant=not (ci_low <= 0.0 <= ci_high),
        n_resamples=n_resamples,
        n_redrawn=n_redrawn,
    )
    if return_samples:
        return result, values
    return result


def contingency(first_correct, second_correct) -> ContingencyCounts:
    """Joint correctness counts of two models on the same test set."""
    a = np.asarray(first_correct, dtype=bool)
    b = np.asarray(second_correct, dtype=bool)
    if a.shape != b.shape or a.ndim != 1 or a.size < 1:
        raise ValueError("correctness vectors must be equal-length non-empty vectors")
    return ContingencyCounts(
        both_correct=int(np.sum(a & b)),
        first_only=int(np.sum(a & ~b)),
        second_only=int(np.sum(~a & b)),
        neither=int(np.sum(~a & ~b)),
    )


def common_agreement(sets: list[ScoredSet]) -> CommonAgreement:
    """Counts of unanimous predictions per ground-truth class.

    Correct / wrong / disagree partition each class, so the six counts
    sum to the test-set size.
    """
    if len(sets) < 2:
        raise ValueError("need at least two scored sets")
    labels = sets[0].labels
    for s in sets[1:]:
        if not np.array_equal(s.labels, labels):
            raise ValueError("all scored sets must share the same label vector")
    preds = np.stack([s.predictions for s in sets])
    agree = (preds == preds[0]).all(axis=0)
    correct = agree & (preds[0] == labels)
    wrong = agree & (preds[0] != labels)
    neg = labels == 0
    pos = labels == 1
    return CommonAgreement(
        neg_correct=int(np.sum(correct & neg)),
        neg_wrong=int(np.sum(wrong & neg)),
        neg_disagree=int(np.sum(~agree & neg)),
        pos_correct=int(np.sum(correct & pos)),
        pos_wrong=int(np.sum(wrong & pos)),
        pos_disagree=int(np.sum(~agree & pos)),
    )
