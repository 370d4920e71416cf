"""Classification metrics, percentile bootstrap, and model-agreement counts.

Threshold metrics use the 0/0 -> 0 convention so they are defined for
every input. The ranking metrics (ROC-AUC, PR-AUC) require both classes
and raise UndefinedMetricError otherwise; the bootstrap redraws such
resamples and reports how many redraws happened.

Both AUCs, the ROC curve and metric_bundle count positives and negatives
per descending-score tie group, and the bootstrap runs the same kernels
on blocks of resample rows at once: each block is a (k, n) draw of
index rows, which continues the generator's stream exactly as k draws
of n would. The redraw order is replayed from that row stream, so every
seeded result equals the one a per-resample loop would give. A ScoredSet
sorts its tie groups once, when it is made. The CI bounds are NumPy's
linear percentiles, taken from one sort.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple

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
    """Labels, scores in [0, 1], and the predictions: the scores
    thresholded at THRESHOLD."""

    labels: np.ndarray
    scores: np.ndarray
    predictions: np.ndarray = field(init=False)

    def __post_init__(self):
        # private copies: freezing them leaves the caller's arrays writeable
        y = _binary(self.labels, "labels")
        s = np.array(self.scores, dtype=np.float64)
        if y.ndim != 1 or y.size < 1 or s.shape != y.shape:
            raise ValueError("labels and scores must be equal-length non-empty vectors")
        if not np.isfinite(s).all() or (s < 0).any() or (s > 1).any():
            raise ValueError("scores must lie in [0, 1]")
        preds = (s >= THRESHOLD).astype(np.int64)
        for arr in (y, s, preds):
            arr.setflags(write=False)
        object.__setattr__(self, "labels", y)
        object.__setattr__(self, "scores", s)
        object.__setattr__(self, "predictions", preds)
        object.__setattr__(self, "_groups", _tie_groups(y, s))  # sorted once for every measure of the set

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

    measure: str
    mean_diff: float
    ci_low: float
    ci_high: float
    significant: bool
    n_resamples: int
    n_redrawn: int


def _binary(values, what: str) -> np.ndarray:
    """values as a new int64 array, each checked to be 0 or 1 before the cast (which reads 0.5 as 0)."""
    raw = np.asarray(values)
    if not ((raw == 0) | (raw == 1)).all():
        raise ValueError(f"{what} must be 0 or 1")
    return raw.astype(np.int64)


def confusion(labels, predictions) -> Confusion:
    """Counts (TN, FP, FN, TP) for binary labels and predictions."""
    y = _binary(labels, "labels")
    p = _binary(predictions, "predictions")
    if y.shape != p.shape or y.ndim != 1 or y.size < 1:
        raise ValueError("labels and predictions must be equal-length non-empty vectors")
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


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den elementwise, 0.0 where den is 0 (the 0/0 -> 0 convention)."""
    return np.divide(num, den, out=np.zeros(np.shape(num)), where=den > 0)


def _tie_groups(labels, scores) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validated labels, each sample's code 2 * group + label, where group
    is its descending-score tie group, and the score of every group."""
    y = _binary(labels, "labels")
    s = np.asarray(scores, dtype=np.float64)
    if y.shape != s.shape or y.ndim != 1 or y.size < 1:
        raise ValueError("labels and scores must be equal-length non-empty vectors")
    _, first, group = np.unique(-s, return_index=True, return_inverse=True)
    return y, 2 * group + y, s[first]


def _group_counts(codes: np.ndarray, n_groups: int) -> np.ndarray:
    """Negatives and positives per tie group of each row of sample codes
    (see _tie_groups): shape (rows, groups, 2)."""
    k = codes.shape[0]
    flat = (codes + 2 * n_groups * np.arange(k)[:, None]).ravel()
    return np.bincount(flat, minlength=2 * n_groups * k).reshape(k, n_groups, 2)


def _roc_auc_rows(counts: np.ndarray) -> np.ndarray:
    """ROC-AUC of each row of group counts (see roc_auc)."""
    neg, pos = counts[:, :, 0], counts[:, :, 1]
    tp_before = np.cumsum(pos, axis=1) - pos
    acc2 = (neg * (2 * tp_before + pos)).sum(axis=1)  # twice the unnormalised area
    return acc2 / (2.0 * pos.sum(axis=1) * neg.sum(axis=1))


def _pr_auc_rows(counts: np.ndarray) -> np.ndarray:
    """Average precision of each row of group counts (see pr_auc)."""
    neg, pos = counts[:, :, 0], counts[:, :, 1]
    tp = np.cumsum(pos, axis=1)
    precision = _ratio(tp, tp + np.cumsum(neg, axis=1))
    # groups without a positive add exactly 0; cumsum adds in strict
    # group order, as a running total would
    return np.cumsum(pos / pos.sum(axis=1)[:, None] * precision, axis=1)[:, -1]


def _set_counts(groups, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Group counts of one whole set from its _tie_groups, plus the group
    scores; raises UndefinedMetricError unless both classes are present."""
    y, codes, thresholds = groups
    n_pos = int(y.sum())
    if n_pos == 0 or n_pos == y.size:
        raise UndefinedMetricError(f"{what} undefined: only one class present")
    return _group_counts(codes[None, :], thresholds.size), thresholds


def roc_auc(labels, scores) -> float:
    """Area under the ROC step curve by the trapezoidal rule.

    Tie groups contribute half credit, so the value equals the
    Mann-Whitney pair-counting statistic exactly. Integer accumulation
    keeps the single final division exact up to rounding.
    """
    counts, _ = _set_counts(_tie_groups(labels, scores), "ROC-AUC")
    return float(_roc_auc_rows(counts)[0])


def pr_auc(labels, scores) -> float:
    """Average precision: step-wise sum of precision * delta recall,
    added in descending-score order."""
    counts, _ = _set_counts(_tie_groups(labels, scores), "PR-AUC")
    return float(_pr_auc_rows(counts)[0])


def roc_curve(scored: ScoredSet) -> list[tuple[float, float, float]]:
    """All distinct-threshold ROC points of a scored set as (fpr, tpr, threshold)."""
    counts, thresholds = _set_counts(scored._groups, "ROC curve")
    fp, tp = np.cumsum(counts[0], axis=0).T
    points = zip((fp / fp[-1]).tolist(), (tp / tp[-1]).tolist(), thresholds.tolist())
    return [(0.0, 0.0, float("inf")), *points]


def metric_bundle(scored: ScoredSet) -> tuple[Confusion, dict[str, float | None]]:
    """Confusion at the 0.5 threshold plus F1, precision, recall, ROC-AUC
    and PR-AUC of a scored set, in that key order; the AUCs are None when
    only one class is present."""
    conf = confusion(scored.labels, scored.predictions)
    precision, recall, f1 = prf1(conf)
    metrics: dict[str, float | None] = {"f1": f1, "precision": precision, "recall": recall}
    try:
        counts, _ = _set_counts(scored._groups, "ROC-AUC")
    except UndefinedMetricError:
        metrics["roc_auc"] = metrics["pr_auc"] = None
    else:
        metrics["roc_auc"] = float(_roc_auc_rows(counts)[0])
        metrics["pr_auc"] = float(_pr_auc_rows(counts)[0])
    return conf, metrics


MEASURES = ("f1", "precision", "recall", "accuracy", "roc_auc", "pr_auc")
# measures that can be undefined on a single-class resample
_RESAMPLE_SENSITIVE = ("roc_auc", "pr_auc")


_MAX_REDRAW_ROUNDS = 1000
# index elements per block of resample rows: bounds the bootstrap's memory
# (a few MB of temporaries); larger blocks were no faster at n = 800
_BLOCK_ELEMENTS = 1 << 14


def _row_scorer(measure: str, scored: ScoredSet) -> Callable[[np.ndarray], np.ndarray]:
    """Scores a (k, n) block of resample index rows into k values of measure,
    with the float expressions of prf1, accuracy and the AUC kernels."""
    if measure in _RESAMPLE_SENSITIVE:
        _, codes, thresholds = scored._groups
        kernel = _roc_auc_rows if measure == "roc_auc" else _pr_auc_rows
        return lambda rows: kernel(_group_counts(codes[rows], thresholds.size))
    n = len(scored)
    positive = scored.labels == 1
    predicted = scored.predictions == 1
    hit = positive & predicted

    def score(rows: np.ndarray) -> np.ndarray:
        tp = np.count_nonzero(hit[rows], axis=1)
        n_pos = np.count_nonzero(positive[rows], axis=1)
        n_pred = np.count_nonzero(predicted[rows], axis=1)
        if measure == "accuracy":
            return (n - n_pos - n_pred + 2 * tp) / n  # (tn + tp) / n
        precision = _ratio(tp, n_pred)
        recall = _ratio(tp, n_pos)
        if measure == "precision":
            return precision
        if measure == "recall":
            return recall
        return _ratio(2 * precision * recall, precision + recall)

    return score


def _bootstrap_values(
    rng: np.random.Generator,
    n_resamples: int,
    labels: np.ndarray,
    score_rows: Callable[[np.ndarray], np.ndarray],
    can_be_undefined: bool,
) -> tuple[np.ndarray, int]:
    """Resample values with redraw-on-undefined; returns (values, n_redrawn).

    Index rows come from rng in blocks, which continue the stream one
    size-n draw at a time would give. A resample takes the first defined
    row at or after its turn in that stream: the rows skipped are its
    redraws, and more than _MAX_REDRAW_ROUNDS of them in a row is an
    error. A row is undefined when its labels hold a single class.
    """
    n = labels.size
    positive = labels == 1
    block_rows = max(1, _BLOCK_ELEMENTS // n)
    values = np.empty(n_resamples, dtype=np.float64)
    filled = 0
    n_redrawn = 0
    first_pass_undefined = 0
    run = 0  # undefined rows since the last defined one
    while filled < n_resamples:
        # at most one row per open resample, so every row drawn is consumed
        rows = rng.integers(0, n, size=(min(block_rows, n_resamples - filled), n))
        if can_be_undefined:
            n_pos = np.count_nonzero(positive[rows], axis=1)
            kept = np.flatnonzero((n_pos > 0) & (n_pos < n))
            # undefined runs before each kept row and after the last one
            gaps = np.diff(kept, prepend=-1, append=len(rows)) - 1
            gaps[0] += run
            first_pass_undefined += int(np.count_nonzero(gaps)) - (run > 0)
            if gaps.max() > _MAX_REDRAW_ROUNDS:
                raise StatisticalError("measure undefined on every redraw attempt")
            run = int(gaps[-1])
            n_redrawn += len(rows) - kept.size
            rows = rows[kept]
        values[filled : filled + len(rows)] = score_rows(rows)
        filled += len(rows)
    if 2 * first_pass_undefined > n_resamples:
        raise StatisticalError(
            f"measure undefined on {first_pass_undefined} of {n_resamples} resamples"
        )
    return values, n_redrawn


def _ci_bounds(values: np.ndarray) -> Iterator[float]:
    """Yields np.percentile(values, 2.5), then np.percentile(values, 97.5), of
    finite values, bit for bit: NumPy's linear method on one sort."""
    ordered, n = np.sort(values), values.size
    for q in (0.025, 0.975):  # 2.5 / 100 and 97.5 / 100, as np.percentile divides
        v = (n - 1) * q
        lo, hi = (-1, -1) if v >= n - 1 else (int(v), int(v) + 1)
        a, b = ordered[lo], ordered[hi]
        if a == 0 or b == 0:  # -0.0 and 0.0 tie: take the zeros np.percentile's partition puts there
            a, b = np.partition(values, [0, lo, hi, -1])[[lo, hi]]
        g, d = v - lo, b - a  # NumPy's _lerp
        yield float(b - d * (1 - g) if g >= 0.5 else a + d * g)


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
    values, n_redrawn = _bootstrap_values(
        rng, n_resamples, scored.labels, _row_scorer(measure, scored), measure in _RESAMPLE_SENSITIVE
    )
    ci_low, ci_high = _ci_bounds(values)
    result = BootstrapResult(
        measure=measure,
        mean=float(values.mean()),
        ci_low=ci_low,
        ci_high=ci_high,
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
    score_first, score_second = _row_scorer(measure, first), _row_scorer(measure, second)
    values, n_redrawn = _bootstrap_values(
        rng,
        n_resamples,
        first.labels,
        lambda rows: score_first(rows) - score_second(rows),
        measure in _RESAMPLE_SENSITIVE,
    )
    ci_low, ci_high = _ci_bounds(values)
    result = DiffResult(
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
