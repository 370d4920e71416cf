"""Classification metrics, percentile bootstrap, and model-agreement counts.

Threshold metrics use the 0/0 -> 0 convention so they are defined for
every input. The ranking metrics (ROC-AUC, PR-AUC) require both classes
and raise UndefinedMetricError otherwise; the bootstrap redraws such
resamples and reports how many redraws happened.

Every measure takes a ScoredSet and is a formula over counts that one
counter, _group_counts, takes of the whole set as one row or of each
row of a block of resamples. A ScoredSet codes its samples once each
way: by confusion cell (2 * label + prediction: TN, FP, FN, TP) when
it is made, for the threshold measures, and by descending-score tie
group and label when an AUC or the ROC curve first needs them. The
bootstrap draws each block as one (rows, n) draw of
index rows, which continues the generator's stream exactly as that
many draws of n would. The redraw order is replayed from that row
stream, so every seeded result equals the one a per-resample loop
would give. One kernel, _bootstrap_joint, scores any number of sets
that share a label vector on one row stream: bootstrap_ci is its
one-set case and bootstrap_diff the difference of its two columns. The
CI bounds are NumPy's linear percentiles, taken from one sort.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, NamedTuple

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
        object.__setattr__(self, "_cells", 2 * y + preds)  # confusion cell codes: TN, FP, FN, TP

    def __len__(self) -> int:
        return self.labels.size

    @cached_property
    def _groups(self) -> tuple[np.ndarray, np.ndarray]:  # sorted when a measure first needs them
        return _tie_groups(self.labels, self.scores)


@dataclass(frozen=True)
class BootstrapResult:
    mean: float
    ci_low: float
    ci_high: float
    n_resamples: int
    n_redrawn: int


@dataclass(frozen=True)
class DiffResult:
    """Paired bootstrap difference first - second on a shared test set."""

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


def _shared_labels(sets: list[ScoredSet]) -> np.ndarray:
    """The label vector of every set; raises ValueError unless they share one."""
    labels = sets[0].labels
    if any(not np.array_equal(s.labels, labels) for s in sets[1:]):
        raise ValueError("scored sets must have identical label vectors")
    return labels


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den elementwise, 0.0 where den is 0 (the 0/0 -> 0 convention)."""
    return np.divide(num, den, out=np.zeros(np.shape(num)), where=den > 0)


def _tie_groups(y: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each sample's code 2 * group + label, where group is its
    descending-score tie group, and the score of every group; y and s
    are a ScoredSet's checked labels and scores."""
    _, first, group = np.unique(-s, return_index=True, return_inverse=True)
    return 2 * group + y, s[first]


def _group_counts(codes: np.ndarray, n_groups: int) -> np.ndarray:
    """How often each code in [0, 2 * n_groups) occurs in each row of
    codes, in pairs: shape (rows, n_groups, 2). Of tie-group codes (see
    _tie_groups) these are the negatives and positives per group; of
    confusion-cell codes, [[TN, FP], [FN, TP]]."""
    k = codes.shape[0]
    flat = (codes + 2 * n_groups * np.arange(k)[:, None]).ravel()
    return np.bincount(flat, minlength=2 * n_groups * k).reshape(k, n_groups, 2)


def _cell_counts(scored: ScoredSet, rows: np.ndarray | None = None) -> np.ndarray:
    """Confusion cells of each row of sample indices, or of the whole
    set as one row when rows is None (codes[None] is that row)."""
    return _group_counts(scored._cells[rows], 2)


def _tie_counts(scored: ScoredSet, rows: np.ndarray | None = None) -> np.ndarray:
    """Tie-group counts of each row of sample indices, or of the whole
    set as one row when rows is None."""
    codes, thresholds = scored._groups
    return _group_counts(codes[rows], thresholds.size)


def _both_classes(counts: np.ndarray) -> np.ndarray:
    """Whether each row of tie-group counts holds a negative and a positive."""
    return (counts[:, :, 0].sum(axis=1) > 0) & (counts[:, :, 1].sum(axis=1) > 0)


def _prf1_rows(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Precision, recall and F1 of each row of confusion cells, with the
    0/0 -> 0 convention."""
    tn, fp, fn, tp = np.reshape(cells, (-1, 4)).T
    precision = _ratio(tp, tp + fp)
    recall = _ratio(tp, tp + fn)
    return precision, recall, _ratio(2 * precision * recall, precision + recall)


def _accuracy_rows(cells: np.ndarray) -> np.ndarray:
    tn, fp, fn, tp = np.reshape(cells, (-1, 4)).T
    return (tn + tp) / (tn + fp + fn + tp)


def confusion(scored: ScoredSet) -> Confusion:
    """Counts (TN, FP, FN, TP) of a scored set's labels and predictions."""
    return Confusion(*_cell_counts(scored).ravel().tolist())


def prf1(conf: Confusion) -> tuple[float, float, float]:
    """Precision, recall, F1 with the 0/0 -> 0 convention."""
    return tuple(v.item() for v in _prf1_rows(np.array([conf])))


def _roc_auc_rows(counts: np.ndarray) -> np.ndarray:
    """ROC-AUC of each row of group counts: the area under the ROC step
    curve by the trapezoidal rule.

    Tie groups contribute half credit, so the value equals the
    Mann-Whitney pair-counting statistic exactly. Integer accumulation
    keeps the single final division exact up to rounding.
    """
    neg, pos = counts[:, :, 0], counts[:, :, 1]
    tp_before = np.cumsum(pos, axis=1) - pos
    acc2 = (neg * (2 * tp_before + pos)).sum(axis=1)  # twice the unnormalised area
    return acc2 / (2.0 * pos.sum(axis=1) * neg.sum(axis=1))


def _pr_auc_rows(counts: np.ndarray) -> np.ndarray:
    """Average precision of each row of group counts: the step-wise sum
    of precision * delta recall, added in descending-score order."""
    neg, pos = counts[:, :, 0], counts[:, :, 1]
    tp = np.cumsum(pos, axis=1)
    precision = _ratio(tp, tp + np.cumsum(neg, axis=1))
    # groups without a positive add exactly 0; cumsum adds in strict
    # group order, as a running total would
    return np.cumsum(pos / pos.sum(axis=1)[:, None] * precision, axis=1)[:, -1]


def _set_counts(scored: ScoredSet, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Tie-group counts of the whole set, plus the group scores; raises
    UndefinedMetricError unless both classes are present."""
    counts = _tie_counts(scored)
    if not _both_classes(counts)[0]:
        raise UndefinedMetricError(f"{what} undefined: only one class present")
    return counts, scored._groups[1]


def roc_curve(scored: ScoredSet) -> list[tuple[float, float, float]]:
    """All distinct-threshold ROC points of a scored set as (fpr, tpr, threshold)."""
    counts, thresholds = _set_counts(scored, "ROC curve")
    fp, tp = np.cumsum(counts[0], axis=0).T
    points = zip((fp / fp[-1]).tolist(), (tp / tp[-1]).tolist(), thresholds.tolist())
    return [(0.0, 0.0, float("inf")), *points]


def metric_bundle(scored: ScoredSet) -> tuple[Confusion, dict[str, float | None]]:
    """Confusion at the 0.5 threshold plus F1, precision, recall, ROC-AUC
    and PR-AUC of a scored set, in that key order; the AUCs are None when
    only one class is present."""
    conf = confusion(scored)
    precision, recall, f1 = prf1(conf)
    metrics: dict[str, float | None] = {"f1": f1, "precision": precision, "recall": recall}
    try:
        counts, _ = _set_counts(scored, "ROC-AUC")
    except UndefinedMetricError:
        metrics["roc_auc"] = metrics["pr_auc"] = None
    else:
        metrics["roc_auc"] = float(_roc_auc_rows(counts)[0])
        metrics["pr_auc"] = float(_pr_auc_rows(counts)[0])
    return conf, metrics


# each measure as a formula over rows of confusion cells, or of
# tie-group counts for the two AUCs
_ROW_MEASURES = {
    "f1": lambda cells: _prf1_rows(cells)[2],
    "precision": lambda cells: _prf1_rows(cells)[0],
    "recall": lambda cells: _prf1_rows(cells)[1],
    "accuracy": _accuracy_rows,
    "roc_auc": _roc_auc_rows,
    "pr_auc": _pr_auc_rows,
}
MEASURES = tuple(_ROW_MEASURES)
# measures that can be undefined on a single-class resample
_RESAMPLE_SENSITIVE = ("roc_auc", "pr_auc")


_MAX_REDRAW_ROUNDS = 1000
# index elements per block of resample rows: bounds the bootstrap's memory
# (a few MB of temporaries); larger blocks were no faster at n = 800
_BLOCK_ELEMENTS = 1 << 14


def _bootstrap_joint(
    rng: np.random.Generator, sets: list[ScoredSet], measure: str, n_resamples: int
) -> tuple[np.ndarray, int]:
    """measure of every set on one stream of resample rows, with
    redraw-on-undefined: returns the (n_resamples, k) values, column j
    for sets[j], and n_redrawn.

    The sets must share one label vector, so a row is undefined for one
    set exactly when it is undefined for all of them: when its labels
    hold a single class. Index rows come from rng in blocks, which
    continue the stream one size-n draw at a time would give. A resample
    takes the first defined row at or after its turn in that stream: the
    rows skipped are its redraws, and more than _MAX_REDRAW_ROUNDS of
    them in a row is an error.
    """
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}; pick one of {MEASURES}")
    if n_resamples < 1:
        raise ValueError("n_resamples must be at least 1")
    n = _shared_labels(sets).size
    sensitive = measure in _RESAMPLE_SENSITIVE
    count = _tie_counts if sensitive else _cell_counts
    formula = _ROW_MEASURES[measure]
    block_rows = max(1, _BLOCK_ELEMENTS // n)
    values = np.empty((n_resamples, len(sets)), dtype=np.float64)
    filled = 0
    n_redrawn = 0
    first_pass_undefined = 0
    run = 0  # undefined rows since the last defined one
    while filled < n_resamples:
        # at most one row per open resample, so every row drawn is consumed
        rows = rng.integers(0, n, size=(min(block_rows, n_resamples - filled), n))
        counts = count(sets[0], rows)
        if sensitive:
            kept = np.flatnonzero(_both_classes(counts))
            # undefined runs before each kept row and after the last one
            gaps = np.diff(kept, prepend=-1, append=len(rows)) - 1
            gaps[0] += run
            first_pass_undefined += int(np.count_nonzero(gaps)) - (run > 0)
            if gaps.max() > _MAX_REDRAW_ROUNDS:
                raise StatisticalError("measure undefined on every redraw attempt")
            run = int(gaps[-1])
            if kept.size < len(rows):  # most blocks keep every row and need no copy
                n_redrawn += len(rows) - kept.size
                rows, counts = rows[kept], counts[kept]
        for j, scored in enumerate(sets):
            values[filled : filled + len(rows), j] = formula(counts if j == 0 else count(scored, rows))
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
    scored: ScoredSet, measure: str, n_resamples: int = 10000, seed: int = 0
) -> tuple[BootstrapResult, np.ndarray]:
    """Percentile bootstrap (2.5th / 97.5th) of a measure on a scored set:
    the result and the resample values."""
    joint, n_redrawn = _bootstrap_joint(make_rng(seed, "bootstrap-ci"), [scored], measure, n_resamples)
    values = joint[:, 0]  # an (n, 1) array's column is contiguous, so mean keeps a 1-D array's bits
    ci_low, ci_high = _ci_bounds(values)
    result = BootstrapResult(
        mean=float(values.mean()),
        ci_low=ci_low,
        ci_high=ci_high,
        n_resamples=n_resamples,
        n_redrawn=n_redrawn,
    )
    return result, values


def bootstrap_diff(
    first: ScoredSet, second: ScoredSet, measure: str, n_resamples: int = 10000, seed: int = 0
) -> tuple[DiffResult, np.ndarray]:
    """Paired percentile bootstrap of measure(first) - measure(second):
    the result and the resampled differences.

    Both sets must score the same test records in the same order; each
    resample draws one index vector and applies it to both, so the
    difference distribution is paired. The difference is significant
    when the 95% interval excludes zero.
    """
    joint, n_redrawn = _bootstrap_joint(make_rng(seed, "bootstrap-diff"), [first, second], measure, n_resamples)
    values = joint[:, 0] - joint[:, 1]
    ci_low, ci_high = _ci_bounds(values)
    result = DiffResult(
        mean_diff=float(values.mean()),
        ci_low=ci_low,
        ci_high=ci_high,
        significant=not (ci_low <= 0.0 <= ci_high),
        n_resamples=n_resamples,
        n_redrawn=n_redrawn,
    )
    return result, values


def contingency(first: ScoredSet, second: ScoredSet) -> ContingencyCounts:
    """Joint correctness counts of two models' predictions on one test set."""
    labels = _shared_labels([first, second])
    # code 2 * first wrong + second wrong counts the fields in their order
    codes = 2 * (first.predictions != labels) + (second.predictions != labels)
    return ContingencyCounts(*_group_counts(codes[None], 2).ravel().tolist())


def common_agreement(sets: list[ScoredSet]) -> CommonAgreement:
    """Counts of unanimous predictions per ground-truth class.

    Correct / wrong / disagree partition each class, so the six counts
    sum to the test-set size.
    """
    if len(sets) < 2:
        raise ValueError("need at least two scored sets")
    labels = _shared_labels(sets)
    preds = np.stack([s.predictions for s in sets])
    # outcome 0 unanimous and correct, 1 unanimous and wrong, 2 split;
    # code 3 * label + outcome counts the fields in their order
    outcome = np.where((preds == preds[0]).all(axis=0), preds[0] != labels, 2)
    return CommonAgreement(*_group_counts((3 * labels + outcome)[None], 3).ravel().tolist())
