"""Metrics and bootstrap: published-table anchors plus brute-force oracles.

The ROC oracle counts all positive-negative pairs in O(n^2); the PR
oracle recomputes average precision by threshold scanning; the
bootstrap oracle replays the resampler's index stream by hand.
"""

import math

import numpy as np
import pytest

from fedvra.errors import StatisticalError, UndefinedMetricError
from fedvra.seeds import make_rng
from fedvra.stats import (
    BootstrapResult,
    CommonAgreement,
    Confusion,
    ContingencyCounts,
    MEASURES,
    ScoredSet,
    accuracy,
    bootstrap_ci,
    bootstrap_diff,
    common_agreement,
    confusion,
    contingency,
    metric_bundle,
    pr_auc,
    prf1,
    roc_auc,
    roc_curve,
)
from fedvra.stats import _ci_bounds

# combined-test-set confusion matrices of the four treatments, published
# alongside the study this package replicates (TN, FP, FN, TP)
PUBLISHED_CONFUSIONS = {
    "a": Confusion(tn=678, fp=79, fn=63, tp=36),
    "b": Confusion(tn=560, fp=197, fn=39, tp=60),
    "federated": Confusion(tn=615, fp=142, fn=41, tp=58),
    "central": Confusion(tn=621, fp=136, fn=41, tp=58),
}
PUBLISHED_COMBINED = {  # (precision, recall, f1) per treatment
    "a": (0.313, 0.364, 0.336),
    "b": (0.233, 0.606, 0.337),
    "federated": (0.290, 0.586, 0.388),
    "central": (0.299, 0.586, 0.396),
}


# ---------- oracles ----------


def pair_count_auc(labels, scores) -> float:
    """Mann-Whitney statistic by explicit pair enumeration."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def threshold_scan_ap(labels, scores) -> float:
    """Average precision via an O(n^2) threshold scan."""
    n_pos = sum(labels)
    ap = 0.0
    prev_tp = 0
    for t in sorted(set(scores), reverse=True):
        tp = sum(1 for s, y in zip(scores, labels) if s >= t and y == 1)
        fp = sum(1 for s, y in zip(scores, labels) if s >= t and y == 0)
        if tp > prev_tp:
            ap += (tp - prev_tp) / n_pos * (tp / (tp + fp))
        prev_tp = tp
    return ap


def vectors_from_confusion(conf: Confusion):
    labels = [0] * (conf.tn + conf.fp) + [1] * (conf.fn + conf.tp)
    preds = [0] * conf.tn + [1] * conf.fp + [0] * conf.fn + [1] * conf.tp
    return np.array(labels), np.array(preds)


# ---------- confusion / prf1 ----------


def test_confusion_basics():
    assert confusion([1, 0], [1, 0]) == Confusion(tn=1, fp=0, fn=0, tp=1)
    labels, preds = vectors_from_confusion(PUBLISHED_CONFUSIONS["a"])
    assert confusion(labels, preds) == PUBLISHED_CONFUSIONS["a"]


def test_confusion_all_negative_predictions():
    labels = np.array([0] * 757 + [1] * 99)
    preds = np.zeros(856, dtype=int)
    assert confusion(labels, preds) == Confusion(tn=757, fp=0, fn=99, tp=0)


def test_confusion_rejects_bad_inputs():
    with pytest.raises(ValueError):
        confusion([0, 1], [0, 2])
    with pytest.raises(ValueError):
        confusion([0, 1], [0])
    with pytest.raises(ValueError):
        confusion([], [])


def test_prf1_reproduces_published_combined_metrics():
    for key, conf in PUBLISHED_CONFUSIONS.items():
        precision, recall, f1 = prf1(conf)
        want_p, want_r, want_f = PUBLISHED_COMBINED[key]
        assert abs(precision - want_p) <= 0.001, key
        assert abs(recall - want_r) <= 0.001, key
        assert abs(f1 - want_f) <= 0.001, key


def test_prf1_zero_conventions():
    assert prf1(Confusion(tn=5, fp=0, fn=0, tp=0)) == (0.0, 0.0, 0.0)
    assert prf1(Confusion(tn=0, fp=0, fn=0, tp=10)) == (1.0, 1.0, 1.0)
    precision, recall, f1 = prf1(Confusion(tn=3, fp=2, fn=0, tp=0))
    assert (precision, recall, f1) == (0.0, 0.0, 0.0)


def test_accuracy():
    assert accuracy(Confusion(tn=615, fp=142, fn=41, tp=58)) == (615 + 58) / 856


# ---------- ranking metrics ----------


def test_roc_auc_endpoints():
    y = np.array([0, 0, 1, 1])
    assert roc_auc(y, np.array([0.1, 0.2, 0.8, 0.9])) == 1.0
    assert roc_auc(y, np.array([0.9, 0.8, 0.2, 0.1])) == 0.0
    assert roc_auc(y, np.array([0.4, 0.4, 0.4, 0.4])) == 0.5


def test_roc_auc_single_class_undefined():
    with pytest.raises(UndefinedMetricError):
        roc_auc(np.ones(4), np.linspace(0, 1, 4))
    with pytest.raises(UndefinedMetricError):
        pr_auc(np.zeros(4), np.linspace(0, 1, 4))


def test_roc_auc_equals_pair_counting():
    rng = np.random.default_rng(404)
    for _ in range(60):
        n = int(rng.integers(3, 120))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        # coarse grid forces heavy score ties
        scores = rng.integers(0, 7, size=n) / 6.0
        assert roc_auc(labels, scores) == pair_count_auc(labels.tolist(), scores.tolist())


def test_pr_auc_values():
    y = np.array([0, 0, 1, 1])
    assert pr_auc(y, np.array([0.1, 0.2, 0.8, 0.9])) == 1.0
    # one tie group: AP collapses to the prevalence
    assert pr_auc(y, np.full(4, 0.3)) == 0.5
    labels = np.array([0] * 9 + [1])
    assert pr_auc(labels, np.full(10, 0.4)) == 0.1


def test_pr_auc_matches_threshold_scan():
    rng = np.random.default_rng(405)
    for _ in range(60):
        n = int(rng.integers(3, 100))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        scores = rng.integers(0, 9, size=n) / 8.0
        got = pr_auc(labels, scores)
        want = threshold_scan_ap(labels.tolist(), scores.tolist())
        assert math.isclose(got, want, rel_tol=0, abs_tol=1e-12)


def test_roc_curve_shape():
    labels = np.array([0, 1, 0, 1, 1])
    scores = np.array([0.2, 0.9, 0.2, 0.6, 0.6])
    curve = roc_curve(ScoredSet(labels, scores))
    assert curve[0] == (0.0, 0.0, float("inf"))
    assert curve[-1][:2] == (1.0, 1.0)
    assert len(curve) == 1 + len(set(scores.tolist()))
    fprs = [p[0] for p in curve]
    tprs = [p[1] for p in curve]
    assert fprs == sorted(fprs) and tprs == sorted(tprs)
    thresholds = [p[2] for p in curve]
    assert thresholds == sorted(thresholds, reverse=True)


# ---------- scored sets / measure dispatch ----------


def test_scored_set_derives_predictions():
    s = ScoredSet(labels=np.array([0, 1, 1]), scores=np.array([0.2, 0.5, 0.9]))
    assert s.predictions.tolist() == [0, 1, 1]  # 0.5 is positive at the threshold
    assert len(s) == 3


def test_scored_set_validation():
    with pytest.raises(ValueError):
        ScoredSet(labels=np.array([0, 2]), scores=np.array([0.1, 0.2]))
    with pytest.raises(ValueError):
        ScoredSet(labels=np.array([0, 1]), scores=np.array([0.1, 1.2]))


def test_non_integral_labels_are_rejected_before_the_int_cast():
    # the int64 cast alone reads 0.5 as 0 and 1.7 as 1
    labels, scores = [0.5, 1.7, 0.0], np.array([0.2, 0.9, 0.4])
    for call in (
        lambda: ScoredSet(labels=labels, scores=scores),
        lambda: confusion([0.9, 1.0], [0, 1]),
        lambda: metric_bundle(ScoredSet(labels, scores)),
        lambda: roc_auc(labels, scores),
        lambda: pr_auc(labels, scores),
        lambda: roc_curve(ScoredSet(labels, scores)),
    ):
        with pytest.raises(ValueError, match="^labels must be 0 or 1$"):
            call()
    with pytest.raises(ValueError, match="^predictions must be 0 or 1$"):
        confusion([0, 1], [0, 0.5])
    # float 0.0 / 1.0 labels, as features_matrix and federated_validate pass them
    floats = np.array([0.0, 1.0, 0.0])
    assert ScoredSet(labels=floats, scores=scores).labels.tolist() == [0, 1, 0]
    assert metric_bundle(ScoredSet(floats, scores)) == metric_bundle(ScoredSet(floats.astype(np.int64), scores))
    assert confusion(floats, [0, 1, 1]) == Confusion(tn=1, fp=1, fn=0, tp=1)


def test_scored_set_leaves_the_callers_arrays_writeable():
    labels = np.array([0, 1, 1])
    scores = np.array([0.2, 0.5, 0.9])
    s = ScoredSet(labels=labels, scores=scores)
    for mine, theirs in ((s.labels, labels), (s.scores, scores)):
        assert theirs.flags.writeable and not mine.flags.writeable
        assert not np.shares_memory(mine, theirs)
    assert not s.predictions.flags.writeable


def test_metric_bundle_matches_the_single_measures():
    s = ScoredSet(labels=np.array([0, 0, 1, 1]), scores=np.array([0.1, 0.6, 0.4, 0.8]))
    conf = confusion(s.labels, s.predictions)
    precision, recall, f1 = prf1(conf)
    got_conf, metrics = metric_bundle(s)
    assert got_conf == conf
    assert list(metrics) == ["f1", "precision", "recall", "roc_auc", "pr_auc"]
    assert metrics["precision"] == precision
    assert metrics["recall"] == recall
    assert metrics["f1"] == f1
    assert metrics["roc_auc"] == roc_auc(s.labels, s.scores)
    assert metrics["pr_auc"] == pr_auc(s.labels, s.scores)
    # the trapezoids under the set's ROC curve add up to its ROC-AUC
    fpr, tpr, _ = np.array(roc_curve(s)).T
    assert math.isclose(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2), metrics["roc_auc"], abs_tol=1e-12)
    # a list of scores is read as an array, as roc_auc and pr_auc read it
    assert metric_bundle(ScoredSet([0, 1, 0], [0.2, 0.9, 0.4])) == (
        Confusion(tn=2, fp=0, fn=0, tp=1),
        {"f1": 1.0, "precision": 1.0, "recall": 1.0, "roc_auc": 1.0, "pr_auc": 1.0},
    )
    # accuracy is a bootstrap-only measure: one resample, replayed by hand
    _, samples = bootstrap_ci(s, "accuracy", n_resamples=1, seed=4, return_samples=True)
    idx = make_rng(4, "bootstrap-ci").integers(0, len(s), size=len(s))
    assert samples[0] == accuracy(confusion(s.labels[idx], s.predictions[idx]))
    with pytest.raises(ValueError):
        bootstrap_ci(s, "mcc")
    with pytest.raises(ValueError):
        bootstrap_diff(s, s, "mcc")
    assert set(MEASURES) == {"f1", "precision", "recall", "accuracy", "roc_auc", "pr_auc"}


# ---------- bootstrap ----------


def test_bootstrap_ci_deterministic():
    rng = np.random.default_rng(11)
    s = ScoredSet(labels=rng.integers(0, 2, 50), scores=rng.uniform(size=50))
    a = bootstrap_ci(s, "f1", n_resamples=300, seed=9)
    b = bootstrap_ci(s, "f1", n_resamples=300, seed=9)
    assert a == b
    assert isinstance(a, BootstrapResult)
    assert a.ci_low <= a.mean <= a.ci_high
    assert a.n_redrawn == 0


def test_bootstrap_ci_constant_classifier():
    # every resample has F1 = 0, so the interval collapses
    s = ScoredSet(labels=np.array([0, 1, 0, 1]), scores=np.zeros(4))
    result = bootstrap_ci(s, "f1", n_resamples=200, seed=3)
    assert (result.mean, result.ci_low, result.ci_high) == (0.0, 0.0, 0.0)


def test_bootstrap_ci_matches_manual_resampler():
    rng = np.random.default_rng(12)
    labels = rng.integers(0, 2, 40)
    scores = rng.uniform(size=40)
    s = ScoredSet(labels=labels, scores=scores)
    result, samples = bootstrap_ci(s, "f1", n_resamples=100, seed=21, return_samples=True)

    manual_rng = make_rng(21, "bootstrap-ci")
    for i in range(100):
        idx = manual_rng.integers(0, 40, size=40)
        _, _, f1 = prf1(confusion(labels[idx], (scores[idx] >= 0.5).astype(int)))
        assert samples[i] == f1
    assert result.ci_low == float(np.percentile(samples, 2.5))
    assert result.ci_high == float(np.percentile(samples, 97.5))
    assert result.mean == float(samples.mean())


def test_ci_bounds_equal_numpy_percentile_bit_for_bit():
    rng = np.random.default_rng(15)
    for n in [*range(1, 65), 999, 1000, 1001, 10000]:
        for values in (
            rng.uniform(-1, 1, n),
            np.round(rng.uniform(size=n), 1),  # heavy ties
            np.full(n, 0.25),
            rng.choice([0.0, -0.0], n),  # the two zeros tie but differ in sign
            rng.choice([-0.5, -0.0, 0.0, 0.5], n),
        ):
            want = [float(np.percentile(values, q)).hex() for q in (2.5, 97.5)]
            assert [bound.hex() for bound in _ci_bounds(values)] == want, (n, values)


def test_bootstrap_ci_redraws_single_class_resamples():
    # one positive among eight: some AUC resamples are single-class
    s = ScoredSet(
        labels=np.array([0, 0, 0, 0, 0, 0, 0, 1]),
        scores=np.array([0.1, 0.2, 0.3, 0.1, 0.2, 0.4, 0.3, 0.9]),
    )
    result = bootstrap_ci(s, "roc_auc", n_resamples=300, seed=5)
    assert result.n_redrawn > 0
    assert 0.0 <= result.ci_low <= result.ci_high <= 1.0


def test_bootstrap_ci_mostly_undefined_raises():
    # 2 samples, one of each class: half of all resamples are single-class;
    # this seed's first pass lands above the 50% cutoff
    s = ScoredSet(labels=np.array([0, 1]), scores=np.array([0.2, 0.8]))
    with pytest.raises(StatisticalError):
        bootstrap_ci(s, "roc_auc", n_resamples=101, seed=1)


def test_bootstrap_ci_rejects_bad_arguments():
    s = ScoredSet(labels=np.array([0, 1]), scores=np.array([0.2, 0.8]))
    with pytest.raises(ValueError):
        bootstrap_ci(s, "mcc")
    with pytest.raises(ValueError):
        bootstrap_ci(s, "f1", n_resamples=0)


def test_bootstrap_diff_self_is_zero():
    rng = np.random.default_rng(14)
    s = ScoredSet(labels=rng.integers(0, 2, 30), scores=rng.uniform(size=30))
    diff = bootstrap_diff(s, s, "f1", n_resamples=400, seed=8)
    assert (diff.mean_diff, diff.ci_low, diff.ci_high) == (0.0, 0.0, 0.0)
    assert not diff.significant


def test_bootstrap_diff_perfect_vs_constant():
    # all-positive labels: every resample scores 1 - 0 with no redraws
    labels = np.ones(6, dtype=int)
    perfect = ScoredSet(labels=labels, scores=np.ones(6))
    constant = ScoredSet(labels=labels, scores=np.zeros(6))
    diff = bootstrap_diff(perfect, constant, "f1", n_resamples=200, seed=4)
    assert (diff.mean_diff, diff.ci_low, diff.ci_high) == (1.0, 1.0, 1.0)
    assert diff.significant
    assert diff.n_redrawn == 0


def test_bootstrap_diff_is_paired():
    # same draws hit both sets: identical scores shifted by label noise
    rng = np.random.default_rng(15)
    labels = rng.integers(0, 2, 60)
    base = rng.uniform(size=60)
    first = ScoredSet(labels=labels, scores=base)
    second = ScoredSet(labels=labels, scores=base)
    result, samples = bootstrap_diff(first, second, "accuracy", n_resamples=50, seed=1, return_samples=True)
    assert np.all(samples == 0.0)


def test_bootstrap_diff_requires_shared_labels():
    a = ScoredSet(labels=np.array([0, 1]), scores=np.array([0.1, 0.9]))
    b = ScoredSet(labels=np.array([1, 0]), scores=np.array([0.1, 0.9]))
    with pytest.raises(ValueError):
        bootstrap_diff(a, b, "f1")


def test_bootstrap_diff_deterministic():
    rng = np.random.default_rng(16)
    labels = rng.integers(0, 2, 40)
    a = ScoredSet(labels=labels, scores=rng.uniform(size=40))
    b = ScoredSet(labels=labels, scores=rng.uniform(size=40))
    assert bootstrap_diff(a, b, "recall", n_resamples=100, seed=6) == bootstrap_diff(
        a, b, "recall", n_resamples=100, seed=6
    )


# ---------- agreement ----------


def test_contingency_identity_and_complement():
    a = np.array([True, False, True, True])
    assert contingency(a, a) == ContingencyCounts(3, 0, 0, 1)
    assert contingency(a, ~a) == ContingencyCounts(0, 3, 1, 0)


def test_contingency_published_anchor():
    # federated vs centralised on the combined set: 658/15/21/162,
    # i.e. the two models disagree on only 21 + 15 = 36 records
    fed = np.array([True] * 673 + [False] * 183)
    other = np.array([True] * 658 + [False] * 15 + [True] * 21 + [False] * 162)
    counts = contingency(fed, other)
    assert counts == ContingencyCounts(658, 15, 21, 162)
    assert counts.first_only + counts.second_only == 36
    assert sum(counts) == 856


def test_common_agreement_unanimous():
    labels = np.array([0, 0, 1, 1])
    s = ScoredSet(labels=labels, scores=np.array([0.1, 0.9, 0.2, 0.8]))
    result = common_agreement([s, s, s])
    assert result.agreement_rate == 1.0
    assert result == CommonAgreement(
        neg_correct=1, neg_wrong=1, neg_disagree=0, pos_correct=1, pos_wrong=1, pos_disagree=0
    )


def test_common_agreement_total_disagreement():
    labels = np.array([0, 1, 0, 1])
    a = ScoredSet(labels=labels, scores=np.array([0.9, 0.9, 0.9, 0.9]))
    b = ScoredSet(labels=labels, scores=np.array([0.1, 0.1, 0.1, 0.1]))
    result = common_agreement([a, b])
    assert result.agreement_rate == 0.0
    assert result.neg_disagree == 2 and result.pos_disagree == 2


def test_common_agreement_published_anchor():
    # published cell counts: 545 negatives and 33 positives unanimously
    # correct, 72 negatives and 34 positives unanimously wrong, 856 total
    def scored(preds, labels):
        return ScoredSet(labels=labels, scores=np.asarray(preds, dtype=float))

    labels = np.array([0] * 757 + [1] * 99)
    base_neg = [0] * 545 + [1] * 72 + [0] * 70 + [1] * 70
    base_pos = [1] * 33 + [0] * 34 + [1] * 16 + [0] * 16
    flip_neg = [0] * 545 + [1] * 72 + [1] * 70 + [0] * 70
    flip_pos = [1] * 33 + [0] * 34 + [0] * 16 + [1] * 16
    agree = scored(base_neg + base_pos, labels)
    disagree = scored(flip_neg + flip_pos, labels)
    result = common_agreement([agree, agree, disagree, agree])
    assert result.neg_correct == 545 and result.neg_wrong == 72
    assert result.pos_correct == 33 and result.pos_wrong == 34
    assert result.total == 856
    assert round(result.agreement_rate, 3) == 0.799


def test_common_agreement_counts_partition_the_set():
    rng = np.random.default_rng(17)
    labels = rng.integers(0, 2, 100)
    sets = [ScoredSet(labels=labels, scores=rng.uniform(size=100)) for _ in range(4)]
    result = common_agreement(sets)
    assert result.total == 100


def test_common_agreement_rejects_bad_inputs():
    s = ScoredSet(labels=np.array([0, 1]), scores=np.array([0.1, 0.9]))
    other = ScoredSet(labels=np.array([1, 0]), scores=np.array([0.1, 0.9]))
    with pytest.raises(ValueError):
        common_agreement([s])
    with pytest.raises(ValueError):
        common_agreement([s, other])
