"""The block bootstrap against the per-resample bootstrap it replaced.

The oracle below is the earlier implementation, kept whole: one size-n
index draw per resample, a Python walk over the tie groups of every
ROC-AUC and PR-AUC, scalar formulas over a confusion it counts itself,
and the redraw loop around each undefined resample.
The library must give the same result objects, the same sample bytes
and the same errors, whatever its block size. The full-width PR-AUC
kernel is kept as well: the library's kernel sums only the tie groups
that hold a positive, and must give the same bits.

An independent check closes the file: DeLong's normal interval for a
paired ROC-AUC difference, which shares no code and no method with the
bootstrap, must agree with the bootstrap's percentile interval.
"""

import sys

import numpy as np
import pytest

from fedvra import stats
from fedvra.errors import StatisticalError, UndefinedMetricError
from fedvra.seeds import make_rng
from fedvra.stats import (
    MEASURES,
    BootstrapResult,
    Confusion,
    DiffResult,
    ScoredSet,
    bootstrap_ci,
    bootstrap_diff,
)

MAX_REDRAW_ROUNDS = 1000


# ---------- oracle: the per-resample bootstrap ----------


def loop_score_groups(labels, scores):
    """Descending-score tie groups: list of (score, n_pos, n_neg)."""
    order = np.argsort(-scores, kind="stable")
    s_sorted = scores[order]
    y_sorted = labels[order]
    groups = []
    start = 0
    for end in range(1, labels.size + 1):
        if end == labels.size or s_sorted[end] != s_sorted[start]:
            n_pos = int(y_sorted[start:end].sum())
            groups.append((float(s_sorted[start]), n_pos, end - start - n_pos))
            start = end
    return groups


def loop_roc_auc(labels, scores):
    groups = loop_score_groups(labels, scores)
    n_pos = sum(g[1] for g in groups)
    n_neg = sum(g[2] for g in groups)
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("only one class present")
    acc2 = 0
    tp_before = 0
    for _, p, n in groups:
        acc2 += n * (2 * tp_before + p)
        tp_before += p
    return acc2 / (2.0 * n_pos * n_neg)


def loop_pr_auc(labels, scores):
    groups = loop_score_groups(labels, scores)
    n_pos = sum(g[1] for g in groups)
    n_neg = sum(g[2] for g in groups)
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("only one class present")
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


def loop_roc_curve(labels, scores):
    groups = loop_score_groups(labels, scores)
    n_pos = sum(g[1] for g in groups)
    n_neg = sum(g[2] for g in groups)
    points = [(0.0, 0.0, float("inf"))]
    tp = 0
    fp = 0
    for score, p, n in groups:
        tp += p
        fp += n
        points.append((fp / n_neg, tp / n_pos, score))
    return points


def loop_confusion(labels, scores):
    pos, pred = labels == 1, scores >= stats.THRESHOLD
    return Confusion(
        tn=int(np.sum(~pos & ~pred)), fp=int(np.sum(~pos & pred)),
        fn=int(np.sum(pos & ~pred)), tp=int(np.sum(pos & pred)),
    )


def loop_prf1(conf):
    """Precision, recall, F1 with the 0/0 -> 0 convention."""
    tn, fp, fn, tp = conf
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def accuracy(conf):
    tn, fp, fn, tp = conf
    return (tn + tp) / (tn + fp + fn + tp)


def loop_measure(name, labels, scores):
    if name == "roc_auc":
        return loop_roc_auc(labels, scores)
    if name == "pr_auc":
        return loop_pr_auc(labels, scores)
    conf = loop_confusion(labels, scores)
    if name == "accuracy":
        return accuracy(conf)
    precision, recall, f1 = loop_prf1(conf)
    return {"f1": f1, "precision": precision, "recall": recall}[name]


def loop_bootstrap_values(rng, n_resamples, size, evaluate, can_be_undefined):
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
        for _ in range(MAX_REDRAW_ROUNDS):
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


def oracle_ci(scored, measure, n_resamples, seed):
    labels, scores = scored.labels, scored.scores
    values, n_redrawn = loop_bootstrap_values(
        make_rng(seed, "bootstrap-ci"),
        n_resamples,
        len(scored),
        lambda idx: loop_measure(measure, labels[idx], scores[idx]),
        measure in ("roc_auc", "pr_auc"),
    )
    result = BootstrapResult(
        mean=float(values.mean()),
        ci_low=float(np.percentile(values, 2.5)),
        ci_high=float(np.percentile(values, 97.5)),
        n_resamples=n_resamples,
        n_redrawn=n_redrawn,
    )
    return result, values


def oracle_diff(first, second, measure, n_resamples, seed):
    y, s1, s2 = first.labels, first.scores, second.scores
    values, n_redrawn = loop_bootstrap_values(
        make_rng(seed, "bootstrap-diff"),
        n_resamples,
        len(first),
        lambda idx: loop_measure(measure, y[idx], s1[idx]) - loop_measure(measure, y[idx], s2[idx]),
        measure in ("roc_auc", "pr_auc"),
    )
    ci_low = float(np.percentile(values, 2.5))
    ci_high = float(np.percentile(values, 97.5))
    result = DiffResult(
        mean_diff=float(values.mean()),
        ci_low=ci_low,
        ci_high=ci_high,
        significant=not (ci_low <= 0.0 <= ci_high),
        n_resamples=n_resamples,
        n_redrawn=n_redrawn,
    )
    return result, values


# ---------- point estimates ----------


def test_point_estimates_match_the_loop_oracle():
    rng = np.random.default_rng(900)
    for _ in range(200):
        first, _ = random_pair(rng)
        y, s = first.labels, first.scores
        conf, metrics = stats.metric_bundle(first)
        want_conf = loop_confusion(y, s)
        assert repr(conf) == repr(want_conf)
        want_prf1 = loop_prf1(want_conf)
        assert repr((metrics["precision"], metrics["recall"], metrics["f1"])) == repr(want_prf1)
        if y.sum() in (0, y.size):
            assert metrics["roc_auc"] is None and metrics["pr_auc"] is None
            continue
        assert repr(metrics["roc_auc"]) == repr(loop_roc_auc(y, s))
        assert repr(metrics["pr_auc"]) == repr(loop_pr_auc(y, s))
        assert repr(stats.roc_curve(first)) == repr(loop_roc_curve(y, s))
        assert (metrics["roc_auc"], metrics["pr_auc"]) == (loop_roc_auc(y, s), loop_pr_auc(y, s))


# ---------- oracle: the full-width PR-AUC kernel ----------


def full_width_pr_auc_rows(counts):
    """Average precision of each row of tie-group counts, summed over
    every group: the kernel before it skipped the groups that hold no
    positive in any row."""
    neg, pos = counts[:, :, 0], counts[:, :, 1]
    tp = np.cumsum(pos, axis=1)
    called = tp + np.cumsum(neg, axis=1)
    precision = np.divide(tp, called, out=np.zeros(tp.shape), where=called > 0)
    return np.cumsum(pos / pos.sum(axis=1)[:, None] * precision, axis=1)[:, -1]


def test_pr_auc_kernel_matches_the_full_width_formula():
    rng = np.random.default_rng(808)
    blocks = [np.zeros((0, 6, 2), dtype=np.int64)]  # no rows: every row of the block was single-class
    for _ in range(100):
        # a block as the bootstrap counts it: rounded scores tie, and few positives leave groups without one
        first, _ = random_pair(rng)
        rows = rng.integers(0, len(first), size=(int(rng.integers(1, 30)), len(first)))
        counts = stats._tie_counts(first, rows)
        blocks.append(counts[stats._both_classes(counts)])
        # random counts in which about half the groups hold no positive in any row
        n_rows, n_groups = int(rng.integers(1, 20)), int(rng.integers(1, 40))
        counts = rng.integers(0, 4, size=(n_rows, n_groups, 2))
        counts[:, rng.uniform(size=n_groups) < 0.5, 1] = 0
        counts[np.arange(n_rows), rng.integers(n_groups, size=n_rows), 1] += 1  # a positive in every row
        blocks.append(counts)
    seen = set()
    for counts in blocks:
        got, want = stats._pr_auc_rows(counts), full_width_pr_auc_rows(counts)
        assert got.shape == want.shape == (len(counts),)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        pos = counts[:, :, 1]
        seen.add("empty" if not len(counts) else "skips a group" if not pos.any(axis=0).all() else "full width")
        seen.add("ties" if (counts.sum(axis=2) > 1).any() else "no ties")
    assert seen == {"empty", "skips a group", "full width", "ties", "no ties"}


# ---------- comparison helpers ----------


def outcome(call):
    """(repr of the result, sample bytes) or (exception type, message)."""
    try:
        result, values = call()
    except StatisticalError as exc:
        return ("error", type(exc).__name__, str(exc))
    return ("ok", repr(result), values.dtype.str, values.tobytes())


def random_pair(rng):
    """Two scored sets sharing labels: rounded scores make ties, low
    positive rates and tiny sets make redraws and both error paths."""
    n = int(rng.choice([2, 2, 3, 5, 8, 13, 40, 97]))
    rate = float(rng.choice([0.03, 0.1, 0.3, 0.5]))
    labels = (rng.uniform(size=n) < rate).astype(np.int64)
    if n > 2 and rng.uniform() < 0.9 and labels.sum() in (0, n):
        labels[int(rng.integers(n))] = 1 - labels[0]
    decimals = int(rng.choice([1, 2, 12]))
    first = ScoredSet(labels=labels, scores=np.round(rng.uniform(size=n), decimals))
    second = ScoredSet(labels=labels, scores=np.round(rng.uniform(size=n), decimals))
    return first, second


@pytest.mark.parametrize("measure", MEASURES)
def test_block_bootstrap_matches_the_per_resample_oracle(measure):
    rng = np.random.default_rng(MEASURES.index(measure) + 500)
    seen = set()
    for _ in range(40):
        first, second = random_pair(rng)
        n_resamples = int(rng.choice([1, 7, 101, 250]))
        seed = int(rng.integers(1000))
        want_ci = outcome(lambda: oracle_ci(first, measure, n_resamples, seed))
        got_ci = outcome(lambda: bootstrap_ci(first, measure, n_resamples=n_resamples, seed=seed))
        assert got_ci == want_ci
        want_diff = outcome(lambda: oracle_diff(first, second, measure, n_resamples, seed))
        got_diff = outcome(lambda: bootstrap_diff(first, second, measure, n_resamples=n_resamples, seed=seed))
        assert got_diff == want_diff
        for o in (want_ci, want_diff):
            if o[0] == "error":
                seen.add("every redraw" if "every redraw" in o[2] else "more than half")
            elif "n_redrawn=0)" not in o[1]:
                seen.add("redrawn")
    if measure in ("roc_auc", "pr_auc"):
        assert seen == {"every redraw", "more than half", "redrawn"}
    else:
        assert not seen


def split_run_position(labels, n_resamples, seed, label):
    """Stream position of the first row of a run of two or more
    single-class rows, among the rows the bootstrap consumes."""
    rng = make_rng(seed, label)
    n = labels.size
    previous_undefined = False
    for position in range(10 * n_resamples):
        n_pos = labels[rng.integers(0, n, size=n)].sum()
        undefined = n_pos in (0, n)
        if undefined and previous_undefined:
            return position - 1
        previous_undefined = undefined
    raise AssertionError("no run of undefined rows")


@pytest.mark.parametrize("measure", MEASURES)
def test_block_size_does_not_change_the_output(measure, monkeypatch):
    # one positive among twenty: about a third of the rows are single-class
    rng = np.random.default_rng(31)
    labels = np.zeros(20, dtype=np.int64)
    labels[7] = 1
    first = ScoredSet(labels=labels, scores=np.round(rng.uniform(size=20), 1))
    second = ScoredSet(labels=labels, scores=np.round(rng.uniform(size=20), 1))

    def run():
        ci = bootstrap_ci(first, measure, n_resamples=300, seed=2)
        diff = bootstrap_diff(first, second, measure, n_resamples=300, seed=2)
        return [(repr(r), v.tobytes()) for r, v in (ci, diff)]

    default = run()
    redraws = measure in ("roc_auc", "pr_auc")
    assert ("n_redrawn=0)" not in default[0][0]) == redraws
    want_ci, want_values = oracle_ci(first, measure, 300, 2)
    assert default[0] == (repr(want_ci), want_values.tobytes())

    # a block boundary right after the first row of a redraw run; the
    # threshold measures never redraw, so for them these are two more sizes
    ci_split = split_run_position(labels, 300, 2, "bootstrap-ci") + 1
    diff_split = split_run_position(labels, 300, 2, "bootstrap-diff") + 1
    for rows_per_block in (1, 2, 3, ci_split, diff_split):
        monkeypatch.setattr(stats, "_BLOCK_ELEMENTS", rows_per_block * labels.size)
        assert run() == default, rows_per_block


@pytest.mark.parametrize("cap", [0, 1, 2, 5])
def test_redraw_cap_matches_the_oracle(cap, monkeypatch):
    # a small cap makes runs of exactly cap and cap + 1 undefined rows common
    monkeypatch.setattr(stats, "_MAX_REDRAW_ROUNDS", cap)
    monkeypatch.setattr(sys.modules[__name__], "MAX_REDRAW_ROUNDS", cap)
    rng = np.random.default_rng(700 + cap)
    seen = set()
    for _ in range(60):
        n = int(rng.integers(3, 9))
        labels = np.zeros(n, dtype=np.int64)
        labels[int(rng.integers(n))] = 1
        scored = ScoredSet(labels=labels, scores=np.round(rng.uniform(size=n), 1))
        n_resamples = int(rng.choice([5, 40]))
        seed = int(rng.integers(1000))
        want = outcome(lambda: oracle_ci(scored, "roc_auc", n_resamples, seed))
        got = outcome(lambda: bootstrap_ci(scored, "roc_auc", n_resamples=n_resamples, seed=seed))
        assert got == want
        seen.add(want[2] if want[0] == "error" else want[0])
    assert {"ok", "measure undefined on every redraw attempt"} <= seen


# ---------- independent oracle: DeLong's paired AUC interval ----------


def midranks(x):
    """1-based ranks of x, tied values sharing the mean of their positions."""
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return (ends - (counts - 1) / 2.0)[inverse]


def delong_diff_interval(labels, first, second, z=1.959963984540054):
    """95% normal interval of ROC-AUC(first) - ROC-AUC(second) on one test set:
    DeLong et al.'s (1988) variance in Sun & Xu's (2014) midrank form."""
    pos, neg = labels == 1, labels == 0
    m, n = int(pos.sum()), int(neg.sum())
    aucs, v10, v01 = [], [], []
    for scores in (first, second):
        ranks = midranks(scores)
        aucs.append((ranks[pos].sum() - m * (m + 1) / 2) / (m * n))
        v10.append((ranks[pos] - midranks(scores[pos])) / n)  # per positive: share of negatives below it
        v01.append(1.0 - (ranks[neg] - midranks(scores[neg])) / m)  # per negative: share of positives above it
    cov = np.cov(v10) / m + np.cov(v01) / n
    diff = aucs[0] - aucs[1]
    half = z * np.sqrt(cov[0, 0] + cov[1, 1] - 2 * cov[0, 1])
    return diff - half, diff + half


@pytest.mark.parametrize("n, positive_rate", [(400, 0.1), (400, 0.3), (2000, 0.1), (2000, 0.3)])
def test_auc_difference_interval_agrees_with_delong(n, positive_rate):
    rng = np.random.default_rng([n, int(100 * positive_rate)])
    labels = (rng.random(n) < positive_rate).astype(np.int64)
    shared = rng.normal(size=n)  # a latent both models see: correlated scores

    def model(signal):
        return 1.0 / (1.0 + np.exp(-(signal * labels + shared + rng.normal(size=n))))

    first, second = ScoredSet(labels, model(1.5)), ScoredSet(labels, model(1.0))
    want_low, want_high = delong_diff_interval(labels, first.scores, second.scores)
    got, _ = bootstrap_diff(first, second, "roc_auc", n_resamples=10_000, seed=n)
    assert abs(got.ci_low - want_low) <= 0.005
    assert abs(got.ci_high - want_high) <= 0.005
    assert 0.95 <= (got.ci_high - got.ci_low) / (want_high - want_low) <= 1.05
