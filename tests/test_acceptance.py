"""Release gate: ten self-contained checks, one printed verdict each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL
lines. Each check carries its own independent oracle; anchor numbers
come from the tables published alongside the study this package
replicates.
"""

import math
import time
from itertools import product

import numpy as np
import pytest

from fedvra.data import (
    SynthConfig,
    assign_institutions,
    features_matrix,
    generate_synthetic,
    make_split_plan,
    verify_split_plan,
)
from fedvra.experiment import CENTRAL_SILO_NAME, GridSpec, Treatment, run_treatments
from fedvra.federated import Silo, federated_train, train_for_epochs
from fedvra.network import (
    INPUT_DIM,
    Gradients,
    ModelParams,
    TrainConfig,
    backward,
    batch_loss,
    lr_at_epoch,
)
from fedvra.seeds import derive_seed
from fedvra.stats import Confusion, ScoredSet, bootstrap_ci, bootstrap_diff, metric_bundle, prf1, roc_auc

from central_oracle import train_centralized


def verdict(name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------- 1: analytic gradients vs finite differences ----------


def random_instance(rng, kink_margin=1e-3):
    """(params, x, y, pos weight) with hidden pre-activations clear of 0."""
    while True:
        h = int(rng.integers(1, 5))
        n = int(rng.integers(1, 7))
        params = ModelParams(
            w1=rng.uniform(-0.5, 0.5, size=(h, INPUT_DIM)),
            b1=rng.uniform(-0.5, 0.5, size=h),
            w2=rng.uniform(-0.5, 0.5, size=h),
            b2=float(rng.uniform(-0.5, 0.5)),
        )
        x = rng.uniform(-1, 1, size=(n, INPUT_DIM))
        y = rng.integers(0, 2, size=n).astype(np.float64)
        z1 = x @ params.w1.T + params.b1
        if np.abs(z1).min() > kink_margin:
            return params, x, y, float(rng.uniform(0.5, 10.0))


def fd_loss(vec, h, x, y, pos_weight):
    """Loss from a flat parameter vector, written independently."""
    w1 = vec[: h * INPUT_DIM].reshape(h, INPUT_DIM)
    b1 = vec[h * INPUT_DIM : h * INPUT_DIM + h]
    w2 = vec[h * INPUT_DIM + h : h * INPUT_DIM + 2 * h]
    b2 = vec[-1]
    hidden = np.maximum(x @ w1.T + b1, 0.0)
    z = hidden @ w2 + b2
    softplus = np.logaddexp(0.0, np.stack([-z, z]))
    per = pos_weight * y * softplus[0] + (1 - y) * softplus[1]
    return float(per.mean())


def flatten_params(p: ModelParams) -> np.ndarray:
    return np.concatenate([p.w1.ravel(), p.b1, p.w2, [p.b2]])


def flatten_grads(g: Gradients) -> np.ndarray:
    return np.concatenate([g.w1.ravel(), g.b1, g.w2, [g.b2]])


def test_01_gradient_check():
    rng = np.random.default_rng(101)
    eps = 1e-5
    worst = 0.0
    n_instances = 100
    start = time.perf_counter()
    for _ in range(n_instances):
        params, x, y, pos_weight = random_instance(rng)
        got = flatten_grads(backward(params, x, y, pos_weight))
        vec = flatten_params(params)
        h = params.b1.shape[0]
        fd = np.empty_like(vec)
        for j in range(vec.size):
            up, down = vec.copy(), vec.copy()
            up[j] += eps
            down[j] -= eps
            fd[j] = (fd_loss(up, h, x, y, pos_weight) - fd_loss(down, h, x, y, pos_weight)) / (
                2 * eps
            )
        denom = np.maximum(np.maximum(np.abs(got), np.abs(fd)), 1e-5)
        worst = max(worst, float(np.max(np.abs(got - fd) / denom)))
    elapsed = time.perf_counter() - start
    verdict(
        "gradient-check",
        worst < 1e-4 and elapsed < 10.0,
        f"max relative error {worst:.2e} over {n_instances} instances in {elapsed:.1f}s "
        f"(need < 1e-4 and < 10s)",
    )


# ---------- 2: loss against a scalar-by-scalar oracle ----------


def oracle_loss_scalar(params: ModelParams, x: np.ndarray, y: np.ndarray, pos_weight: float) -> float:
    """Per-sample loss in plain Python floats, no vectorisation."""

    def softplus(v):  # log(1 + e^v) without overflow
        return max(v, 0.0) + math.log1p(math.exp(-abs(v)))

    h = params.b1.shape[0]
    total = 0.0
    for i in range(x.shape[0]):
        z = params.b2
        for k in range(h):
            pre = params.b1[k]
            for j in range(INPUT_DIM):
                pre += params.w1[k, j] * x[i, j]
            z += params.w2[k] * max(pre, 0.0)
        total += pos_weight * y[i] * softplus(-z) + (1.0 - y[i]) * softplus(z)
    return total / x.shape[0]


def test_02_loss_oracle():
    rng = np.random.default_rng(202)
    worst = 0.0
    n_batches = 1000
    for _ in range(n_batches):
        h = int(rng.integers(1, 4))
        n = int(rng.integers(1, 7))
        params = ModelParams(
            w1=rng.uniform(-1, 1, size=(h, INPUT_DIM)),
            b1=rng.uniform(-1, 1, size=h),
            w2=rng.uniform(-1, 1, size=h),
            b2=float(rng.uniform(-1, 1)),
        )
        x = rng.uniform(-1, 1, size=(n, INPUT_DIM))
        y = rng.integers(0, 2, size=n).astype(np.float64)
        pos_weight = float(rng.uniform(0.5, 10.0))
        worst = max(
            worst, abs(batch_loss(params, x, y, pos_weight) - oracle_loss_scalar(params, x, y, pos_weight))
        )
    verdict(
        "loss-oracle",
        worst < 1e-12,
        f"max |batch_loss - scalar oracle| = {worst:.2e} over {n_batches} batches (need < 1e-12)",
    )


# ---------- 3: one-silo federation is plain training ----------


def test_03_degenerate_federation_bit_identity():
    records = generate_synthetic(
        SynthConfig(n_patients=250, seed=17, admissions_per_patient=(2, 2))
    )
    assert len(records) == 500
    x, y = features_matrix(records, range(400))
    vx, vy = features_matrix(records, range(400, 500))
    assert y.sum() > 0 and vy.sum() > 0
    cfg = TrainConfig(
        lr0=0.01,
        hidden_size=16,
        seed=9,
        batch_size=32,
        weight_decay=1e-4,
        max_epochs=50,
        patience=51,  # never triggers: the full 50 epochs run
    )
    silo = Silo(
        name=CENTRAL_SILO_NAME, train_features=x, train_labels=y, val_features=vx, val_labels=vy
    )
    fed_params, fed_logs, _ = federated_train([silo], cfg)
    flat_params, flat_logs = train_centralized(x, y, vx, vy, cfg)
    # federated_train logs validation only; the same rounds at a fixed budget log the training losses
    _, fixed_logs = train_for_epochs([silo], cfg, len(fed_logs))
    same_params = fed_params == flat_params
    same_epochs = len(fed_logs) == len(flat_logs) == 50
    same_traces = all(
        a.val_loss == b.val_loss and f.train_losses == b.train_losses
        for a, f, b in zip(fed_logs, fixed_logs, flat_logs)
    )
    verdict(
        "degenerate-federation",
        same_params and same_epochs and same_traces,
        f"params identical: {same_params}; 50-epoch loss traces identical: {same_traces} "
        f"(500 records, bit-exact comparison)",
    )


# ---------- 4: metric oracle against the published confusions ----------

PUBLISHED_CONFUSIONS = {
    # combined test set (tn, fp, fn, tp), published alongside the study
    "a": Confusion(tn=678, fp=79, fn=63, tp=36),
    "b": Confusion(tn=560, fp=197, fn=39, tp=60),
    "federated": Confusion(tn=615, fp=142, fn=41, tp=58),
    "central": Confusion(tn=621, fp=136, fn=41, tp=58),
}
PUBLISHED_COMBINED = {
    # (precision, recall, f1) reported for the same models
    "a": (0.313, 0.364, 0.336),
    "b": (0.233, 0.606, 0.337),
    "federated": (0.290, 0.586, 0.388),
    "central": (0.299, 0.586, 0.396),
}


def test_04_metric_oracle_reproduces_published_values():
    worst = 0.0
    for key, conf in PUBLISHED_CONFUSIONS.items():
        got = prf1(conf)
        for g, want in zip(got, PUBLISHED_COMBINED[key]):
            worst = max(worst, abs(g - want))
    verdict(
        "published-metrics",
        worst < 1e-3,
        f"max |prf1(confusion) - published value| = {worst:.4f} over four models "
        f"x three measures (need < 0.001)",
    )


# ---------- 5: ward partition matches the published assignment ----------

PUBLISHED_WARD_COUNTS = {"A1": 759, "A3": 826, "A2V": 1877, "A2J": 818}


def test_05_ward_assignment():
    mapping = assign_institutions(PUBLISHED_WARD_COUNTS)
    side_a = {w for w, inst in mapping.items() if inst == "A"}
    got_diff = abs(
        sum(PUBLISHED_WARD_COUNTS[w] for w in side_a)
        - sum(c for w, c in PUBLISHED_WARD_COUNTS.items() if w not in side_a)
    )
    best = min(
        abs(
            sum(c for w, c in PUBLISHED_WARD_COUNTS.items() if pick[w])
            - sum(c for w, c in PUBLISHED_WARD_COUNTS.items() if not pick[w])
        )
        for pick in (
            dict(zip(PUBLISHED_WARD_COUNTS, bits))
            for bits in product((True, False), repeat=len(PUBLISHED_WARD_COUNTS))
        )
    )
    verdict(
        "ward-assignment",
        side_a == {"A2V"} and got_diff == best == 526,
        f"institution A = {sorted(side_a)}, |difference| = {got_diff} "
        f"(exhaustive optimum {best})",
    )


# ---------- 6: split invariants on randomized datasets ----------


def rederive_invariants(records, plan):
    """Check the four split invariants from raw sets, no package verifier."""
    n = len(records)
    test, folded, dropped = set(plan.test_ids), set(plan.fold_of_record), set(plan.dropped_ids)
    if test | folded | dropped != set(range(n)):
        return "partition incomplete"
    if test & folded or test & dropped or folded & dropped:
        return "partition overlaps"
    fold_of_patient = {}
    for i, fold in plan.fold_of_record.items():
        pid = records.patient_id[i]
        if fold_of_patient.setdefault(pid, fold) != fold:
            return f"patient {pid} in two folds"
    test_patients = {records.patient_id[i] for i in test}
    if test_patients & set(fold_of_patient):
        return "patient in both folds and test"
    if not all(records.patient_id[i] in test_patients for i in dropped):
        return "dropped record of a non-test patient"
    for inst in set(plan.institution_of_ward.values()):
        ids = [i for i in range(n) if plan.institution_of_ward[records.ward[i]] == inst]
        train_ts = [records.admission_ts[i] for i in ids if i in folded or i in dropped]
        test_ts = [records.admission_ts[i] for i in ids if i in test]
        if train_ts and test_ts and max(train_ts) > min(test_ts):
            return f"institution {inst} test record earlier than training data"
    return None


def test_06_split_invariants_randomized():
    rng = np.random.default_rng(606)
    n_datasets = 200
    built = 0
    redraws = 0
    mutations_caught = 0
    mutations_tried = 0
    while built < n_datasets:
        k = int(rng.integers(2, 6))
        n_patients = int(rng.integers(8 * k, 8 * k + 40))
        config = SynthConfig(
            n_patients=n_patients,
            seed=int(rng.integers(0, 2**31)),
            positive_rate=float(rng.uniform(0.05, 0.3)),
            class_separation=float(rng.uniform(0.0, 2.0)),
        )
        records = generate_synthetic(config)
        test_fraction = float(rng.uniform(0.1, 0.3))
        try:
            plan = make_split_plan(records, test_fraction, k, seed=int(rng.integers(0, 2**31)))
        except ValueError:
            redraws += 1  # legitimately too few patients for k folds
            assert redraws < 50
            continue
        built += 1
        problem = rederive_invariants(records, plan)
        assert problem is None, f"dataset {built}: {problem}"
        assert verify_split_plan(records, plan) == []

        if built % 25 == 0:
            # seeded violations must be caught by the verifier
            leaked = type(plan)(
                institution_of_ward=plan.institution_of_ward,
                test_ids=plan.test_ids + (next(iter(plan.fold_of_record)),),
                fold_of_record=plan.fold_of_record,
                dropped_ids=plan.dropped_ids,
            )
            unmapped = type(plan)(
                institution_of_ward={
                    w: i for w, i in plan.institution_of_ward.items() if w != records.ward[0]
                },
                test_ids=plan.test_ids,
                fold_of_record=plan.fold_of_record,
                dropped_ids=plan.dropped_ids,
            )
            for mutated in (leaked, unmapped):
                mutations_tried += 1
                mutations_caught += bool(verify_split_plan(records, mutated))
    verdict(
        "split-invariants",
        built == n_datasets and mutations_caught == mutations_tried,
        f"all four invariants held on {built} randomized datasets "
        f"({redraws} redraws); {mutations_caught}/{mutations_tried} seeded violations caught",
    )


# ---------- 7: ROC-AUC equals exhaustive pair counting ----------


def pair_count_auc(labels, scores):
    """Concordant pairs + half ties over all positive-negative pairs."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (pos.size * neg.size)


def test_07_roc_auc_pair_counting():
    rng = np.random.default_rng(707)
    n_instances = 200
    checked = 0
    for _ in range(n_instances):
        n = int(rng.integers(2, 201))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = rng.integers(0, 8, size=n) / 7.0  # coarse grid forces ties
        assert roc_auc(labels, scores) == pair_count_auc(labels, scores)
        checked += 1
    verdict(
        "roc-auc-oracle",
        checked == n_instances,
        f"trapezoidal ROC-AUC == pair counting exactly on {checked} tied instances (n <= 200)",
    )


# ---------- 8: bootstrap coverage of a known accuracy ----------


def test_08_bootstrap_coverage():
    master = 1
    truth = 0.8
    n_trials = 500
    n = 120
    covered = 0
    for t in range(n_trials):
        rng = np.random.default_rng(derive_seed(master, "coverage", t))
        labels = rng.integers(0, 2, size=n)
        correct = rng.uniform(size=n) < truth
        preds = np.where(correct, labels, 1 - labels)
        scored = ScoredSet(labels=labels, scores=preds.astype(np.float64))
        result, _ = bootstrap_ci(
            scored, "accuracy", n_resamples=2000, seed=derive_seed(master, "coverage-ci", t)
        )
        covered += result.ci_low <= truth <= result.ci_high
    rate = covered / n_trials

    rng = np.random.default_rng(808)
    labels = rng.integers(0, 2, size=80)
    scored = ScoredSet(labels=labels, scores=rng.uniform(size=80))
    self_diff, _ = bootstrap_diff(scored, scored, "f1", n_resamples=500, seed=3)
    self_zero = (
        self_diff.mean_diff == 0.0
        and self_diff.ci_low == 0.0
        and self_diff.ci_high == 0.0
        and not self_diff.significant
    )
    verdict(
        "bootstrap-coverage",
        0.93 <= rate <= 0.97 and self_zero,
        f"95% CIs covered the true accuracy in {covered}/{n_trials} trials "
        f"({rate:.3f}, need 0.93-0.97); paired self-difference CI exactly [0, 0]: {self_zero}",
    )


# ---------- 9: four-treatment directional outcome ----------


@pytest.mark.slow
def test_09_end_to_end_directional():
    start = time.perf_counter()
    seed = 1
    records = generate_synthetic(
        SynthConfig(
            n_patients=2000,
            seed=seed,
            positive_rate=0.10,
            class_separation=1.5,
            ward_shift=2.5,  # strongly non-IID institutions
        )
    )
    plan = make_split_plan(records, test_fraction=0.2, n_folds=5, seed=seed)
    grid = GridSpec(hidden_sizes=(32, 64), learning_rates=(0.005, 0.001), weight_decays=(1e-4,))
    cfg = TrainConfig(
        lr0=0.005, hidden_size=32, seed=seed, batch_size=32, max_epochs=40, patience=7
    )
    runs = run_treatments(list(Treatment), records, plan, grid, cfg, threads=4)
    combined = {key: run.evaluations["combined"] for key, run in runs.items()}
    f1 = {key: metric_bundle(s)[1]["f1"] for key, s in combined.items()}
    elapsed = time.perf_counter() - start
    beats_locals = f1["federated"] >= f1["a"] - 0.01 and f1["federated"] >= f1["b"] - 0.01
    near_central = abs(f1["federated"] - f1["central"]) <= 0.05
    verdict(
        "end-to-end-directional",
        beats_locals and near_central and elapsed < 1800,
        f"combined F1: a={f1['a']:.3f} b={f1['b']:.3f} federated={f1['federated']:.3f} "
        f"central={f1['central']:.3f} on {len(records)} records in {elapsed:.0f}s "
        f"(need federated >= locals - 0.01, |federated - central| <= 0.05, < 30 min)",
    )


# ---------- 10: learning-rate schedule ----------


def test_10_lr_schedule():
    ratio = lr_at_epoch(0.005, 0.975, 100) / 0.005
    closed_form = 0.975**100
    err = abs(ratio - closed_form)
    verdict(
        "lr-schedule",
        err <= 1e-12 and 0.05 <= ratio <= 0.10,
        f"lr(100)/lr0 = {ratio:.6f}, |difference from 0.975^100| = {err:.1e} "
        f"(need <= 1e-12 and ratio in [0.05, 0.10])",
    )
