"""Grid search, model selection, final fits, and evaluation."""

import math
import sys

import numpy as np
import pytest

from fedvra.data import SynthConfig, features_matrix, generate_synthetic, make_split_plan
from fedvra.experiment import (
    CENTRAL_SILO_NAME,
    CvResult,
    FoldFit,
    GridSpec,
    HyperCombo,
    Treatment,
    evaluate,
    final_epoch_budget,
    grid_search_cv,
    run_treatments,
    select_best,
    silos_for_treatment,
    train_final,
)
from fedvra.experiment import TestSet as EvalTestSet
from fedvra.experiment import test_sets_from_plan as build_test_sets
from fedvra.federated import federated_train, federated_validate, resolve_pos_weight
from fedvra.network import TrainConfig, forward_batch, init_model, sigmoid
from fedvra.seeds import derive_seed
from fedvra.stats import THRESHOLD, Confusion, ScoredSet, confusion, metric_bundle, prf1

from central_oracle import train_centralized


@pytest.fixture(scope="module")
def dataset():
    records = generate_synthetic(
        SynthConfig(
            n_patients=60,
            seed=33,
            admissions_per_patient=(1, 2),
            positive_rate=0.3,
            class_separation=2.0,
        )
    )
    plan = make_split_plan(records, test_fraction=0.2, n_folds=3, seed=0)
    return records, plan


def base_config(**kwargs):
    base = dict(lr0=0.05, hidden_size=8, seed=5, batch_size=16, max_epochs=4, patience=4)
    base.update(kwargs)
    return TrainConfig(**base)


def tiny_grid():
    return GridSpec(hidden_sizes=(4,), learning_rates=(0.05,), weight_decays=(1e-4,))


def dummy_result(f1, hidden=64, lr=0.001, wd=1e-4):
    return CvResult(combo=HyperCombo(hidden, lr, wd), fold_fits=(), f1=f1)


def refit_fold(records, plan, cfg, treatment, combo_index, fold):
    """Refit one CV fit of tiny_grid() from its derived seed and validate
    its checkpoint: (val_loss, confusion, scores, labels)."""
    silos = silos_for_treatment(treatment, records, plan, heldout_fold=fold)
    combo = tiny_grid().combos()[combo_index]
    refit_cfg = TrainConfig(
        lr0=combo.learning_rate,
        hidden_size=combo.hidden_size,
        seed=derive_seed(cfg.seed, treatment.key, combo_index, fold),
        batch_size=cfg.batch_size,
        weight_decay=combo.weight_decay,
        max_epochs=cfg.max_epochs,
        patience=cfg.patience,
    )
    params, _ = federated_train(silos, refit_cfg)
    val_loss, scored = federated_validate(params, silos, resolve_pos_weight(silos))
    labels, scores = scored.labels, scored.scores
    return val_loss, confusion(labels, (scores >= THRESHOLD).astype(np.int64)), scores, labels


# ---------- grid and treatments ----------


def test_default_grid_has_36_combos():
    combos = GridSpec().combos()
    assert len(combos) == 36
    assert len(set(combos)) == 36
    assert combos[0] == HyperCombo(64, 0.005, 1e-3)
    assert combos[-1] == HyperCombo(512, 0.0005, 1e-5)
    # weight decay is the fastest-moving axis, hidden size the slowest
    assert combos[1] == HyperCombo(64, 0.005, 1e-4)
    assert combos[9] == HyperCombo(128, 0.005, 1e-3)


def test_grid_rejects_empty_axis():
    with pytest.raises(ValueError):
        GridSpec(hidden_sizes=())


def test_treatment_keys_round_trip():
    for t in Treatment:
        assert Treatment(t.key) is t
    assert Treatment("central") is Treatment.CENTRALISED
    with pytest.raises(ValueError):
        Treatment("nope")


# ---------- silo construction ----------


def test_silos_central_is_single_pool(dataset):
    records, plan = dataset
    silos = silos_for_treatment(Treatment.CENTRALISED, records, plan, heldout_fold=1)
    assert [s.name for s in silos] == [CENTRAL_SILO_NAME]
    folded = sorted(plan.fold_of_record)
    assert silos[0].n_train == len(folded) - len(plan.fold_ids(1))
    assert silos[0].n_val == len(plan.fold_ids(1))


def test_silos_federated_partition_by_institution(dataset):
    records, plan = dataset
    silos = silos_for_treatment(Treatment.FEDERATED, records, plan, heldout_fold=2)
    assert [s.name for s in silos] == ["A", "B"]
    train_ids = [i for i, f in plan.fold_of_record.items() if f != 2]
    for silo in silos:
        want = [
            i for i in sorted(train_ids)
            if plan.institution_of_ward[records.ward[i]] == silo.name
        ]
        x, y = features_matrix(records, want)
        assert np.array_equal(silo.train_features, x)
        assert np.array_equal(silo.train_labels, y)
        want_val = [
            i for i in plan.fold_ids(2)
            if plan.institution_of_ward[records.ward[i]] == silo.name
        ]
        assert silo.n_val == len(want_val)
    assert silos[0].n_train + silos[1].n_train == len(train_ids)


def test_silos_local_single_institution(dataset):
    records, plan = dataset
    fed = silos_for_treatment(Treatment.FEDERATED, records, plan, heldout_fold=1)
    local_a = silos_for_treatment(Treatment.LOCAL_A, records, plan, heldout_fold=1)
    local_b = silos_for_treatment(Treatment.LOCAL_B, records, plan, heldout_fold=1)
    assert [s.name for s in local_a] == ["A"]
    assert [s.name for s in local_b] == ["B"]
    assert np.array_equal(local_a[0].train_features, fed[0].train_features)
    assert np.array_equal(local_b[0].train_features, fed[1].train_features)


def test_silos_no_heldout_fold_means_empty_validation(dataset):
    records, plan = dataset
    silos = silos_for_treatment(Treatment.CENTRALISED, records, plan, heldout_fold=None)
    assert silos[0].n_train == len(plan.fold_of_record)
    assert silos[0].n_val == 0


# ---------- selection and budget ----------


def test_select_best_prefers_higher_f1():
    results = [dummy_result(0.4), dummy_result(0.6, hidden=512), dummy_result(0.5)]
    assert select_best(results) is results[1]
    assert select_best(results).combo == HyperCombo(512, 0.001, 1e-4)


def test_select_best_tie_break_order():
    # equal f1: smaller hidden wins, then larger decay, then lower lr
    a = dummy_result(0.5, hidden=128, lr=0.001, wd=1e-4)
    b = dummy_result(0.5, hidden=64, lr=0.005, wd=1e-5)
    assert select_best([a, b]) is b
    c = dummy_result(0.5, hidden=64, lr=0.005, wd=1e-4)
    assert select_best([a, b, c]) is c
    d = dummy_result(0.5, hidden=64, lr=0.001, wd=1e-4)
    assert select_best([a, b, c, d]) is d


def test_select_best_rejects_empty():
    with pytest.raises(ValueError):
        select_best([])


def test_final_epoch_budget_is_rounded_median():
    assert final_epoch_budget([10, 12, 14, 20, 30]) == 14
    assert final_epoch_budget([7]) == 7
    assert final_epoch_budget([2, 4]) == 3
    with pytest.raises(ValueError):
        final_epoch_budget([])
    with pytest.raises(ValueError):
        final_epoch_budget([3, 0])


# ---------- cross-validation ----------


def test_grid_search_cv_shape_and_concatenated_f1(dataset):
    records, plan = dataset
    results = grid_search_cv([Treatment.FEDERATED], records, plan, tiny_grid(), base_config())
    assert list(results) == [Treatment.FEDERATED] and len(results[Treatment.FEDERATED]) == 1
    result = results[Treatment.FEDERATED][0]
    assert [fit.fold for fit in result.fold_fits] == [1, 2, 3]
    refits = [refit_fold(records, plan, base_config(), Treatment.FEDERATED, 0, fit.fold) for fit in result.fold_fits]
    labels = np.concatenate([labels for *_, labels in refits])
    scores = np.concatenate([scores for _, _, scores, _ in refits])
    preds = (scores >= THRESHOLD).astype(np.int64)
    _, _, want_f1 = prf1(confusion(labels, preds))
    assert result.f1 == want_f1
    for fit, (val_loss, conf, _, _) in zip(result.fold_fits, refits):
        assert 1 <= fit.best_epoch <= fit.epochs_run <= base_config().max_epochs
        assert (fit.val_loss, fit.confusion) == (val_loss, conf)
        assert sum(fit.confusion) == len(plan.fold_ids(fit.fold))


def test_grid_search_cv_thread_schedule_does_not_matter(dataset):
    records, plan = dataset
    grid = GridSpec(hidden_sizes=(4, 8), learning_rates=(0.05,), weight_decays=(1e-4,))
    treatments = [Treatment.FEDERATED, Treatment.LOCAL_B]
    serial = grid_search_cv(treatments, records, plan, grid, base_config())
    pooled = grid_search_cv(treatments, records, plan, grid, base_config(), threads=2)
    assert list(serial) == list(pooled) == treatments
    for t in treatments:
        assert [r.combo for r in serial[t]] == grid.combos()
        assert [[fit.fold for fit in r.fold_fits] for r in serial[t]] == [[1, 2, 3]] * 2
    assert serial[Treatment.FEDERATED] != serial[Treatment.LOCAL_B]
    # FoldFit and CvResult are plain values, so == compares every field
    assert serial == pooled


def test_grid_search_cv_fold_seed_contract(dataset):
    # each (combo, fold) fit must be reproducible from the derived seed
    records, plan = dataset
    cfg = base_config()
    result = grid_search_cv([Treatment.FEDERATED], records, plan, tiny_grid(), cfg)[Treatment.FEDERATED][0]
    val_loss, conf, _, _ = refit_fold(records, plan, cfg, Treatment.FEDERATED, 0, 2)
    assert result.fold_fits[1].fold == 2
    assert result.fold_fits[1].val_loss == val_loss
    assert result.fold_fits[1].confusion == conf


def test_grid_search_cv_rejects_bad_threads(dataset):
    records, plan = dataset
    with pytest.raises(ValueError):
        grid_search_cv([Treatment.FEDERATED], records, plan, tiny_grid(), base_config(), threads=0)


def test_no_signal_cv_f1_matches_label_shuffle_null():
    """With zero class separation, CV F1 should look like chance.

    The null conditions on the model's prediction vector: shuffling the
    labels against the fixed predictions gives the chance distribution
    of F1 for that prediction mix. It depends only on the number of
    records, positives and predicted positives, so vectors rebuilt from
    the summed fold confusions give the same null.
    """
    records = generate_synthetic(
        SynthConfig(
            n_patients=80,
            seed=7,
            admissions_per_patient=(1, 2),
            positive_rate=0.25,
            class_separation=0.0,
            ward_shift=0.0,
        )
    )
    plan = make_split_plan(records, test_fraction=0.2, n_folds=3, seed=0)
    results = grid_search_cv([Treatment.CENTRALISED], records, plan, tiny_grid(), base_config())
    result = results[Treatment.CENTRALISED][0]
    tn, fp, fn, tp = Confusion(*map(sum, zip(*(fit.confusion for fit in result.fold_fits))))
    labels = np.repeat([0, 0, 1, 1], [tn, fp, fn, tp])
    preds = np.repeat([0, 1, 0, 1], [tn, fp, fn, tp])
    assert prf1(confusion(labels, preds))[2] == result.f1

    rng = np.random.default_rng(0)
    null_f1s = []
    for _ in range(200):
        shuffled = rng.permutation(labels)
        _, _, f1 = prf1(confusion(shuffled, preds))
        null_f1s.append(f1)
    mean = float(np.mean(null_f1s))
    sigma = float(np.std(null_f1s))
    assert abs(result.f1 - mean) <= 4.0 * sigma + 0.02


# ---------- final fit ----------


def test_train_final_uses_median_budget_and_is_deterministic(dataset):
    records, plan = dataset
    cv = grid_search_cv([Treatment.CENTRALISED], records, plan, tiny_grid(), base_config())[Treatment.CENTRALISED][0]
    params1, budget1, logs1 = train_final(Treatment.CENTRALISED, cv, records, plan, base_config())
    params2, budget2, logs2 = train_final(Treatment.CENTRALISED, cv, records, plan, base_config())
    assert budget1 == budget2 == final_epoch_budget(cv.best_epochs)
    assert len(logs1) == budget1
    assert params1 == params2
    assert params1.hidden_size == cv.combo.hidden_size


def test_single_silo_federated_matches_flat_loop(dataset):
    # the independent centralized trainer and the shared loop must agree
    # bit for bit when the federation has one silo
    records, plan = dataset
    silos = silos_for_treatment(Treatment.CENTRALISED, records, plan, heldout_fold=1)
    cfg = base_config(max_epochs=6, patience=6)
    fed_params, fed_logs = federated_train(silos, cfg)
    flat_params, flat_logs = train_centralized(
        silos[0].train_features,
        silos[0].train_labels,
        silos[0].val_features,
        silos[0].val_labels,
        cfg,
    )
    assert fed_params == flat_params
    assert [log.val_loss for log in fed_logs] == [log.val_loss for log in flat_logs]
    assert [log.train_losses[CENTRAL_SILO_NAME] for log in fed_logs] == [
        log.train_losses[CENTRAL_SILO_NAME] for log in flat_logs
    ]


# ---------- evaluation ----------


def eval_test_set(name, labels, seed):
    rng = np.random.default_rng(seed)
    n = len(labels)
    return EvalTestSet(
        name=name,
        record_ids=tuple(range(seed * 100, seed * 100 + n)),
        features=rng.standard_normal((n, 300)),
        labels=np.asarray(labels, dtype=np.float64),
    )


def eval_test_sets(labels_a, labels_b, seed_a, seed_b):
    """A, B and the combined set (A then B), as test_sets_from_plan builds them."""
    a = eval_test_set("A", labels_a, seed_a)
    b = eval_test_set("B", labels_b, seed_b)
    combined = EvalTestSet(
        name="combined",
        record_ids=a.record_ids + b.record_ids,
        features=np.concatenate([a.features, b.features]),
        labels=np.concatenate([a.labels, b.labels]),
    )
    return a, b, combined


def test_evaluate_builds_combined_in_a_then_b_order():
    params = init_model(4, 3)
    test_sets = eval_test_sets([0, 0, 1], [1, 0], seed_a=1, seed_b=2)
    evaluations = evaluate(params, test_sets)
    assert list(evaluations) == ["A", "B", "combined"]
    combined = evaluations["combined"]
    assert np.array_equal(combined.labels[:3], evaluations["A"].labels)
    assert np.array_equal(combined.scores[:3], evaluations["A"].scores)
    assert np.array_equal(combined.scores[3:], evaluations["B"].scores)
    for ts in test_sets:
        scored = evaluations[ts.name]
        assert isinstance(scored, ScoredSet)
        assert np.array_equal(scored.labels, ts.labels)
        assert np.array_equal(scored.scores, sigmoid(forward_batch(params, ts.features)))
        conf, _ = metric_bundle(scored)
        assert conf.tn + conf.fp + conf.fn + conf.tp == len(ts.record_ids) == len(scored)
        assert np.array_equal(scored.predictions, (scored.scores >= THRESHOLD).astype(np.int64))


def test_evaluate_single_class_set_has_undefined_auc():
    test_sets = eval_test_sets([0, 0, 0, 0], [1, 0, 1], seed_a=3, seed_b=4)
    evaluations = evaluate(init_model(4, 5), test_sets)
    metrics = {name: metric_bundle(s)[1] for name, s in evaluations.items()}
    assert metrics["A"]["roc_auc"] is None
    assert metrics["A"]["pr_auc"] is None
    assert metrics["B"]["roc_auc"] is not None
    assert metrics["combined"]["roc_auc"] is not None


def test_test_sets_from_plan_cover_test_ids(dataset):
    records, plan = dataset
    test_a, test_b, combined = build_test_sets(records, plan)
    assert set(test_a.record_ids) | set(test_b.record_ids) == set(plan.test_ids)
    assert not set(test_a.record_ids) & set(test_b.record_ids)
    for ts, inst in ((test_a, "A"), (test_b, "B")):
        assert ts.name == inst
        assert list(ts.record_ids) == sorted(ts.record_ids)
        for i in ts.record_ids:
            assert plan.institution_of_ward[records.ward[i]] == inst
        x, y = features_matrix(records, ts.record_ids)
        assert np.array_equal(ts.features, x)
        assert np.array_equal(ts.labels, y)
        assert len(ts) == len(ts.record_ids)
    assert combined.name == "combined"
    assert combined.record_ids == test_a.record_ids + test_b.record_ids
    x, y = features_matrix(records, combined.record_ids)
    assert np.array_equal(combined.features, x)
    assert np.array_equal(combined.labels, y)
    assert np.array_equal(combined.features, np.concatenate([test_a.features, test_b.features]))
    assert np.array_equal(combined.labels, np.concatenate([test_a.labels, test_b.labels]))


# ---------- whole treatments ----------


def combined_f1(run):
    return metric_bundle(run.evaluations["combined"])[1]["f1"]


def test_run_treatment_smoke_and_determinism(dataset):
    records, plan = dataset
    run1 = run_treatments([Treatment.FEDERATED], records, plan, tiny_grid(), base_config(), threads=2)["federated"]
    run2 = run_treatments([Treatment.FEDERATED], records, plan, tiny_grid(), base_config())["federated"]
    assert run1.best_combo == tiny_grid().combos()[0]
    assert run1.params == run2.params
    assert set(run1.evaluations) == {"A", "B", "combined"}
    assert combined_f1(run1) == combined_f1(run2)
    assert len(run1.cv_results) == 1
    assert run1.epoch_budget == final_epoch_budget(run1.cv_results[0].best_epochs)
    assert len(run1.final_logs) == run1.epoch_budget


def test_run_treatments_returns_keyed_runs(dataset):
    records, plan = dataset
    runs = run_treatments(
        [Treatment.LOCAL_A, Treatment.CENTRALISED], records, plan, tiny_grid(), base_config()
    )
    assert set(runs) == {"a", "central"}
    assert runs["a"].treatment is Treatment.LOCAL_A
    assert runs["central"].treatment is Treatment.CENTRALISED
    assert len(runs["central"].record_ids["combined"]) == len(plan.test_ids)
    assert len(runs["central"].evaluations["combined"]) == len(plan.test_ids)


def test_each_cv_round_is_validated_once(dataset, monkeypatch):
    # training validates every round; neither a CV fit nor a final fit
    # validates its model again afterwards
    records, plan = dataset
    original = federated_validate
    calls = []

    def counted(*args):
        calls.append(1)
        return original(*args)

    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "fedvra"]:
        if getattr(module, "federated_validate", None) is original:
            monkeypatch.setattr(module, "federated_validate", counted)
    grid = GridSpec(hidden_sizes=(4, 8), learning_rates=(0.05,), weight_decays=(1e-4,))
    runs = run_treatments(list(Treatment), records, plan, grid, base_config())
    epochs = [fit.epochs_run for run in runs.values() for r in run.cv_results for fit in r.fold_fits]
    assert len(epochs) == 4 * 2 * 3
    assert len(calls) == sum(epochs)


def test_aggregation_reaches_every_fit_through_the_config(dataset):
    # uniform averaging changes only the treatment that averages two silos
    records, plan = dataset
    silos = silos_for_treatment(Treatment.FEDERATED, records, plan, heldout_fold=None)
    assert silos[0].n_train != silos[1].n_train
    sized = run_treatments(list(Treatment), records, plan, tiny_grid(), base_config())
    uniform = run_treatments(list(Treatment), records, plan, tiny_grid(), base_config(uniform_weights=True))
    assert uniform["federated"].params != sized["federated"].params
    assert uniform["federated"].cv_results != sized["federated"].cv_results
    for key in ("a", "b", "central"):
        assert uniform[key].params == sized[key].params
        assert uniform[key].cv_results == sized[key].cv_results
