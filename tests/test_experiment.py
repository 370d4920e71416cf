"""Grid search, model selection, final fits, and evaluation."""

import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import fedvra.experiment
from fedvra.data import SynthConfig, features_matrix, generate_synthetic, make_split_plan, split_index
from fedvra.errors import SplitInvariantError
from fedvra.experiment import (
    CENTRAL_SILO_NAME,
    CvResult,
    FoldFit,
    GridSpec,
    HyperCombo,
    TREATMENTS,
    check_cv_folds,
    evaluate,
    final_epoch_budget,
    grid_search_cv,
    run_treatments,
    select_best,
    silos_for_treatment,
    train_final,
)
from fedvra.experiment import _fit_fold
from fedvra.experiment import test_rows as build_test_rows  # a test_* name would be collected as a test
from fedvra.federated import federated_train, federated_validate, resolve_pos_weight, train_for_epochs
from fedvra.network import TrainConfig, forward_batch, init_model, sigmoid
from fedvra.seeds import derive_seed
from fedvra.stats import THRESHOLD, Confusion, ScoredSet, confusion, metric_bundle, prf1

from central_oracle import train_centralized
from record_rows import record, table


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


# every fit of the first trains to its cap; the second stops early, on
# best epochs that differ within a combo, and weights silos uniformly
SCHEDULE_CONFIGS = (base_config(), base_config(max_epochs=12, patience=2, uniform_weights=True))


def check_early_stops(cfg, cv_results):
    """Some CV fit stops before cfg's epoch cap exactly when its patience is below the cap."""
    stopped = any(fit.epochs_run < cfg.max_epochs for r in cv_results for fit in r.fold_fits)
    assert stopped == (cfg.patience < cfg.max_epochs)


def tiny_grid():
    return GridSpec(hidden_sizes=(4,), learning_rates=(0.05,), weight_decays=(1e-4,))


def dummy_result(f1, hidden=64, lr=0.001, wd=1e-4):
    return CvResult(combo=HyperCombo(hidden, lr, wd), fold_fits=(), f1=f1)


def refit_fold(records, plan, cfg, treatment, combo_index, fold):
    """Refit one CV fit of tiny_grid() from its derived seed and validate
    its checkpoint: (val_loss, confusion, scores, labels)."""
    silos = silos_for_treatment(treatment, records, split_index(records, plan), heldout_fold=fold)
    combo = tiny_grid().combos()[combo_index]
    refit_cfg = TrainConfig(
        lr0=combo.learning_rate,
        hidden_size=combo.hidden_size,
        seed=derive_seed(cfg.seed, treatment, combo_index, fold),
        batch_size=cfg.batch_size,
        weight_decay=combo.weight_decay,
        max_epochs=cfg.max_epochs,
        patience=cfg.patience,
    )
    params, _, _ = federated_train(silos, refit_cfg)
    val_loss, scored = federated_validate(params, silos, resolve_pos_weight(silos))
    return val_loss, confusion(scored), scored.scores, scored.labels


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


@pytest.mark.parametrize(
    "axis, values, message",
    [
        ("hidden_sizes", (4, 8, 4), "hidden_sizes lists 4 more than once"),
        ("learning_rates", (0.005, 5e-3), "learning_rates lists 0.005 more than once"),
        ("weight_decays", (0.0, 1e-4, -0.0), "weight_decays lists -0.0 more than once"),
    ],
)
def test_grid_rejects_a_repeated_value(axis, values, message):
    # a repeated value would cross-validate the same combos twice
    with pytest.raises(ValueError, match=f"^{message}$"):
        GridSpec(**{axis: values})


def test_treatment_keys_round_trip(dataset):
    # each key names its row of the table, in report order; a key not in it is refused
    records, plan = dataset
    index = split_index(records, plan)
    assert list(TREATMENTS) == ["a", "b", "federated", "central"]
    assert TREATMENTS["central"] == ((CENTRAL_SILO_NAME, ("A", "B")),)
    for key, silos in TREATMENTS.items():
        assert [s.name for s in silos_for_treatment(key, records, index, 1)] == [name for name, _ in silos]
    with pytest.raises(ValueError):
        silos_for_treatment("nope", records, index, 1)


@pytest.fixture
def no_fit(monkeypatch):
    """Make any CV or final fit fail the test."""

    def fit(*args):
        raise AssertionError("a fit ran")

    monkeypatch.setattr(fedvra.experiment, "federated_train", fit)
    monkeypatch.setattr(fedvra.experiment, "train_for_epochs", fit)


def test_unknown_treatment_is_refused_before_any_fit(dataset, no_fit):
    records, plan = dataset
    want = "unknown treatment 'remote'; pick one of a, b, federated, central"
    with pytest.raises(ValueError) as exc:
        silos_for_treatment("remote", records, split_index(records, plan), heldout_fold=1)
    assert str(exc.value) == want
    for treatments in (["remote"], ["a", "remote"]):
        with pytest.raises(ValueError) as exc:
            run_treatments(treatments, records, plan, tiny_grid(), base_config())
        assert str(exc.value) == want


def test_repeated_treatment_is_refused_before_any_fit(dataset, no_fit):
    records, plan = dataset
    for treatments in (["a", "a"], ["a", "central", "a"]):
        with pytest.raises(ValueError, match=r"^treatment 'a' is listed more than once$"):
            run_treatments(treatments, records, plan, tiny_grid(), base_config())


@pytest.mark.parametrize(
    "axis, value, message",
    [
        ("hidden_sizes", 0, "hidden_size must be an integer of at least 1"),
        ("learning_rates", -0.05, "lr0 must be finite and non-negative"),
        ("learning_rates", math.nan, "lr0 must be finite and non-negative"),
        ("weight_decays", -1e-4, "weight_decay must be finite and non-negative"),
        ("weight_decays", math.nan, "weight_decay must be finite and non-negative"),
    ],
)
def test_bad_grid_value_is_refused_before_any_fit(dataset, no_fit, axis, value, message):
    # the bad value is the axis' second, so a valid combo comes first
    records, plan = dataset
    grid = GridSpec(**{axis: (getattr(tiny_grid(), axis)[0], value)})
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_treatments(["a", "b"], records, plan, grid, base_config())


@pytest.mark.parametrize("broken", ["id-past-the-end", "unmapped-ward"])
def test_broken_plan_is_refused_before_any_fit(dataset, no_fit, broken):
    records, plan = dataset
    if broken == "id-past-the-end":
        bad = replace(plan, test_ids=(*plan.test_ids, 10**6))
        message = "partition: fold, test, and dropped sets do not cover the dataset exactly"
    else:
        bad = replace(plan, institution_of_ward={w: i for w, i in plan.institution_of_ward.items() if w != "A1"})
        message = f"institution-map: ward 'A1' of record {records.ward.index('A1')} is unmapped"
    with pytest.raises(SplitInvariantError) as exc:
        run_treatments(list(TREATMENTS), records, bad, tiny_grid(), base_config())
    assert str(exc.value) == message


# ---------- silo construction ----------


def fold_ids(plan, fold):
    """The record ids of one fold, ascending."""
    return sorted(i for i, f in plan.fold_of_record.items() if f == fold)


def institution_ids(records, plan, ids):
    """ids by institution, in their order, one record at a time."""
    out = {"A": [], "B": []}
    for i in ids:
        out[plan.institution_of_ward[records.ward[i]]].append(i)
    return out


def oracle_silo_ids(treatment, records, plan, heldout_fold):
    """(name, train ids, validation ids) of each of a treatment's silos,
    by per-record loops over the plan's fold and institution maps."""
    train = sorted(i for i, f in plan.fold_of_record.items() if heldout_fold is None or f != heldout_fold)
    val = [] if heldout_fold is None else fold_ids(plan, heldout_fold)
    if treatment == "central":
        return [(CENTRAL_SILO_NAME, train, val)]
    train_by, val_by = institution_ids(records, plan, train), institution_ids(records, plan, val)
    names = {"a": ["A"], "b": ["B"], "federated": ["A", "B"]}[treatment]
    return [(name, train_by[name], val_by[name]) for name in names]


def assert_rows(features, labels, records, ids):
    x, y = features_matrix(records, ids)
    assert features.shape == x.shape and features.tobytes() == x.tobytes()
    assert labels.shape == y.shape and labels.tobytes() == y.tobytes()


@pytest.mark.parametrize("treatment", list(TREATMENTS))
def test_silo_rows_match_the_per_record_loop(dataset, treatment):
    records, plan = dataset
    index = split_index(records, plan)
    for heldout_fold in [*range(1, plan.n_folds + 1), None]:
        silos = silos_for_treatment(treatment, records, index, heldout_fold)
        want = oracle_silo_ids(treatment, records, plan, heldout_fold)
        assert [s.name for s in silos] == [name for name, _, _ in want]
        for silo, (_, train, val) in zip(silos, want):
            assert_rows(silo.train_features, silo.train_labels, records, train)
            assert_rows(silo.val_features, silo.val_labels, records, val)


def test_test_set_rows_match_the_per_record_loop(dataset):
    records, plan = dataset
    by_inst = institution_ids(records, plan, plan.test_ids)
    want = {"A": by_inst["A"], "B": by_inst["B"], "combined": by_inst["A"] + by_inst["B"]}
    rows = build_test_rows(split_index(records, plan))
    assert list(rows) == list(want)
    for name, ids in rows.items():
        assert ids.tolist() == want[name]
        assert ids.dtype.kind == "i"
        assert_rows(*features_matrix(records, ids), records, want[name])


def test_silos_central_is_single_pool(dataset):
    records, plan = dataset
    silos = silos_for_treatment("central", records, split_index(records, plan), heldout_fold=1)
    assert [s.name for s in silos] == [CENTRAL_SILO_NAME]
    folded = sorted(plan.fold_of_record)
    assert silos[0].n_train == len(folded) - len(fold_ids(plan, 1))
    assert silos[0].n_val == len(fold_ids(plan, 1))


def test_silos_federated_partition_by_institution(dataset):
    records, plan = dataset
    silos = silos_for_treatment("federated", records, split_index(records, plan), heldout_fold=2)
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
            i for i in fold_ids(plan, 2)
            if plan.institution_of_ward[records.ward[i]] == silo.name
        ]
        assert silo.n_val == len(want_val)
    assert silos[0].n_train + silos[1].n_train == len(train_ids)


def test_silos_local_single_institution(dataset):
    records, plan = dataset
    index = split_index(records, plan)
    fed = silos_for_treatment("federated", records, index, heldout_fold=1)
    local_a = silos_for_treatment("a", records, index, heldout_fold=1)
    local_b = silos_for_treatment("b", records, index, heldout_fold=1)
    assert [s.name for s in local_a] == ["A"]
    assert [s.name for s in local_b] == ["B"]
    assert np.array_equal(local_a[0].train_features, fed[0].train_features)
    assert np.array_equal(local_b[0].train_features, fed[1].train_features)


def test_silos_no_heldout_fold_means_empty_validation(dataset):
    records, plan = dataset
    silos = silos_for_treatment("central", records, split_index(records, plan), heldout_fold=None)
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
    results = grid_search_cv(["federated"], records, split_index(records, plan), tiny_grid(), base_config())
    assert list(results) == ["federated"] and len(results["federated"]) == 1
    result = results["federated"][0]
    assert [fit.fold for fit in result.fold_fits] == [1, 2, 3]
    refits = [refit_fold(records, plan, base_config(), "federated", 0, fit.fold) for fit in result.fold_fits]
    labels = np.concatenate([labels for *_, labels in refits])
    scores = np.concatenate([scores for _, _, scores, _ in refits])
    _, _, want_f1 = prf1(confusion(ScoredSet(labels, scores)))
    assert result.f1 == want_f1
    for fit, (val_loss, conf, _, _) in zip(result.fold_fits, refits):
        assert 1 <= fit.best_epoch <= fit.epochs_run <= base_config().max_epochs
        assert (fit.val_loss, fit.confusion) == (val_loss, conf)
        assert sum(fit.confusion) == len(fold_ids(plan, fit.fold))


def test_grid_search_cv_thread_schedule_does_not_matter(dataset):
    records, plan = dataset
    grid = GridSpec(hidden_sizes=(4, 8), learning_rates=(0.05,), weight_decays=(1e-4,))
    treatments = ["federated", "b"]
    index = split_index(records, plan)
    for cfg in SCHEDULE_CONFIGS:
        serial = grid_search_cv(treatments, records, index, grid, cfg)
        pooled = grid_search_cv(treatments, records, index, grid, cfg, threads=2)
        check_early_stops(cfg, [r for t in treatments for r in serial[t]])
        assert list(serial) == list(pooled) == treatments
        for t in treatments:
            assert [r.combo for r in serial[t]] == grid.combos()
            assert [[fit.fold for fit in r.fold_fits] for r in serial[t]] == [[1, 2, 3]] * 2
        assert serial["federated"] != serial["b"]
        # FoldFit and CvResult are plain values, so == compares every field
        assert serial == pooled


def test_grid_search_cv_fold_seed_contract(dataset):
    # each (combo, fold) fit must be reproducible from the derived seed
    records, plan = dataset
    cfg = base_config()
    index = split_index(records, plan)
    result = grid_search_cv(["federated"], records, index, tiny_grid(), cfg)["federated"][0]
    val_loss, conf, _, _ = refit_fold(records, plan, cfg, "federated", 0, 2)
    assert result.fold_fits[1].fold == 2
    assert result.fold_fits[1].val_loss == val_loss
    assert result.fold_fits[1].confusion == conf


def test_cv_fit_is_measured_from_the_round_it_kept(dataset):
    # at patience 2 of 30 rounds this fit stops early, so the round it keeps is not its last
    records, plan = dataset
    cfg = base_config(max_epochs=30, patience=2)
    combos = tiny_grid().combos()
    silos = silos_for_treatment("federated", records, split_index(records, plan), heldout_fold=2)
    seed = derive_seed(cfg.seed, "federated", 0, 2)
    params, logs, kept = federated_train(silos, combos[0].config(cfg, seed))
    best = min(logs, key=lambda log: log.val_loss)
    assert best.epoch + 1 < len(logs) < cfg.max_epochs
    val_loss, scored = federated_validate(params, silos, resolve_pos_weight(silos))
    for name in ("labels", "scores", "predictions"):
        got, want = getattr(kept, name), getattr(scored, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    fit = _fit_fold(records, split_index(records, plan), combos, cfg, ("federated", 0, 2))
    assert fit == FoldFit(
        fold=2,
        best_epoch=best.epoch + 1,
        epochs_run=len(logs),
        val_loss=val_loss,
        confusion=confusion(scored),
    )


def test_grid_search_cv_rejects_bad_threads(dataset):
    records, plan = dataset
    index = split_index(records, plan)
    with pytest.raises(ValueError):
        grid_search_cv(["federated"], records, index, tiny_grid(), base_config(), threads=0)


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
    results = grid_search_cv(["central"], records, split_index(records, plan), tiny_grid(), base_config())
    result = results["central"][0]
    tn, fp, fn, tp = Confusion(*map(sum, zip(*(fit.confusion for fit in result.fold_fits))))
    labels = np.repeat([0, 0, 1, 1], [tn, fp, fn, tp])
    preds = np.repeat([0, 1, 0, 1], [tn, fp, fn, tp])  # as scores of 0 and 1, they are their own predictions
    assert prf1(confusion(ScoredSet(labels, preds)))[2] == result.f1

    rng = np.random.default_rng(0)
    null_f1s = []
    for _ in range(200):
        shuffled = rng.permutation(labels)
        _, _, f1 = prf1(confusion(ScoredSet(shuffled, preds)))
        null_f1s.append(f1)
    mean = float(np.mean(null_f1s))
    sigma = float(np.std(null_f1s))
    assert abs(result.f1 - mean) <= 4.0 * sigma + 0.02


# ---------- final fit ----------


def test_train_final_uses_median_budget_and_is_deterministic(dataset):
    records, plan = dataset
    index = split_index(records, plan)
    cv = grid_search_cv(["central"], records, index, tiny_grid(), base_config())["central"][0]
    params1, budget1, logs1 = train_final("central", cv, records, index, base_config())
    params2, budget2, logs2 = train_final("central", cv, records, index, base_config())
    assert budget1 == budget2 == final_epoch_budget(cv.best_epochs)
    assert len(logs1) == budget1
    assert params1 == params2
    assert params1.hidden_size == cv.combo.hidden_size


def test_single_silo_federated_matches_flat_loop(dataset):
    # the independent centralized trainer and the shared loop must agree
    # bit for bit when the federation has one silo
    records, plan = dataset
    silos = silos_for_treatment("central", records, split_index(records, plan), heldout_fold=1)
    cfg = base_config(max_epochs=6, patience=6)
    fed_params, fed_logs, _ = federated_train(silos, cfg)
    flat_params, flat_logs = train_centralized(
        silos[0].train_features,
        silos[0].train_labels,
        silos[0].val_features,
        silos[0].val_labels,
        cfg,
    )
    assert fed_params == flat_params
    assert [log.val_loss for log in fed_logs] == [log.val_loss for log in flat_logs]
    # federated_train logs validation only; the same rounds at a fixed budget log the training losses
    _, fixed_logs = train_for_epochs(silos, cfg, len(fed_logs))
    assert [log.train_losses[CENTRAL_SILO_NAME] for log in fixed_logs] == [
        log.train_losses[CENTRAL_SILO_NAME] for log in flat_logs
    ]


# ---------- evaluation ----------


def eval_rows(labels_a, labels_b, seed_a, seed_b):
    """A table holding B's records before A's, each set's features drawn
    from its seed, and its A, B and combined (A's, then B's) rows, as
    test_rows gives them."""
    rows = []
    for name, labels, seed in (("B", labels_b, seed_b), ("A", labels_a, seed_a)):
        features = np.random.default_rng(seed).standard_normal((len(labels), 300))
        rows += [record(f"{name}{i}", f"W{name}", i, label, x) for i, (label, x) in enumerate(zip(labels, features))]
    n_b = len(labels_b)
    ids = {"A": np.arange(n_b, n_b + len(labels_a)), "B": np.arange(n_b)}
    return table(rows), {**ids, "combined": np.concatenate([ids["A"], ids["B"]])}


def test_evaluate_builds_combined_in_a_then_b_order():
    params = init_model(4, 3)
    records, rows = eval_rows([0, 0, 1], [1, 0], seed_a=1, seed_b=2)
    evaluations = evaluate(params, records, rows)
    assert list(evaluations) == ["A", "B", "combined"]
    combined = evaluations["combined"]
    assert np.array_equal(combined.labels[:3], evaluations["A"].labels)
    assert np.array_equal(combined.scores[:3], evaluations["A"].scores)
    assert np.array_equal(combined.scores[3:], evaluations["B"].scores)
    for name, ids in rows.items():
        scored = evaluations[name]
        features, labels = features_matrix(records, ids)
        assert isinstance(scored, ScoredSet)
        assert np.array_equal(scored.labels, labels)
        assert np.array_equal(scored.scores, sigmoid(forward_batch(params, features)))
        conf, _ = metric_bundle(scored)
        assert conf.tn + conf.fp + conf.fn + conf.tp == len(ids) == len(scored)
        assert np.array_equal(scored.predictions, (scored.scores >= THRESHOLD).astype(np.int64))


def test_evaluate_single_class_set_has_undefined_auc():
    records, rows = eval_rows([0, 0, 0, 0], [1, 0, 1], seed_a=3, seed_b=4)
    evaluations = evaluate(init_model(4, 5), records, rows)
    metrics = {name: metric_bundle(s)[1] for name, s in evaluations.items()}
    assert metrics["A"]["roc_auc"] is None
    assert metrics["A"]["pr_auc"] is None
    assert metrics["B"]["roc_auc"] is not None
    assert metrics["combined"]["roc_auc"] is not None


def test_test_rows_cover_test_ids(dataset):
    records, plan = dataset
    rows = build_test_rows(split_index(records, plan))
    assert list(rows) == ["A", "B", "combined"]
    test_a, test_b, combined = (rows[name].tolist() for name in rows)
    assert set(test_a) | set(test_b) == set(plan.test_ids)
    assert not set(test_a) & set(test_b)
    for ids, inst in ((test_a, "A"), (test_b, "B")):
        assert ids and ids == sorted(ids)
        for i in ids:
            assert plan.institution_of_ward[records.ward[i]] == inst
    assert combined == test_a + test_b
    # evaluate gathers each set's features and labels from its rows
    params = init_model(4, 3)
    evaluations = evaluate(params, records, rows)
    for name, ids in rows.items():
        x, y = features_matrix(records, ids)
        assert np.array_equal(evaluations[name].labels, y)
        assert np.array_equal(evaluations[name].scores, sigmoid(forward_batch(params, x)))
        assert len(evaluations[name]) == len(ids)
    x, _ = features_matrix(records, combined)
    assert np.array_equal(x, np.concatenate([features_matrix(records, ids)[0] for ids in (test_a, test_b)]))
    labels = [evaluations[name].labels for name in ("A", "B")]
    assert np.array_equal(evaluations["combined"].labels, np.concatenate(labels))


def test_run_treatments_reads_the_plan_once(dataset, monkeypatch):
    # the index is built once per run: the check, every fit and the test sets take it
    records, plan = dataset
    calls = []

    def counted(*args):
        calls.append(args)
        return split_index(*args)

    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "fedvra"]:
        if getattr(module, "split_index", None) is split_index:
            monkeypatch.setattr(module, "split_index", counted)
    run_treatments(list(TREATMENTS), records, plan, tiny_grid(), base_config())
    assert len(calls) == 1


# ---------- whole treatments ----------


def combined_f1(run):
    return metric_bundle(run.evaluations["combined"])[1]["f1"]


def test_run_treatment_smoke_and_determinism(dataset):
    records, plan = dataset
    for cfg in SCHEDULE_CONFIGS:
        run1 = run_treatments(["federated"], records, plan, tiny_grid(), cfg, threads=2)["federated"]
        run2 = run_treatments(["federated"], records, plan, tiny_grid(), cfg)["federated"]
        check_early_stops(cfg, run1.cv_results)
        assert run1.cv_results == run2.cv_results
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
        ["a", "central"], records, plan, tiny_grid(), base_config()
    )
    assert set(runs) == {"a", "central"}
    assert runs["a"].treatment == "a"
    assert runs["central"].treatment == "central"
    assert len(runs["central"].record_ids["combined"]) == len(plan.test_ids)
    assert all(type(i) is int for ids in runs["central"].record_ids.values() for i in ids)
    assert len(runs["central"].evaluations["combined"]) == len(plan.test_ids)


def test_each_cv_round_is_validated_once(dataset, monkeypatch):
    # training validates every round, a CV fit measures the checkpoint it
    # kept from the set its round scored, and a final fit validates nothing
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
    runs = run_treatments(list(TREATMENTS), records, plan, grid, base_config())
    epochs = [fit.epochs_run for run in runs.values() for r in run.cv_results for fit in r.fold_fits]
    assert len(epochs) == 4 * 2 * 3
    assert len(calls) == sum(epochs)


def test_aggregation_reaches_every_fit_through_the_config(dataset):
    # uniform averaging changes only the treatment that averages two silos
    records, plan = dataset
    silos = silos_for_treatment("federated", records, split_index(records, plan), heldout_fold=None)
    assert silos[0].n_train != silos[1].n_train
    sized = run_treatments(list(TREATMENTS), records, plan, tiny_grid(), base_config())
    uniform = run_treatments(list(TREATMENTS), records, plan, tiny_grid(), base_config(uniform_weights=True))
    assert uniform["federated"].params != sized["federated"].params
    assert uniform["federated"].cv_results != sized["federated"].cv_results
    for key in ("a", "b", "central"):
        assert uniform[key].params == sized[key].params
        assert uniform[key].cv_results == sized[key].cv_results


def test_check_cv_folds_memory_is_linear_in_records_and_folds():
    """12,000 records in 3,000 folds: each fold's records are counted with
    one bincount, not in a (folds x records) matrix of 36 MB."""
    records = generate_synthetic(SynthConfig(n_patients=6000, seed=1, admissions_per_patient=(2, 2)))
    r = np.arange(len(records))
    institution = np.where(r % 2, "B", "A")
    fold = np.where(r % 2, r // 2 % 3000 + 1, r // 2 % 2999 + 2)  # A's records fill folds 2..3000 only
    fold[:2] = 0  # a test record of each institution
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^fold 1 holds no records of institution A, which treatment 'a' trains on$"):
            check_cv_folds(list(TREATMENTS), records, (institution, fold))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 << 20
