"""Silo training loop, early stopping, and the privacy boundary.

The boundary is audited twice: statically (no raw-data attribute names
in the orchestration functions) and at runtime (a spy silo records
which attributes the orchestrator touches outside the silo-side
helpers).
"""

import ast
import inspect
import math

import numpy as np
import pytest

import fedvra.federated as fed
from fedvra.errors import NumericalError
from fedvra.federated import (
    Silo,
    federated_train,
    federated_validate,
    local_train_epoch,
    local_validate,
    resolve_pos_weight,
    train_for_epochs,
)
from fedvra.network import (
    INPUT_DIM,
    TrainConfig,
    backward,
    batch_loss,
    forward_batch,
    init_model,
    loss_from_logits,
    sgd_step,
    sigmoid,
)
from fedvra.seeds import derive_seed, make_rng
from fedvra.stats import ScoredSet, metric_bundle


def make_silo(name, n_train, n_val, seed, positive_rate=0.3):
    rng = np.random.default_rng(seed)
    def labels(n):
        y = (rng.uniform(size=n) < positive_rate).astype(np.float64)
        if y.sum() == 0:
            y[0] = 1.0
        return y
    return Silo(
        name=name,
        train_features=rng.standard_normal((n_train, INPUT_DIM)),
        train_labels=labels(n_train),
        val_features=rng.standard_normal((n_val, INPUT_DIM)),
        val_labels=labels(n_val),
    )


def config(**kwargs):
    base = dict(lr0=0.01, hidden_size=4, seed=123, batch_size=8, max_epochs=6, patience=3)
    base.update(kwargs)
    return TrainConfig(**base)


# ---------- Silo ----------


def test_silo_counters():
    silo = make_silo("A", 20, 5, seed=1)
    assert silo.n_train == 20 and silo.n_val == 5
    neg, pos = silo.label_counts()
    assert neg + pos == 20 and pos == int(silo.train_labels.sum())


def test_silo_validation():
    with pytest.raises(ValueError):
        Silo(
            name="",
            train_features=np.zeros((2, INPUT_DIM)),
            train_labels=np.zeros(2),
            val_features=np.zeros((1, INPUT_DIM)),
            val_labels=np.zeros(1),
        )
    with pytest.raises(ValueError):
        Silo(
            name="A",
            train_features=np.zeros((2, INPUT_DIM)),
            train_labels=np.zeros(3),
            val_features=np.zeros((1, INPUT_DIM)),
            val_labels=np.zeros(1),
        )


def test_silo_validates_train_and_val_arrays():
    x = np.zeros((2, INPUT_DIM))
    nan_x = x.copy()
    nan_x[1, 7] = np.nan
    good = dict(train_features=x, train_labels=np.zeros(2), val_features=x, val_labels=np.zeros(2))
    silo = Silo(name="A", **good)
    assert silo.n_train == 2 and silo.n_val == 2
    for part in ("train", "val"):
        for features, labels in (
            (x, np.array([0.0, 2.0])),  # label outside {0, 1}
            (x, np.zeros(3)),  # one label per row
            (nan_x, np.zeros(2)),  # non-finite feature
            (np.zeros((2, INPUT_DIM - 1)), np.zeros(2)),  # INPUT_DIM columns
        ):
            with pytest.raises(ValueError):
                Silo(name="A", **dict(good, **{f"{part}_features": features, f"{part}_labels": labels}))
    # an empty training shard is a valid silo that cannot be trained on
    empty = Silo(name="A", **dict(good, train_features=np.zeros((0, INPUT_DIM)), train_labels=np.zeros(0)))
    with pytest.raises(ValueError):
        local_train_epoch(init_model(2, 1), empty, config(), 1.0, epoch=0)


def test_silo_leaves_the_callers_arrays_writeable():
    x = np.zeros((2, INPUT_DIM))
    y = np.zeros(2)
    silo = Silo("A", x, y, x, y)
    assert x.flags.writeable and y.flags.writeable
    for arr in (silo.train_features, silo.train_labels, silo.val_features, silo.val_labels):
        assert not arr.flags.writeable
        assert not np.shares_memory(arr, x) and not np.shares_memory(arr, y)
    x[0, 0] = 1.0  # the caller's write does not reach the silo
    assert silo.train_features[0, 0] == 0.0
    # an array that is already read-only and owns its memory is adopted
    frozen = np.ones((3, INPUT_DIM))
    frozen.setflags(write=False)
    labels = np.ones(3)
    labels.setflags(write=False)
    adopted = Silo("B", frozen, labels, frozen, labels)
    assert adopted.train_features is frozen and adopted.val_labels is labels


# ---------- early stopping ----------


def scripted_fit(monkeypatch, losses, patience):
    """federated_train whose validation returns the next scripted loss;
    returns the kept checkpoint, the logs and every validated model."""
    script = iter(losses)
    validated = []
    scored = ScoredSet([0, 1], [0.2, 0.8])

    def validate(model, silos, pos_weight):
        validated.append(model)
        return next(script), scored

    monkeypatch.setattr(fed, "federated_validate", validate)
    silos = [make_silo("A", 12, 4, seed=1)]
    best, logs = federated_train(silos, config(max_epochs=len(losses), patience=patience))
    return best, logs, validated


def test_early_stop_keeps_improving(monkeypatch):
    # 0.9 resets the count that 1.1 started, so patience 2 stops only
    # after the two 1.0s that follow it, keeping the 0.9 checkpoint
    best, logs, validated = scripted_fit(monkeypatch, (1.0, 1.1, 0.9, 1.0, 1.0, 0.1), patience=2)
    assert [log.val_loss for log in logs] == [1.0, 1.1, 0.9, 1.0, 1.0]
    assert best is validated[2]
    best, logs, validated = scripted_fit(monkeypatch, (1.0, 0.9, 0.8), patience=1)
    assert len(logs) == 3 and best is validated[-1]


def test_early_stop_plateau_trace(monkeypatch):
    # 1.0 then seven non-improvements: stops on the 8th round, keeping
    # the first checkpoint, and never sees the 0.1 after it
    losses = (1.0, 1.0, 1.1, 1.0, 1.2, 1.3, 1.0, 1.05, 0.1)
    best, logs, validated = scripted_fit(monkeypatch, losses, patience=7)
    assert len(logs) == 8
    assert best is validated[0]


def test_early_stop_tie_is_not_improvement(monkeypatch):
    best, logs, validated = scripted_fit(monkeypatch, (0.5, 0.5, 0.5, 0.1), patience=2)
    assert len(logs) == 3
    assert best is validated[0]


def test_early_stop_rejects_non_finite_loss(monkeypatch):
    for bad in (float("nan"), float("inf")):
        with pytest.raises(NumericalError, match="validation loss is not finite"):
            scripted_fit(monkeypatch, (1.0, bad, 0.5), patience=3)
        with pytest.raises(NumericalError, match="validation loss is not finite"):
            scripted_fit(monkeypatch, (bad,), patience=3)


# ---------- local pass ----------


def test_local_train_epoch_zero_lr_is_identity():
    silo = make_silo("A", 16, 4, seed=2)
    model = init_model(4, 9)
    cfg = config(lr0=0.0)
    assert local_train_epoch(model, silo, cfg, 2.0, epoch=0) == model


def test_local_train_epoch_full_batch_equals_one_step():
    silo = make_silo("A", 10, 4, seed=3)
    model = init_model(4, 9)
    cfg = config(batch_size=10)
    got = local_train_epoch(model, silo, cfg, 2.0, epoch=0)

    order = make_rng(cfg.seed, "shuffle", "A", 0).permutation(10)
    grads = backward(model, silo.train_features[order], silo.train_labels[order], 2.0)
    want = sgd_step(model, grads, cfg.lr0, cfg.weight_decay)
    assert got == want


def test_local_train_epoch_raises_where_the_update_diverges():
    silo = make_silo("A", 16, 4, seed=5)
    cfg = config(lr0=1e100, batch_size=2)
    with pytest.raises(NumericalError):
        local_train_epoch(init_model(4, 9), silo, cfg, 2.0, epoch=0)


def test_diverging_training_names_the_silo_and_the_epoch():
    silos = [make_silo("A", 16, 4, seed=5), make_silo("B", 16, 4, seed=6)]
    with pytest.raises(NumericalError, match=r"^silo 'A', epoch 0: overflow"):
        federated_train(silos, config(lr0=1e100, batch_size=2))
    with pytest.raises(NumericalError, match=r"^silo 'B', epoch 3: "):
        local_train_epoch(init_model(4, 9), silos[1], config(lr0=1e100, batch_size=2), 2.0, epoch=3)


def test_local_train_epoch_deterministic():
    silo = make_silo("A", 20, 4, seed=4)
    model = init_model(3, 5)
    cfg = config()
    assert local_train_epoch(model, silo, cfg, 1.5, epoch=2) == local_train_epoch(model, silo, cfg, 1.5, epoch=2)
    assert local_train_epoch(model, silo, cfg, 1.5, epoch=2) != local_train_epoch(model, silo, cfg, 1.5, epoch=3)


def test_local_validate_returns_logits():
    silo = make_silo("A", 8, 6, seed=6)
    model = init_model(3, 7)
    logits, labels = local_validate(model, silo)
    assert np.array_equal(logits, forward_batch(model, silo.val_features))
    assert np.array_equal(labels, silo.val_labels)


# ---------- cross-silo validation ----------


def test_federated_validate_single_silo_matches_direct():
    silo = make_silo("A", 10, 8, seed=7)
    model = init_model(4, 3)
    loss, scored = federated_validate(model, [silo], pos_weight=3.0)
    logits, want_labels = local_validate(model, silo)
    assert loss == loss_from_logits(logits, want_labels, 3.0)
    assert isinstance(scored, ScoredSet)
    assert np.array_equal(scored.labels, want_labels)
    assert np.array_equal(scored.scores, sigmoid(logits))


def test_federated_validate_loss_is_size_weighted():
    a = make_silo("A", 10, 6, seed=8)
    b = make_silo("B", 10, 10, seed=9)
    model = init_model(4, 4)
    loss, _ = federated_validate(model, [a, b], pos_weight=2.0)
    la = loss_from_logits(*local_validate(model, a), 2.0)
    lb = loss_from_logits(*local_validate(model, b), 2.0)
    want = (a.n_val * la + b.n_val * lb) / (a.n_val + b.n_val)
    assert math.isclose(loss, want, rel_tol=1e-12)


def test_federated_validate_order_invariance():
    a = make_silo("A", 10, 6, seed=10)
    b = make_silo("B", 10, 9, seed=11)
    model = init_model(4, 5)
    loss_ab, scored_ab = federated_validate(model, [a, b], pos_weight=2.5)
    loss_ba, scored_ba = federated_validate(model, [b, a], pos_weight=2.5)
    assert math.isclose(loss_ab, loss_ba, rel_tol=1e-12)
    assert metric_bundle(scored_ab) == metric_bundle(scored_ba)  # grouping metrics ignore sample order


def test_resolve_pos_weight():
    a = make_silo("A", 20, 4, seed=12)
    b = make_silo("B", 30, 4, seed=13)
    neg = (a.label_counts()[0] + b.label_counts()[0])
    pos = (a.label_counts()[1] + b.label_counts()[1])
    assert resolve_pos_weight([a, b]) == neg / pos
    all_neg = Silo(
        name="C",
        train_features=np.zeros((3, INPUT_DIM)),
        train_labels=np.zeros(3),
        val_features=np.zeros((1, INPUT_DIM)),
        val_labels=np.zeros(1),
    )
    with pytest.raises(ValueError):
        resolve_pos_weight([all_neg])


# ---------- the shared loop ----------


def test_federated_train_runs_and_checkpoints():
    silos = [make_silo("A", 24, 8, seed=14), make_silo("B", 16, 8, seed=15)]
    params, logs = federated_train(silos, config())
    assert 1 <= len(logs) <= 6
    best = min(logs, key=lambda log: log.val_loss)
    val_loss, scored = federated_validate(params, silos, resolve_pos_weight(silos))
    assert math.isclose(val_loss, best.val_loss, rel_tol=1e-12)
    # a round logs its validation set's measures, then its confusion counts
    conf, measures = metric_bundle(scored)
    assert best.metrics == {**measures, **conf._asdict()}
    assert list(best.metrics) == ["f1", "precision", "recall", "roc_auc", "pr_auc", "tn", "fp", "fn", "tp"]
    for log in logs:
        assert set(log.train_losses) == {"A", "B"}
        assert log.metrics is not None and "f1" in log.metrics


def test_federated_train_zero_lr_stops_at_patience_plus_one():
    # constant validation loss: epoch 1 improves on infinity, then the
    # counter climbs to the patience
    silos = [make_silo("A", 12, 6, seed=16)]
    cfg = config(lr0=0.0, max_epochs=50, patience=4)
    params, logs = federated_train(silos, cfg)
    assert len(logs) == 5  # patience + 1
    assert params == init_model(cfg.hidden_size, derive_seed(cfg.seed, "init"))


def test_federated_train_identical_silos_shuffled_alike():
    # two records, one per class, so the derived pos_weight is finite
    rng = np.random.default_rng(17)
    x = rng.standard_normal((2, INPUT_DIM))
    y = np.array([0.0, 1.0])
    vx = rng.standard_normal((2, INPUT_DIM))
    vy = np.array([0.0, 1.0])
    a = Silo(name="A", train_features=x, train_labels=y, val_features=vx, val_labels=vy)
    b = Silo(name="B", train_features=x, train_labels=y, val_features=vx, val_labels=vy)
    cfg = config(max_epochs=1, batch_size=1)
    # at this seed both silos' epoch-0 shuffles put the records in the same order
    shuffles = [make_rng(cfg.seed, "shuffle", name, 0).permutation(2) for name in ("A", "B")]
    assert np.array_equal(*shuffles)
    averaged, _ = federated_train([a, b], cfg)
    local = local_train_epoch(init_model(cfg.hidden_size, derive_seed(cfg.seed, "init")), a, cfg, 1.0, 0)
    # identical shards in the same order give equal updates, so their
    # average is exactly either one
    assert averaged == local


def test_federated_train_aggregation_mode_matters():
    silos = [make_silo("A", 40, 8, seed=18), make_silo("B", 10, 8, seed=19)]
    sized, _ = federated_train(silos, config(max_epochs=3, patience=3))
    uniform, _ = federated_train(silos, config(max_epochs=3, patience=3, uniform_weights=True))
    assert sized != uniform


def test_federated_train_input_validation():
    with pytest.raises(ValueError):
        federated_train([], config())
    a = make_silo("A", 8, 4, seed=20)
    with pytest.raises(ValueError):
        federated_train([a, make_silo("A", 8, 4, seed=21)], config())
    empty_val = Silo(
        name="B",
        train_features=a.train_features,
        train_labels=a.train_labels,
        val_features=np.zeros((0, INPUT_DIM)),
        val_labels=np.zeros(0),
    )
    with pytest.raises(ValueError):
        federated_train([empty_val], config())


def test_train_for_epochs_fixed_budget():
    silos = [make_silo("A", 16, 4, seed=22), make_silo("B", 12, 4, seed=23)]
    params, logs = train_for_epochs(silos, config(), n_epochs=4)
    assert len(logs) == 4
    assert all(log.val_loss is None and log.metrics is None for log in logs)
    again, _ = train_for_epochs(silos, config(), n_epochs=4)
    assert params == again


def test_train_for_epochs_allows_empty_validation():
    base = make_silo("A", 16, 4, seed=24)
    no_val = Silo(
        name="A",
        train_features=base.train_features,
        train_labels=base.train_labels,
        val_features=np.zeros((0, INPUT_DIM)),
        val_labels=np.zeros(0),
    )
    params, logs = train_for_epochs([no_val], config(), n_epochs=2)
    assert len(logs) == 2


def test_train_for_epochs_rejects_duplicate_silo_names():
    a = make_silo("A", 8, 4, seed=27)
    with pytest.raises(ValueError, match="unique"):
        train_for_epochs([a, make_silo("A", 8, 4, seed=28)], config(), n_epochs=1)


def test_train_for_epochs_matches_the_first_rounds_of_federated_train():
    silos = [make_silo("A", 20, 6, seed=29), make_silo("B", 14, 6, seed=30)]
    cfg = config(max_epochs=6, patience=4)  # cannot stop before round 5
    _, fixed = train_for_epochs(silos, cfg, n_epochs=3)
    _, stopped = federated_train(silos, cfg)
    assert len(fixed) == 3 and len(stopped) >= 3
    for f, s in zip(fixed, stopped[:3]):
        assert (f.epoch, f.lr, f.train_losses) == (s.epoch, s.lr, s.train_losses)


def test_fits_without_train_losses_keep_their_validation(monkeypatch):
    silos = [make_silo("A", 20, 6, seed=31), make_silo("B", 14, 6, seed=32)]
    cfg = config(max_epochs=5, patience=2)
    model, logs = federated_train(silos, cfg)
    assert all(set(log.train_losses) == {"A", "B"} for log in logs)

    def no_pass(*args):
        raise AssertionError("a training-loss pass ran")

    monkeypatch.setattr(fed, "_silo_train_loss", no_pass)
    quiet_model, quiet = federated_train(silos, cfg, train_losses=False)
    assert quiet_model == model
    assert [log.train_losses for log in quiet] == [{}] * len(logs)
    assert [(q.epoch, q.lr, q.val_loss, q.metrics) for q in quiet] == [
        (log.epoch, log.lr, log.val_loss, log.metrics) for log in logs
    ]
    with pytest.raises(AssertionError, match="training-loss pass"):
        train_for_epochs(silos, cfg, n_epochs=1)

    monkeypatch.undo()
    _, fixed = train_for_epochs(silos, cfg, n_epochs=3)
    for log in fixed:
        assert set(log.train_losses) == {"A", "B"}
        assert all(math.isfinite(v) and v > 0 for v in log.train_losses.values())


@pytest.mark.parametrize("n_train, batch_size", [(16, 8), (17, 8), (5, 32), (3, 1)])
def test_local_train_epoch_steps_once_per_minibatch(monkeypatch, n_train, batch_size):
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(fed, "backward", counted("backward", fed.backward))
    monkeypatch.setattr(fed, "sgd_step", counted("sgd_step", fed.sgd_step))
    silo = make_silo("A", n_train, 2, seed=33)
    local_train_epoch(init_model(3, 1), silo, config(batch_size=batch_size), 2.0, epoch=0)
    assert calls == ["backward", "sgd_step"] * math.ceil(n_train / batch_size)


# ---------- privacy boundary ----------

ORCHESTRATORS = ("_rounds", "federated_train", "train_for_epochs", "federated_validate",
                 "resolve_pos_weight")
RAW_ATTRS = {"train_features", "train_labels", "val_features", "val_labels"}


def test_orchestrators_never_name_raw_data_attributes():
    tree = ast.parse(inspect.getsource(fed))
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in ORCHESTRATORS:
            touched = {
                sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)
            }
            assert not touched & RAW_ATTRS, f"{node.name} touches {touched & RAW_ATTRS}"


def test_orchestrator_runtime_attribute_audit(monkeypatch):
    """Outside the silo-side helpers, only counters and names may be read."""
    inside_silo_side = {"flag": False}
    accessed = set()

    def silo_side(fn):
        def wrapper(self):
            prev = inside_silo_side["flag"]
            inside_silo_side["flag"] = True
            try:
                return fn(self)
            finally:
                inside_silo_side["flag"] = prev
        return wrapper

    class SpySilo(Silo):
        def __getattribute__(self, name):
            if not name.startswith("_") and not inside_silo_side["flag"]:
                accessed.add(name)
            return super().__getattribute__(name)

        # counter internals are silo-side; only the counter itself is public
        n_train = property(silo_side(Silo.n_train.fget))
        n_val = property(silo_side(Silo.n_val.fget))
        label_counts = silo_side(Silo.label_counts)

    def guard(fn):
        def wrapper(*args, **kwargs):
            inside_silo_side["flag"] = True
            try:
                return fn(*args, **kwargs)
            finally:
                inside_silo_side["flag"] = False
        return wrapper

    monkeypatch.setattr(fed, "local_train_epoch", guard(fed.local_train_epoch))
    monkeypatch.setattr(fed, "local_validate", guard(fed.local_validate))
    monkeypatch.setattr(fed, "_silo_train_loss", guard(fed._silo_train_loss))

    base_a = make_silo("A", 12, 6, seed=25)
    base_b = make_silo("B", 10, 6, seed=26)
    silos = [
        SpySilo(
            name=s.name,
            train_features=s.train_features,
            train_labels=s.train_labels,
            val_features=s.val_features,
            val_labels=s.val_labels,
        )
        for s in (base_a, base_b)
    ]
    accessed.clear()
    federated_train(silos, config(max_epochs=3, patience=3))
    train_for_epochs(silos, config(), n_epochs=2)
    assert accessed <= {"name", "n_train", "n_val", "label_counts"}, accessed

