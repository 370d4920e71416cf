"""Four-treatment protocol: local per institution, federated, centralised.

Each treatment runs the same pipeline: grid search over hyperparameter
combos with patient-grouped k-fold cross-validation (the held-out fold
doubles as the early-stopping validation set), selection of the best
combo by F1 over the concatenated fold predictions, a final fit on all
folds for a fixed epoch budget (the median of the per-fold best
epochs), and evaluation on the per-institution and combined test sets.

Local and centralised treatments reuse the federated loop with a
single silo, which is exactly plain training. An independent
centralized trainer (train_centralized) implements the same procedure
as a flat loop so the equivalence is checkable rather than assumed.
"""

from __future__ import annotations

import statistics
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from itertools import product

import numpy as np

from .data import AdmissionRecord, SplitPlan, features_matrix
from .federated import (
    RoundLog,
    Silo,
    federated_train,
    federated_validate,
    resolve_pos_weight,
    train_for_epochs,
)
from .network import (
    ModelParams,
    TrainConfig,
    batch_loss,
    forward_batch,
    init_model,
    lr_at_epoch,
    sgd_step,
    backward,
    sigmoid,
)
from .seeds import derive_seed, make_rng
from .stats import THRESHOLD, Confusion, confusion, metric_bundle, prf1

DEFAULT_HIDDEN_SIZES = (64, 128, 256, 512)
DEFAULT_LEARNING_RATES = (0.005, 0.001, 0.0005)
DEFAULT_WEIGHT_DECAYS = (1e-3, 1e-4, 1e-5)

CENTRAL_SILO_NAME = "ALL"
TEST_SET_NAMES = ("A", "B", "combined")


class Treatment(Enum):
    LOCAL_A = "a"
    LOCAL_B = "b"
    FEDERATED = "federated"
    CENTRALISED = "central"

    @property
    def key(self) -> str:
        return self.value

    @classmethod
    def from_key(cls, key: str) -> "Treatment":
        for t in cls:
            if t.value == key:
                return t
        raise ValueError(f"unknown treatment {key!r}")


@dataclass(frozen=True)
class HyperCombo:
    hidden_size: int
    learning_rate: float
    weight_decay: float


@dataclass(frozen=True)
class GridSpec:
    """Hyperparameter grid; combos() enumerates the full cartesian product."""

    hidden_sizes: tuple[int, ...] = DEFAULT_HIDDEN_SIZES
    learning_rates: tuple[float, ...] = DEFAULT_LEARNING_RATES
    weight_decays: tuple[float, ...] = DEFAULT_WEIGHT_DECAYS

    def __post_init__(self):
        if not self.hidden_sizes or not self.learning_rates or not self.weight_decays:
            raise ValueError("grid axes must be non-empty")

    def combos(self) -> list[HyperCombo]:
        return [
            HyperCombo(h, lr, wd)
            for h, lr, wd in product(self.hidden_sizes, self.learning_rates, self.weight_decays)
        ]


@dataclass(frozen=True)
class FoldFit:
    """Bookkeeping for one (combo, fold) cross-validation fit."""

    fold: int
    best_epoch: int  # 1-based count of epochs through the best one
    epochs_run: int
    val_loss: float
    f1: float
    scores: np.ndarray
    labels: np.ndarray


@dataclass(frozen=True)
class CvResult:
    """One combo's cross-validation outcome."""

    combo: HyperCombo
    fold_fits: tuple[FoldFit, ...]
    f1: float  # over the concatenation of all fold predictions

    @property
    def fold_f1s(self) -> tuple[float, ...]:
        return tuple(fit.f1 for fit in self.fold_fits)

    @property
    def best_epochs(self) -> tuple[int, ...]:
        return tuple(fit.best_epoch for fit in self.fold_fits)

    @property
    def min_fold_f1(self) -> float:
        return min(self.fold_f1s)

    @property
    def mean_fold_f1(self) -> float:
        return sum(self.fold_f1s) / len(self.fold_f1s)

    @property
    def max_fold_f1(self) -> float:
        return max(self.fold_f1s)


@dataclass(frozen=True)
class FinalModel:
    treatment: Treatment
    params: ModelParams
    combo: HyperCombo
    epochs_trained: int


@dataclass(frozen=True, eq=False)
class TestSet:
    name: str
    record_ids: tuple[int, ...]
    features: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return len(self.record_ids)


@dataclass(frozen=True, eq=False)
class SetEvaluation:
    """Metrics and raw scores of one model on one test set."""

    test_set: str
    record_ids: tuple[int, ...]
    labels: np.ndarray
    scores: np.ndarray
    predictions: np.ndarray
    confusion: Confusion
    precision: float
    recall: float
    f1: float
    roc_auc: float | None
    pr_auc: float | None

    @property
    def auc_undefined(self) -> bool:
        return self.roc_auc is None


@dataclass(frozen=True)
class EvalReport:
    treatment: Treatment
    combo: HyperCombo
    epochs_trained: int
    evaluations: dict[str, SetEvaluation]


def _institution_indices(records, plan: SplitPlan, indices) -> dict[str, list[int]]:
    out: dict[str, list[int]] = {"A": [], "B": []}
    for i in indices:
        out[plan.institution_of_ward[records[i].ward]].append(i)
    return out


def silos_for_treatment(
    treatment: Treatment,
    records: list[AdmissionRecord],
    plan: SplitPlan,
    heldout_fold: int | None,
) -> list[Silo]:
    """Training/validation silos for one treatment and one held-out fold.

    heldout_fold None means all folds train and validation is empty
    (used for the final fixed-budget fit).
    """
    train_ids = sorted(
        i for i, f in plan.fold_of_record.items() if heldout_fold is None or f != heldout_fold
    )
    val_ids = [] if heldout_fold is None else plan.fold_ids(heldout_fold)

    def build(name: str, ids_train, ids_val) -> Silo:
        tx, ty = features_matrix(records, ids_train)
        vx, vy = features_matrix(records, ids_val)
        return Silo(name=name, train_features=tx, train_labels=ty, val_features=vx, val_labels=vy)

    if treatment is Treatment.CENTRALISED:
        return [build(CENTRAL_SILO_NAME, train_ids, val_ids)]
    train_by_inst = _institution_indices(records, plan, train_ids)
    val_by_inst = _institution_indices(records, plan, val_ids)
    if treatment is Treatment.LOCAL_A:
        return [build("A", train_by_inst["A"], val_by_inst["A"])]
    if treatment is Treatment.LOCAL_B:
        return [build("B", train_by_inst["B"], val_by_inst["B"])]
    return [
        build("A", train_by_inst["A"], val_by_inst["A"]),
        build("B", train_by_inst["B"], val_by_inst["B"]),
    ]


def _fit_fold(
    treatment: Treatment,
    records,
    plan: SplitPlan,
    combo: HyperCombo,
    combo_index: int,
    fold: int,
    base_config: TrainConfig,
    uniform_weights: bool,
) -> FoldFit:
    silos = silos_for_treatment(treatment, records, plan, heldout_fold=fold)
    cfg = replace(
        base_config,
        hidden_size=combo.hidden_size,
        lr0=combo.learning_rate,
        weight_decay=combo.weight_decay,
        seed=derive_seed(base_config.seed, treatment.key, combo_index, fold),
    )
    params, logs = federated_train(silos, cfg, uniform_weights=uniform_weights)
    losses = [log.val_loss for log in logs]
    best_index = int(np.argmin(losses))
    pos_weight = resolve_pos_weight(cfg, silos)
    val_loss, metrics, scores, labels = federated_validate(params, silos, pos_weight)
    return FoldFit(
        fold=fold,
        best_epoch=best_index + 1,
        epochs_run=len(logs),
        val_loss=val_loss,
        f1=metrics["f1"],
        scores=scores,
        labels=labels,
    )


def grid_search_cv(
    treatment: Treatment,
    records: list[AdmissionRecord],
    plan: SplitPlan,
    grid: GridSpec,
    base_config: TrainConfig,
    uniform_weights: bool = False,
    threads: int = 1,
) -> list[CvResult]:
    """Cross-validate every combo; each fit gets its own derived seed.

    Fits are independent, so they may run on a thread pool; results are
    assembled by (combo, fold) index and do not depend on the schedule.
    """
    if threads < 1:
        raise ValueError("threads must be at least 1")
    folds = sorted(set(plan.fold_of_record.values()))
    if not folds:
        raise ValueError("split plan has no folds")
    combos = grid.combos()
    tasks = [(ci, fold) for ci in range(len(combos)) for fold in folds]

    def run(task):
        ci, fold = task
        return _fit_fold(
            treatment, records, plan, combos[ci], ci, fold, base_config, uniform_weights
        )

    if threads == 1:
        fits = [run(t) for t in tasks]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            fits = list(pool.map(run, tasks))

    results = []
    for ci, combo in enumerate(combos):
        combo_fits = tuple(fits[ci * len(folds) + k] for k in range(len(folds)))
        labels = np.concatenate([fit.labels for fit in combo_fits])
        scores = np.concatenate([fit.scores for fit in combo_fits])
        preds = (scores >= THRESHOLD).astype(np.int64)
        _, _, f1 = prf1(confusion(labels.astype(np.int64), preds))
        results.append(CvResult(combo=combo, fold_fits=combo_fits, f1=f1))
    return results


def select_best(results: list[CvResult]) -> HyperCombo:
    """Highest concatenated F1; ties prefer smaller hidden size, then
    larger weight decay, then lower learning rate."""
    if not results:
        raise ValueError("no cross-validation results to select from")
    best = min(
        results,
        key=lambda r: (-r.f1, r.combo.hidden_size, -r.combo.weight_decay, r.combo.learning_rate),
    )
    return best.combo


def final_epoch_budget(best_epochs) -> int:
    """Median of the per-fold best-epoch counts."""
    epochs = list(best_epochs)
    if not epochs:
        raise ValueError("need at least one best-epoch value")
    if any(e < 1 for e in epochs):
        raise ValueError("best-epoch values must be at least 1")
    return int(round(statistics.median(epochs)))


def train_final(
    treatment: Treatment,
    cv_result: CvResult,
    records: list[AdmissionRecord],
    plan: SplitPlan,
    base_config: TrainConfig,
    uniform_weights: bool = False,
) -> tuple[FinalModel, list[RoundLog]]:
    """Refit the selected combo on all folds for the median epoch budget."""
    combo = cv_result.combo
    budget = final_epoch_budget(cv_result.best_epochs)
    silos = silos_for_treatment(treatment, records, plan, heldout_fold=None)
    cfg = replace(
        base_config,
        hidden_size=combo.hidden_size,
        lr0=combo.learning_rate,
        weight_decay=combo.weight_decay,
        seed=derive_seed(base_config.seed, treatment.key, "final"),
    )
    params, logs = train_for_epochs(silos, cfg, budget, uniform_weights=uniform_weights)
    return FinalModel(treatment=treatment, params=params, combo=combo, epochs_trained=budget), logs


def test_sets_from_plan(
    records: list[AdmissionRecord], plan: SplitPlan
) -> tuple[TestSet, TestSet]:
    """Per-institution test sets in stable record order."""
    by_inst = _institution_indices(records, plan, plan.test_ids)
    sets = []
    for name in ("A", "B"):
        ids = tuple(by_inst[name])
        x, y = features_matrix(records, ids)
        sets.append(TestSet(name=name, record_ids=ids, features=x, labels=y))
    return sets[0], sets[1]


def _evaluate_set(params: ModelParams, ts: TestSet) -> SetEvaluation:
    scores = sigmoid(forward_batch(params, ts.features))
    conf, metrics = metric_bundle(ts.labels, scores)
    return SetEvaluation(
        test_set=ts.name,
        record_ids=ts.record_ids,
        labels=ts.labels.astype(np.int64),
        scores=scores,
        predictions=(scores >= THRESHOLD).astype(np.int64),
        confusion=conf,
        **metrics,
    )


def evaluate(final: FinalModel, test_a: TestSet, test_b: TestSet) -> EvalReport:
    """Score the final model on A, B, and the combined set (A then B)."""
    combined = TestSet(
        name="combined",
        record_ids=test_a.record_ids + test_b.record_ids,
        features=np.concatenate([test_a.features, test_b.features]),
        labels=np.concatenate([test_a.labels, test_b.labels]),
    )
    evaluations = {
        ts.name: _evaluate_set(final.params, ts) for ts in (test_a, test_b, combined)
    }
    return EvalReport(
        treatment=final.treatment,
        combo=final.combo,
        epochs_trained=final.epochs_trained,
        evaluations=evaluations,
    )


def train_centralized(
    train_features: np.ndarray,
    train_labels: np.ndarray,
    val_features: np.ndarray,
    val_labels: np.ndarray,
    config: TrainConfig,
    name: str = CENTRAL_SILO_NAME,
) -> tuple[ModelParams, list[RoundLog]]:
    """Plain single-pool trainer, written as a flat loop.

    Follows the same seeding conventions as the federated loop (init
    stream, per-epoch shuffle stream named by `name`) so the two can be
    compared bit for bit, while sharing none of its orchestration code.
    """
    pool = Silo(name, train_features, train_labels, val_features, val_labels)  # validates the arrays
    if pool.n_train < 1 or pool.n_val < 1:
        raise ValueError("training and validation sets must be non-empty")
    x, y, vx, vy = pool.train_features, pool.train_labels, pool.val_features, pool.val_labels
    if config.pos_weight is not None:
        pos_weight = config.pos_weight
    else:
        n_pos = float(y.sum())
        if n_pos == 0:
            raise ValueError("cannot derive pos_weight: no positive training samples")
        pos_weight = (y.shape[0] - n_pos) / n_pos

    model = init_model(config.hidden_size, derive_seed(config.seed, "init"))
    best_loss = np.inf
    best_model = model
    since_improvement = 0
    logs: list[RoundLog] = []
    for epoch in range(config.max_epochs):
        lr = lr_at_epoch(config.lr0, config.gamma, epoch)
        order = make_rng(config.seed, "shuffle", name, epoch).permutation(x.shape[0])
        for start in range(0, x.shape[0], config.batch_size):
            chunk = order[start : start + config.batch_size]
            model = sgd_step(model, backward(model, x[chunk], y[chunk], pos_weight), lr, config.weight_decay)
        train_loss = batch_loss(model, x, y, pos_weight)
        val_loss = batch_loss(model, vx, vy, pos_weight)
        val_scores = sigmoid(forward_batch(model, vx))
        logs.append(
            RoundLog(
                epoch=epoch,
                lr=lr,
                train_losses={name: train_loss},
                val_loss=val_loss,
                metrics=metric_bundle(vy, val_scores)[1],
            )
        )
        if val_loss < best_loss:
            best_loss = val_loss
            best_model = model
            since_improvement = 0
        else:
            since_improvement += 1
            if since_improvement >= config.patience:
                break
    return best_model, logs


@dataclass(frozen=True)
class TreatmentRun:
    """Everything one treatment produced."""

    treatment: Treatment
    cv_results: list[CvResult]
    best_combo: HyperCombo
    final: FinalModel
    final_logs: list[RoundLog]
    report: EvalReport


def run_treatment(
    treatment: Treatment,
    records: list[AdmissionRecord],
    plan: SplitPlan,
    grid: GridSpec,
    base_config: TrainConfig,
    uniform_weights: bool = False,
    threads: int = 1,
) -> TreatmentRun:
    """Grid search, final fit, and evaluation for a single treatment."""
    cv_results = grid_search_cv(
        treatment, records, plan, grid, base_config, uniform_weights=uniform_weights, threads=threads
    )
    best_combo = select_best(cv_results)
    best_cv = next(r for r in cv_results if r.combo == best_combo)
    final, final_logs = train_final(
        treatment, best_cv, records, plan, base_config, uniform_weights=uniform_weights
    )
    test_a, test_b = test_sets_from_plan(records, plan)
    report = evaluate(final, test_a, test_b)
    return TreatmentRun(
        treatment=treatment,
        cv_results=cv_results,
        best_combo=best_combo,
        final=final,
        final_logs=final_logs,
        report=report,
    )


def run_treatments(
    treatments: list[Treatment],
    records: list[AdmissionRecord],
    plan: SplitPlan,
    grid: GridSpec,
    base_config: TrainConfig,
    uniform_weights: bool = False,
    threads: int = 1,
) -> dict[str, TreatmentRun]:
    """Run several treatments over the same data and split plan."""
    return {
        t.key: run_treatment(
            t, records, plan, grid, base_config, uniform_weights=uniform_weights, threads=threads
        )
        for t in treatments
    }
