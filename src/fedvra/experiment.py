"""Four-treatment protocol: local per institution, federated, centralised.

Each treatment runs the same pipeline: grid search over hyperparameter
combos with patient-grouped k-fold cross-validation (the held-out fold
doubles as the early-stopping validation set), selection of the best
combo by F1 over the concatenated fold predictions, a final fit on all
folds for a fixed epoch budget (the median of the per-fold best
epochs), and evaluation on the per-institution and combined test sets.

Local and centralised treatments reuse the federated loop with a
single silo, which is exactly plain training.
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
from .network import ModelParams, TrainConfig, forward_batch, sigmoid
from .seeds import derive_seed
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


@dataclass(frozen=True)
class HyperCombo:
    hidden_size: int
    learning_rate: float
    weight_decay: float

    def config(self, base: TrainConfig, seed: int) -> TrainConfig:
        """The base config with this combo's settings and the given seed."""
        return replace(
            base, hidden_size=self.hidden_size, lr0=self.learning_rate, weight_decay=self.weight_decay, seed=seed
        )


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
    names = {Treatment.LOCAL_A: ("A",), Treatment.LOCAL_B: ("B",), Treatment.FEDERATED: ("A", "B")}[treatment]
    return [build(name, train_by_inst[name], val_by_inst[name]) for name in names]


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
    cfg = combo.config(base_config, derive_seed(base_config.seed, treatment.key, combo_index, fold))
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
) -> tuple[ModelParams, int, list[RoundLog]]:
    """Refit the selected combo on all folds for the median epoch budget;
    returns the parameters, the budget and one log per epoch."""
    budget = final_epoch_budget(cv_result.best_epochs)
    silos = silos_for_treatment(treatment, records, plan, heldout_fold=None)
    cfg = cv_result.combo.config(base_config, derive_seed(base_config.seed, treatment.key, "final"))
    params, logs = train_for_epochs(silos, cfg, budget, uniform_weights=uniform_weights)
    return params, budget, logs


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


def evaluate(params: ModelParams, test_a: TestSet, test_b: TestSet) -> dict[str, SetEvaluation]:
    """Score a model on A, B, and the combined set (A then B), by set name."""
    combined = TestSet(
        name="combined",
        record_ids=test_a.record_ids + test_b.record_ids,
        features=np.concatenate([test_a.features, test_b.features]),
        labels=np.concatenate([test_a.labels, test_b.labels]),
    )
    return {ts.name: _evaluate_set(params, ts) for ts in (test_a, test_b, combined)}


@dataclass(frozen=True)
class TreatmentRun:
    """Everything one treatment produced: its cross-validation, the
    selected combo refitted for the epoch budget, and that model's test
    evaluations by set name."""

    treatment: Treatment
    cv_results: list[CvResult]
    best_combo: HyperCombo
    epoch_budget: int
    params: ModelParams
    final_logs: list[RoundLog]
    evaluations: dict[str, SetEvaluation]


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
    params, budget, final_logs = train_final(
        treatment, best_cv, records, plan, base_config, uniform_weights=uniform_weights
    )
    return TreatmentRun(
        treatment=treatment,
        cv_results=cv_results,
        best_combo=best_combo,
        epoch_budget=budget,
        params=params,
        final_logs=final_logs,
        evaluations=evaluate(params, *test_sets_from_plan(records, plan)),
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
