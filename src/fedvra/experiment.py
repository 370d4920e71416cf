"""Four-treatment protocol: local per institution, federated, centralised.

Each treatment runs the same pipeline: grid search over hyperparameter
combos with patient-grouped k-fold cross-validation (the held-out fold
doubles as the early-stopping validation set), selection of the best
combo by F1 over the concatenated fold predictions, a final fit on all
folds for a fixed epoch budget (the median of the per-fold best
epochs), and evaluation on the per-institution and combined test sets.

Local and centralised treatments reuse the federated loop with a
single silo, which is exactly plain training.

A run is two task lists, every (treatment, combo, fold) CV fit and then
every treatment's final fit. Each fit is a pure function of its derived
seed, so _map may run the tasks in any order; results go by task index.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial
from itertools import product

import numpy as np

from .data import RecordTable, SplitPlan, features_matrix
from .federated import RoundLog, Silo, federated_train, train_for_epochs
from .network import ModelParams, TrainConfig, forward_batch, sigmoid
from .seeds import derive_seed
from .stats import Confusion, ScoredSet, prf1

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
    """Bookkeeping for one (combo, fold) cross-validation fit, read from
    the validation round of the checkpoint that early stopping kept."""

    fold: int
    best_epoch: int  # 1-based count of epochs through the best one
    epochs_run: int
    val_loss: float
    f1: float
    confusion: Confusion  # of the held-out fold at the 0.5 threshold


@dataclass(frozen=True)
class CvResult:
    """One combo's cross-validation outcome."""

    combo: HyperCombo
    fold_fits: tuple[FoldFit, ...]
    f1: float  # of the summed fold confusions: over all fold predictions

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


# the institutions whose silos a treatment trains; the centralised
# treatment pools both institutions into one silo instead
_SILO_INSTITUTIONS = {Treatment.LOCAL_A: ("A",), Treatment.LOCAL_B: ("B",), Treatment.FEDERATED: ("A", "B")}


def _institution_indices(records, plan: SplitPlan, indices) -> dict[str, list[int]]:
    out: dict[str, list[int]] = {"A": [], "B": []}
    for i in indices:
        out[plan.institution_of_ward[records.ward[i]]].append(i)
    return out


def silos_for_treatment(
    treatment: Treatment,
    records: RecordTable,
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
    return [build(name, train_by_inst[name], val_by_inst[name]) for name in _SILO_INSTITUTIONS[treatment]]


def check_cv_folds(treatments: list[Treatment], records: RecordTable, plan: SplitPlan) -> None:
    """Raise ValueError naming the first fold and institution that would
    leave a silo of one of the treatments' cross-validation fits without
    validation records (the held-out fold) or training records (the
    other folds), or leave a fit's training silos without a positive
    record between them (pos_weight is their negative/positive ratio).
    A run calls this before it writes anything."""
    cells = {i: (f, plan.institution_of_ward[records.ward[i]]) for i, f in plan.fold_of_record.items()}
    per_fold = Counter(cells.values())
    positives = Counter(cell for i, cell in cells.items() if records.label[i])
    folds = sorted(set(plan.fold_of_record.values()))
    for treatment in treatments:
        groups = [(inst,) for inst in _SILO_INSTITUTIONS.get(treatment, ())] or [("A", "B")]
        key = treatment.key
        for insts in groups:
            held_out = {fold: sum(per_fold[fold, inst] for inst in insts) for fold in folds}
            total = sum(held_out.values())
            name = _institutions_name(insts)
            for fold in folds:
                if held_out[fold] == 0:
                    raise ValueError(f"fold {fold} holds no records of {name}, which treatment {key!r} trains on")
                if held_out[fold] == total:
                    raise ValueError(
                        f"fold {fold} holds every record of {name}: treatment {key!r} has no other fold to train on"
                    )
        trained = sum(groups, ())  # pos_weight pools the positives of all the treatment's silos
        held_out = {fold: sum(positives[fold, inst] for inst in trained) for fold in folds}
        for fold in folds:
            if held_out[fold] == sum(held_out.values()):
                raise ValueError(
                    f"holding out fold {fold} leaves no positive record of {_institutions_name(trained)} "
                    f"for treatment {key!r} to train on"
                )


def _institutions_name(insts) -> str:
    return f"institution{'s' * (len(insts) > 1)} {' and '.join(insts)}"


def _map(fn, tasks: list, threads: int) -> list:
    """fn over the tasks, results in task order: in this thread at 1,
    on a thread pool of that many workers above 1."""
    if threads < 1:
        raise ValueError("threads must be at least 1")
    if threads == 1:
        return [fn(task) for task in tasks]
    from concurrent.futures import ThreadPoolExecutor  # only here: it loads logging

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, tasks))


def _fit_fold(records, plan: SplitPlan, combos: list[HyperCombo], base_config: TrainConfig, task) -> FoldFit:
    """One (treatment, combo index, fold) task of grid_search_cv."""
    treatment, combo_index, fold = task
    silos = silos_for_treatment(treatment, records, plan, heldout_fold=fold)
    cfg = combos[combo_index].config(base_config, derive_seed(base_config.seed, treatment.key, combo_index, fold))
    _, logs = federated_train(silos, cfg, train_losses=False)
    # the first round with the lowest loss holds the checkpoint early stopping kept
    best = min(logs, key=lambda log: log.val_loss)
    metrics = best.metrics
    return FoldFit(
        fold=fold,
        best_epoch=best.epoch + 1,
        epochs_run=len(logs),
        val_loss=best.val_loss,
        f1=metrics["f1"],
        confusion=Confusion(*(metrics[k] for k in Confusion._fields)),
    )


def grid_search_cv(
    treatments: list[Treatment],
    records: RecordTable,
    plan: SplitPlan,
    grid: GridSpec,
    base_config: TrainConfig,
    threads: int = 1,
) -> dict[Treatment, list[CvResult]]:
    """Cross-validate every combo of every treatment; each fit gets its
    own derived seed.

    One task per (treatment, combo, fold), in that order; the results
    are assembled by task index and do not depend on the schedule.
    """
    folds = sorted(set(plan.fold_of_record.values()))
    if not folds:
        raise ValueError("split plan has no folds")
    combos = grid.combos()
    tasks = list(product(treatments, range(len(combos)), folds))
    by_task = dict(zip(tasks, _map(partial(_fit_fold, records, plan, combos, base_config), tasks, threads)))
    return {
        t: [_cv_result(combo, tuple(by_task[t, ci, fold] for fold in folds)) for ci, combo in enumerate(combos)]
        for t in treatments
    }


def _cv_result(combo: HyperCombo, fold_fits: tuple[FoldFit, ...]) -> CvResult:
    summed = Confusion(*map(sum, zip(*(fit.confusion for fit in fold_fits))))
    return CvResult(combo=combo, fold_fits=fold_fits, f1=prf1(summed)[2])


def select_best(results: list[CvResult]) -> CvResult:
    """Highest concatenated F1; ties prefer smaller hidden size, then
    larger weight decay, then lower learning rate."""
    if not results:
        raise ValueError("no cross-validation results to select from")
    return min(
        results,
        key=lambda r: (-r.f1, r.combo.hidden_size, -r.combo.weight_decay, r.combo.learning_rate),
    )


def final_epoch_budget(best_epochs) -> int:
    """Median of the per-fold best-epoch counts; the mean of the middle
    two for an even count, rounded half to even."""
    epochs = sorted(best_epochs)
    if not epochs:
        raise ValueError("need at least one best-epoch value")
    if any(e < 1 for e in epochs):
        raise ValueError("best-epoch values must be at least 1")
    mid = len(epochs) // 2
    return int(epochs[mid] if len(epochs) % 2 else round((epochs[mid - 1] + epochs[mid]) / 2))


def train_final(
    treatment: Treatment,
    cv_result: CvResult,
    records: RecordTable,
    plan: SplitPlan,
    base_config: TrainConfig,
) -> tuple[ModelParams, int, list[RoundLog]]:
    """Refit the selected combo on all folds for the median epoch budget;
    returns the parameters, the budget and one log per epoch."""
    budget = final_epoch_budget(cv_result.best_epochs)
    silos = silos_for_treatment(treatment, records, plan, heldout_fold=None)
    cfg = cv_result.combo.config(base_config, derive_seed(base_config.seed, treatment.key, "final"))
    params, logs = train_for_epochs(silos, cfg, budget)
    return params, budget, logs


def test_sets_from_plan(records: RecordTable, plan: SplitPlan) -> tuple[TestSet, TestSet, TestSet]:
    """The A, B and combined (A then B) test sets, in stable record order."""
    by_inst = _institution_indices(records, plan, plan.test_ids)
    a, b = (TestSet(name, tuple(by_inst[name]), *features_matrix(records, by_inst[name])) for name in ("A", "B"))
    combined = TestSet(
        "combined",
        a.record_ids + b.record_ids,
        np.concatenate([a.features, b.features]),
        np.concatenate([a.labels, b.labels]),
    )
    return a, b, combined


def evaluate(params: ModelParams, test_sets: tuple[TestSet, ...]) -> dict[str, ScoredSet]:
    """The model's scores on each test set, by set name."""
    return {ts.name: ScoredSet(ts.labels, sigmoid(forward_batch(params, ts.features))) for ts in test_sets}


@dataclass(frozen=True)
class TreatmentRun:
    """Everything one treatment produced: its cross-validation, the
    selected combo refitted for the epoch budget, and that model's
    scores by test set name, with the record ids each set scores."""

    treatment: Treatment
    cv_results: list[CvResult]
    best_combo: HyperCombo
    epoch_budget: int
    params: ModelParams
    final_logs: list[RoundLog]
    evaluations: dict[str, ScoredSet]
    record_ids: dict[str, tuple[int, ...]]


def run_treatments(
    treatments: list[Treatment],
    records: RecordTable,
    plan: SplitPlan,
    grid: GridSpec,
    base_config: TrainConfig,
    threads: int = 1,
) -> dict[str, TreatmentRun]:
    """Cross-validate the treatments, refit each one's best combo (one
    task per treatment, through the same map), and score every final
    model on the test sets, which are built once."""
    cv_results = grid_search_cv(treatments, records, plan, grid, base_config, threads=threads)
    best = {t: select_best(cv_results[t]) for t in treatments}
    finals = _map(lambda t: train_final(t, best[t], records, plan, base_config), treatments, threads)
    test_sets = test_sets_from_plan(records, plan)
    record_ids = {ts.name: ts.record_ids for ts in test_sets}
    return {
        t.key: TreatmentRun(
            treatment=t,
            cv_results=cv_results[t],
            best_combo=best[t].combo,
            epoch_budget=budget,
            params=params,
            final_logs=logs,
            evaluations=evaluate(params, test_sets),
            record_ids=record_ids,
        )
        for t, (params, budget, logs) in zip(treatments, finals)
    }
