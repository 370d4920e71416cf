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

from dataclasses import dataclass, replace
from functools import partial
from itertools import product

import numpy as np

from .data import RecordTable, SplitPlan, features_matrix, split_index
from .federated import RoundLog, Silo, federated_train, train_for_epochs
from .network import ModelParams, TrainConfig, forward_batch, sigmoid
from .seeds import derive_seed
from .stats import Confusion, ScoredSet, confusion, prf1

DEFAULT_HIDDEN_SIZES = (64, 128, 256, 512)
DEFAULT_LEARNING_RATES = (0.005, 0.001, 0.0005)
DEFAULT_WEIGHT_DECAYS = (1e-3, 1e-4, 1e-5)

CENTRAL_SILO_NAME = "ALL"
TEST_SET_NAMES = ("A", "B", "combined")


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
        for axis in ("hidden_sizes", "learning_rates", "weight_decays"):
            values = getattr(self, axis)
            if not values:
                raise ValueError("grid axes must be non-empty")
            for i, value in enumerate(values):
                if value in values[:i]:  # a repeated combo would be cross-validated twice
                    raise ValueError(f"{axis} lists {value!r} more than once")

    def combos(self) -> list[HyperCombo]:
        return [
            HyperCombo(h, lr, wd)
            for h, lr, wd in product(self.hidden_sizes, self.learning_rates, self.weight_decays)
        ]


@dataclass(frozen=True)
class FoldFit:
    """Bookkeeping for one (combo, fold) cross-validation fit: where its
    round logs put the best validation loss, and the held-out fold's
    confusion as scored by the round whose checkpoint early stopping kept."""

    fold: int
    best_epoch: int  # 1-based count of epochs through the best one
    epochs_run: int
    val_loss: float
    confusion: Confusion  # of the held-out fold at the 0.5 threshold

    @property
    def f1(self) -> float:
        return prf1(self.confusion)[2]


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


# each treatment's silos as (silo name, the institutions whose records it holds), by key in report
# order; the key also labels the treatment's seeds, run directory and report entries
TREATMENTS = {
    "a": (("A", ("A",)),),
    "b": (("B", ("B",)),),
    "federated": (("A", ("A",)), ("B", ("B",))),
    "central": ((CENTRAL_SILO_NAME, ("A", "B")),),
}


def _silos_of(treatment: str) -> tuple:
    """The treatment's row of TREATMENTS; ValueError for an unknown key."""
    if treatment not in TREATMENTS:
        raise ValueError(f"unknown treatment {treatment!r}; pick one of {', '.join(TREATMENTS)}")
    return TREATMENTS[treatment]


def silos_for_treatment(treatment: str, records: RecordTable, index, heldout_fold: int | None) -> list[Silo]:
    """Training/validation silos for one treatment and one held-out fold;
    index is split_index of the records and their plan.

    heldout_fold None means all folds train and validation is empty
    (used for the final fixed-budget fit).
    """
    institution, fold = index
    val = fold == heldout_fold  # all False for None
    train = (fold > 0) & ~val
    silos = []
    for name, insts in _silos_of(treatment):
        mine = np.isin(institution, insts)
        tx, ty = features_matrix(records, np.flatnonzero(train & mine))
        vx, vy = features_matrix(records, np.flatnonzero(val & mine))
        silos.append(Silo(name=name, train_features=tx, train_labels=ty, val_features=vx, val_labels=vy))
    return silos


def check_cv_folds(treatments: list[str], records: RecordTable, index) -> None:
    """Raise ValueError naming the first institution without a test
    record, the first unknown or repeated treatment key, or the first
    fold and institution that would leave a silo of one of the
    treatments' cross-validation fits without validation records (the
    held-out fold) or training records (the other folds), or a fit's
    training silos without a positive or without a negative record
    between them (pos_weight is their negative/positive ratio). index is
    split_index of the records."""
    institution, fold = index
    for name in ("A", "B"):  # every run scores both institutions' test sets
        if not np.any((fold == 0) & (institution == name)):
            raise ValueError(f"the test set holds no records of institution {name}")
    folds = range(1, int(fold.max(initial=0)) + 1)  # a checked plan numbers its folds 1..k
    in_fold = fold == np.array(folds)[:, None]  # (fold, record): whether the record is in the fold
    for i, treatment in enumerate(treatments):
        if treatment in treatments[:i]:
            raise ValueError(f"treatment {treatment!r} is listed more than once")
        groups = [insts for _, insts in _silos_of(treatment)]
        for insts in groups:
            held_out = np.count_nonzero(in_fold & np.isin(institution, insts), axis=1)
            name = _institutions_name(insts)
            for f, count in zip(folds, held_out):
                if count == 0:
                    raise ValueError(f"fold {f} holds no records of {name}, which treatment {treatment!r} trains on")
                if count == held_out.sum():
                    raise ValueError(
                        f"fold {f} holds every record of {name}: treatment {treatment!r} has no other fold to train on"
                    )
        trained = sum(groups, ())  # pos_weight pools the labels of all the treatment's silos
        for label, name in ((1, "positive"), (0, "negative")):
            held_out = np.count_nonzero(in_fold & np.isin(institution, trained) & (records.label == label), axis=1)
            for f, count in zip(folds, held_out):
                if count == held_out.sum():
                    raise ValueError(
                        f"holding out fold {f} leaves no {name} record of {_institutions_name(trained)} "
                        f"for treatment {treatment!r} to train on"
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


def _fit_fold(records, index, combos: list[HyperCombo], base_config: TrainConfig, task) -> FoldFit:
    """One (treatment, combo index, fold) task of grid_search_cv; index is split_index of the records."""
    treatment, combo_index, fold = task
    silos = silos_for_treatment(treatment, records, index, heldout_fold=fold)
    cfg = combos[combo_index].config(base_config, derive_seed(base_config.seed, treatment, combo_index, fold))
    _, logs, scored = federated_train(silos, cfg)
    # the first round with the lowest loss holds the checkpoint early stopping kept
    best = min(logs, key=lambda log: log.val_loss)
    return FoldFit(
        fold=fold,
        best_epoch=best.epoch + 1,
        epochs_run=len(logs),
        val_loss=best.val_loss,
        confusion=confusion(scored),
    )


def grid_search_cv(
    treatments: list[str],
    records: RecordTable,
    index,
    grid: GridSpec,
    base_config: TrainConfig,
    threads: int = 1,
) -> dict[str, list[CvResult]]:
    """Cross-validate every combo of every treatment; each fit gets its
    own derived seed. index is split_index of the records.

    One task per (treatment, combo, fold), in that order; the results
    are assembled by task index and do not depend on the schedule.
    """
    folds = range(1, int(index[1].max(initial=0)) + 1)
    if not folds:
        raise ValueError("split plan has no folds")
    combos = grid.combos()
    for combo in combos:  # TrainConfig checks each combo's values before the first fit
        combo.config(base_config, base_config.seed)
    tasks = list(product(treatments, range(len(combos)), folds))
    by_task = dict(zip(tasks, _map(partial(_fit_fold, records, index, combos, base_config), tasks, threads)))
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
    treatment: str,
    cv_result: CvResult,
    records: RecordTable,
    index,
    base_config: TrainConfig,
) -> tuple[ModelParams, int, list[RoundLog]]:
    """Refit the selected combo on all folds for the median epoch budget;
    returns the parameters, the budget and one log per epoch. index is
    split_index of the records."""
    budget = final_epoch_budget(cv_result.best_epochs)
    silos = silos_for_treatment(treatment, records, index, heldout_fold=None)
    cfg = cv_result.combo.config(base_config, derive_seed(base_config.seed, treatment, "final"))
    params, logs = train_for_epochs(silos, cfg, budget)
    return params, budget, logs


def test_rows(index) -> dict[str, np.ndarray]:
    """The record ids of the A, B and combined (A's, then B's) test sets,
    by set name in TEST_SET_NAMES order; index is split_index of the records."""
    institution, fold = index
    rows = {name: np.flatnonzero((fold == 0) & (institution == name)) for name in ("A", "B")}
    rows["combined"] = np.concatenate([rows["A"], rows["B"]])
    return rows


def evaluate(params: ModelParams, records: RecordTable, rows: dict[str, np.ndarray]) -> dict[str, ScoredSet]:
    """The model's scores on each set of record ids, by set name."""
    sets = ((name, features_matrix(records, ids)) for name, ids in rows.items())  # one set's features at a time
    return {name: ScoredSet(y, sigmoid(forward_batch(params, x))) for name, (x, y) in sets}


@dataclass(frozen=True)
class TreatmentRun:
    """Everything one treatment produced: its cross-validation, the
    selected combo refitted for the epoch budget, and that model's
    scores by test set name, with the record ids each set scores."""

    treatment: str  # its key in TREATMENTS
    cv_results: list[CvResult]
    best_combo: HyperCombo
    epoch_budget: int
    params: ModelParams
    final_logs: list[RoundLog]
    evaluations: dict[str, ScoredSet]
    record_ids: dict[str, tuple[int, ...]]


def run_treatments(
    treatments: list[str],
    records: RecordTable,
    plan: SplitPlan,
    grid: GridSpec,
    base_config: TrainConfig,
    threads: int = 1,
) -> dict[str, TreatmentRun]:
    """Read the plan into one split_index, which checks it, check the
    folds (check_cv_folds), cross-validate the treatments, refit each
    one's best combo (one task per treatment, through the same map), and
    score the final models."""
    index = split_index(records, plan)
    check_cv_folds(treatments, records, index)
    cv_results = grid_search_cv(treatments, records, index, grid, base_config, threads=threads)
    best = {t: select_best(cv_results[t]) for t in treatments}
    finals = _map(lambda t: train_final(t, best[t], records, index, base_config), treatments, threads)
    rows = test_rows(index)
    record_ids = {name: tuple(ids.tolist()) for name, ids in rows.items()}
    return {
        t: TreatmentRun(
            treatment=t,
            cv_results=cv_results[t],
            best_combo=best[t].combo,
            epoch_budget=budget,
            params=params,
            final_logs=logs,
            evaluations=evaluate(params, records, rows),
            record_ids=record_ids,
        )
        for t, (params, budget, logs) in zip(treatments, finals)
    }
