"""Deterministic comparison of local, federated, and pooled training.

A small feed-forward classifier is trained under four treatments on
ward-partitioned admission records: one model per institution, a
federated model averaged across institutions each epoch, and a
centralised model on the pooled data. Splits are leakage-safe
(patient-grouped folds, time-ordered test sets) and every result is
reproducible from a single seed.
"""

__version__ = "0.1.0"

import os

# One BLAS thread, set before numpy loads: a threaded BLAS splits its sums
# by core count, so the seeded outputs would depend on the machine.
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

from .data import (
    RecordTable,
    SplitPlan,
    SynthConfig,
    assign_institutions,
    check_split_plan,
    generate_synthetic,
    load_records,
    load_split_plan,
    make_folds,
    make_split_plan,
    remove_patient_overlap,
    save_records,
    save_split_plan,
    split_index,
    split_time_test,
    verify_split_plan,
)
from .errors import NumericalError, SplitInvariantError, StatisticalError, UndefinedMetricError
from .experiment import (
    CvResult,
    GridSpec,
    HyperCombo,
    Treatment,
    TreatmentRun,
    evaluate,
    grid_search_cv,
    run_treatments,
    select_best,
    test_sets_from_plan,
    train_final,
)
from .federated import (
    RoundLog,
    Silo,
    federated_train,
    federated_validate,
    local_train_epoch,
    local_validate,
    train_for_epochs,
)
from .network import (
    Gradients,
    ModelParams,
    TrainConfig,
    average_models,
    backward,
    batch_loss,
    init_model,
    load_params,
    lr_at_epoch,
    sgd_step,
)
from .stats import (
    BootstrapResult,
    CommonAgreement,
    Confusion,
    ContingencyCounts,
    DiffResult,
    ScoredSet,
    bootstrap_ci,
    bootstrap_diff,
    common_agreement,
    confusion,
    contingency,
    prf1,
    roc_curve,
)
