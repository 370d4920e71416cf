"""Records, splitting, and the synthetic generator.

The ward-partition oracle enumerates every two-way assignment; the
leakage checks re-derive patient and time invariants from raw sets
rather than trusting the package's own verifier.
"""

import math
from datetime import datetime, timedelta, timezone
from itertools import product

import numpy as np
import pytest

from fedvra.data import (
    DEFAULT_POSITIVE_RATE,
    DEFAULT_WARD_MIX,
    AdmissionRecord,
    SplitPlan,
    SynthConfig,
    WARDS,
    assign_institutions,
    check_split_plan,
    features_matrix,
    format_ts,
    generate_synthetic,
    label_direction,
    load_records,
    load_split_plan,
    make_folds,
    make_split_plan,
    parse_ts,
    record_from_dict,
    record_to_dict,
    remove_patient_overlap,
    save_records,
    save_split_plan,
    split_time_test,
    verify_split_plan,
    ward_counts,
)
from fedvra.errors import SplitInvariantError
from fedvra.network import INPUT_DIM
from fedvra.stats import roc_auc

BASE_TS = datetime(2019, 3, 1, tzinfo=timezone.utc)


def record(pid, ward, hours, label=0, features=None):
    x = np.zeros(INPUT_DIM) if features is None else features
    return AdmissionRecord(
        patient_id=pid, ward=ward, admission_ts=BASE_TS + timedelta(hours=hours), features=x, label=label
    )


def brute_force_min_diff(counts) -> int:
    """Best achievable |count(A) - count(B)| over all two-way ward splits."""
    wards = sorted(counts)
    total = sum(counts.values())
    best = None
    for sides in product((0, 1), repeat=len(wards)):
        if 0 < sum(sides) < len(wards):
            side_a = sum(counts[w] for w, s in zip(wards, sides) if s)
            diff = abs(total - 2 * side_a)
            best = diff if best is None else min(best, diff)
    return best


# ---------- institutions ----------


def test_assign_institutions_published_counts():
    counts = {"A1": 759, "A3": 826, "A2V": 1877, "A2J": 818}
    mapping = assign_institutions(counts)
    assert mapping == {"A2V": "A", "A1": "B", "A3": "B", "A2J": "B"}
    assert brute_force_min_diff(counts) == 526


def test_assign_institutions_tie_breaks():
    assert assign_institutions({"w1": 10, "w2": 10}) == {"w1": "A", "w2": "B"}
    mapping = assign_institutions({"w1": 5, "w2": 5, "w3": 10})
    assert mapping == {"w3": "A", "w1": "B", "w2": "B"}


def test_assign_institutions_is_optimal():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n_wards = int(rng.integers(2, 7))
        counts = {f"w{i}": int(rng.integers(1, 500)) for i in range(n_wards)}
        mapping = assign_institutions(counts)
        side_a = sum(c for w, c in counts.items() if mapping[w] == "A")
        total = sum(counts.values())
        assert abs(total - 2 * side_a) == brute_force_min_diff(counts)
        assert set(mapping.values()) == {"A", "B"}


def test_assign_institutions_needs_two_nonzero_wards():
    with pytest.raises(ValueError):
        assign_institutions({"w1": 10, "w2": 0})


# ---------- time split ----------


def test_split_time_test_takes_latest():
    records = [record(f"P{i}", "A1", hours=i) for i in range(10)]
    train_val, test = split_time_test(records, 0.2)
    assert test == [8, 9]
    assert train_val == list(range(8))


def test_split_time_test_all_equal_timestamps_uses_stable_order():
    records = [record(f"P{i}", "A1", hours=0) for i in range(10)]
    train_val, test = split_time_test(records, 0.2)
    assert test == [8, 9]  # stable sort keeps input order on ties


def test_split_time_test_per_institution_counts():
    records = [record(f"P{i}", "A1", hours=i) for i in range(7)]
    records += [record(f"Q{i}", "A2V", hours=i) for i in range(5)]
    inst = {"A1": "B", "A2V": "A"}
    train_val, test = split_time_test(records, 0.25, inst)
    test_by_inst = {"A": 0, "B": 0}
    for i in test:
        test_by_inst[inst[records[i].ward]] += 1
    assert test_by_inst == {"A": math.ceil(0.25 * 5), "B": math.ceil(0.25 * 7)}
    assert sorted(train_val + test) == list(range(12))


def test_split_time_test_rejects_bad_inputs():
    records = [record("P1", "A1", hours=0)]
    with pytest.raises(ValueError):
        split_time_test([], 0.2)
    with pytest.raises(ValueError):
        split_time_test(records, 0.0)
    with pytest.raises(ValueError):
        split_time_test(records, 1.0)
    with pytest.raises(ValueError):
        split_time_test(records, 0.2, {"other": "A"})


# ---------- overlap removal ----------


def test_remove_patient_overlap_disjoint():
    records = [record("P1", "A1", 0), record("P2", "A1", 1), record("P3", "A1", 2)]
    pruned, dropped = remove_patient_overlap(records, [0, 1], [2])
    assert pruned == [0, 1] and dropped == []


def test_remove_patient_overlap_shared_patient():
    records = [record("P1", "A1", 0), record("P1", "A1", 1), record("P2", "A1", 2), record("P1", "A1", 3)]
    pruned, dropped = remove_patient_overlap(records, [0, 1, 2], [3])
    assert pruned == [2] and dropped == [0, 1]


def test_remove_patient_overlap_randomized_oracle():
    rng = np.random.default_rng(32)
    for _ in range(20):
        n = int(rng.integers(5, 40))
        records = [record(f"P{int(rng.integers(1, 8))}", "A1", hours=i) for i in range(n)]
        split_at = int(rng.integers(1, n))
        train_val, test = list(range(split_at)), list(range(split_at, n))
        pruned, dropped = remove_patient_overlap(records, train_val, test)
        pruned_patients = {records[i].patient_id for i in pruned}
        test_patients = {records[i].patient_id for i in test}
        assert pruned_patients & test_patients == set()
        assert sorted(pruned + dropped) == train_val


# ---------- folds ----------


def test_make_folds_one_patient_each():
    records = [record(f"P{i}", "A1", hours=i) for i in range(5)]
    folds = make_folds(records, list(range(5)), k=5, seed=0)
    assert sorted(folds.values()) == [1, 2, 3, 4, 5]


def test_make_folds_keeps_patients_together():
    records = [record("P1", "A1", 0), record("P1", "A1", 1), record("P1", "A1", 2)]
    records += [record(f"Q{i}", "A1", 10 + i) for i in range(4)]
    folds = make_folds(records, list(range(7)), k=2, seed=1)
    assert len({folds[0], folds[1], folds[2]}) == 1


def test_make_folds_balanced_and_deterministic():
    rng = np.random.default_rng(33)
    records = []
    for p in range(40):
        for a in range(int(rng.integers(1, 4))):
            records.append(record(f"P{p}", "A1", hours=len(records)))
    ids = list(range(len(records)))
    folds = make_folds(records, ids, k=5, seed=7)
    assert folds == make_folds(records, ids, k=5, seed=7)
    assert set(folds) == set(ids)
    sizes = [sum(1 for f in folds.values() if f == fold) for fold in range(1, 6)]
    assert max(sizes) - min(sizes) <= 3  # largest patient has 3 records


def test_make_folds_requires_enough_patients():
    records = [record("P1", "A1", 0), record("P1", "A1", 1)]
    with pytest.raises(ValueError):
        make_folds(records, [0, 1], k=2, seed=0)


# ---------- full plan + verifier ----------


def synthetic_records(n_patients=60, seed=0, **kwargs):
    return generate_synthetic(SynthConfig(n_patients=n_patients, seed=seed, **kwargs))


def test_make_split_plan_passes_independent_checks():
    records = synthetic_records(seed=5)
    plan = make_split_plan(records, test_fraction=0.2, n_folds=5, seed=5)
    assert verify_split_plan(records, plan) == []

    # exact partition
    folded, test, dropped = set(plan.fold_of_record), set(plan.test_ids), set(plan.dropped_ids)
    assert folded | test | dropped == set(range(len(records)))
    assert not (folded & test or folded & dropped or test & dropped)

    # patient-disjoint folds and test set, re-derived from raw ids
    fold_patients = {}
    for i, fold in plan.fold_of_record.items():
        fold_patients.setdefault(records[i].patient_id, set()).add(fold)
    assert all(len(f) == 1 for f in fold_patients.values())
    assert not set(fold_patients) & {records[i].patient_id for i in test}

    # test records no earlier than any train/val record of their institution
    for inst in ("A", "B"):
        in_inst = lambda i: plan.institution_of_ward[records[i].ward] == inst
        train_ts = [records[i].admission_ts for i in folded if in_inst(i)]
        test_ts = [records[i].admission_ts for i in test if in_inst(i)]
        if train_ts and test_ts:
            assert min(test_ts) >= max(train_ts)


def test_verifier_catches_partition_violations():
    records = synthetic_records(seed=6)
    plan = make_split_plan(records, seed=6)

    missing = SplitPlan(
        institution_of_ward=plan.institution_of_ward,
        test_ids=plan.test_ids[1:],
        fold_of_record=plan.fold_of_record,
        dropped_ids=plan.dropped_ids,
    )
    assert any("partition" in v for v in verify_split_plan(records, missing))

    overlapping = SplitPlan(
        institution_of_ward=plan.institution_of_ward,
        test_ids=plan.test_ids,
        fold_of_record={**plan.fold_of_record, plan.test_ids[0]: 1},
        dropped_ids=plan.dropped_ids,
    )
    violations = verify_split_plan(records, overlapping)
    assert any("partition" in v for v in violations)


def test_verifier_catches_patient_fold_overlap():
    records = synthetic_records(seed=7, admissions_per_patient=(2, 3))
    plan = make_split_plan(records, seed=7)
    by_patient = {}
    for i, fold in plan.fold_of_record.items():
        by_patient.setdefault(records[i].patient_id, []).append(i)
    pid, ids = next((p, ids) for p, ids in by_patient.items() if len(ids) >= 2)
    mutated = dict(plan.fold_of_record)
    mutated[ids[0]] = 1 + (mutated[ids[0]] % plan.n_folds)  # push one record elsewhere
    bad = SplitPlan(
        institution_of_ward=plan.institution_of_ward,
        test_ids=plan.test_ids,
        fold_of_record=mutated,
        dropped_ids=plan.dropped_ids,
    )
    assert any("patient-fold-overlap" in v for v in verify_split_plan(records, bad))


def test_verifier_catches_patient_test_leak():
    records = synthetic_records(seed=8)
    plan = make_split_plan(records, seed=8)
    assert plan.dropped_ids, "expected era-crossing patients in this dataset"
    leaked = plan.dropped_ids[0]  # same patient as some test record
    bad = SplitPlan(
        institution_of_ward=plan.institution_of_ward,
        test_ids=plan.test_ids,
        fold_of_record={**plan.fold_of_record, leaked: 1},
        dropped_ids=tuple(i for i in plan.dropped_ids if i != leaked),
    )
    assert any("patient-test-overlap" in v for v in verify_split_plan(records, bad))


def test_verifier_catches_time_order_violation():
    records = synthetic_records(seed=9)
    plan = make_split_plan(records, seed=9)
    inst = plan.institution_of_ward
    # swap the latest folded record with the earliest test record of one institution
    folded = max(
        (i for i in plan.fold_of_record),
        key=lambda i: (records[i].admission_ts, inst[records[i].ward] == "A"),
    )
    target = inst[records[folded].ward]
    test_candidates = [
        i for i in plan.test_ids
        if inst[records[i].ward] == target and records[i].admission_ts > records[folded].admission_ts
    ]
    early_test = min(test_candidates, key=lambda i: records[i].admission_ts)
    mutated = dict(plan.fold_of_record)
    fold = mutated.pop(folded)
    mutated[early_test] = fold
    bad = SplitPlan(
        institution_of_ward=inst,
        test_ids=tuple(i for i in plan.test_ids if i != early_test) + (folded,),
        fold_of_record=mutated,
        dropped_ids=plan.dropped_ids,
    )
    violations = verify_split_plan(records, bad)
    assert any("test-time-order" in v for v in violations)


def test_verifier_catches_unmapped_ward():
    records = synthetic_records(seed=10)
    plan = make_split_plan(records, seed=10)
    partial = {w: i for w, i in plan.institution_of_ward.items() if w != records[0].ward}
    bad = SplitPlan(
        institution_of_ward=partial,
        test_ids=plan.test_ids,
        fold_of_record=plan.fold_of_record,
        dropped_ids=plan.dropped_ids,
    )
    assert any("institution-map" in v for v in verify_split_plan(records, bad))


def test_check_split_plan_raises():
    records = synthetic_records(seed=11)
    plan = make_split_plan(records, seed=11)
    check_split_plan(records, plan)  # clean plan passes
    bad = SplitPlan(
        institution_of_ward=plan.institution_of_ward,
        test_ids=plan.test_ids[2:],
        fold_of_record=plan.fold_of_record,
        dropped_ids=plan.dropped_ids,
    )
    with pytest.raises(SplitInvariantError):
        check_split_plan(records, bad)


# ---------- synthetic generator ----------


def test_generate_synthetic_deterministic():
    a = generate_synthetic(SynthConfig(n_patients=30, seed=42))
    b = generate_synthetic(SynthConfig(n_patients=30, seed=42))
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert ra.patient_id == rb.patient_id and ra.ward == rb.ward
        assert ra.admission_ts == rb.admission_ts and ra.label == rb.label
        assert np.array_equal(ra.features, rb.features)


def test_generate_synthetic_counts_and_allocation():
    config = SynthConfig(n_patients=200, seed=1, positive_rate=0.25)
    records = generate_synthetic(config)
    assert 200 <= len(records) <= 600
    assert sum(r.label for r in records) == round(0.25 * len(records))
    for r in records:
        assert r.ward in WARDS
        assert r.features.shape == (INPUT_DIM,)
        assert parse_ts(format_ts(r.admission_ts)) == r.admission_ts


def test_generate_synthetic_one_ward_per_patient():
    records = generate_synthetic(SynthConfig(n_patients=80, seed=2, admissions_per_patient=(2, 4)))
    wards_by_patient = {}
    for r in records:
        wards_by_patient.setdefault(r.patient_id, set()).add(r.ward)
    assert all(len(w) == 1 for w in wards_by_patient.values())


def test_generate_synthetic_ward_proportions():
    # ~4280 records at 2 admissions per patient on average
    records = generate_synthetic(SynthConfig(n_patients=2140, seed=10))
    counts = ward_counts(records)
    for ward, want in DEFAULT_WARD_MIX.items():
        assert abs(counts[ward] / len(records) - want) <= 0.02, ward
    rate = sum(r.label for r in records) / len(records)
    assert abs(rate - DEFAULT_POSITIVE_RATE) <= 0.001


def test_generate_synthetic_no_signal_when_separation_zero():
    records = generate_synthetic(
        SynthConfig(n_patients=1000, seed=4, class_separation=0.0, ward_shift=0.0)
    )
    x, y = features_matrix(records, range(len(records)))
    scores = x @ label_direction()
    auc = roc_auc(y.astype(int), (scores - scores.min()) / (scores.max() - scores.min()))
    assert abs(auc - 0.5) <= 0.05


def test_generate_synthetic_signal_along_label_direction():
    records = generate_synthetic(SynthConfig(n_patients=500, seed=5, class_separation=2.0))
    x, y = features_matrix(records, range(len(records)))
    scores = x @ label_direction()
    auc = roc_auc(y.astype(int), (scores - scores.min()) / (scores.max() - scores.min()))
    assert auc > 0.85


def test_features_matrix_returns_fresh_read_only_arrays():
    records = generate_synthetic(SynthConfig(n_patients=10, seed=1))
    for ids in (range(3), []):
        x, y = features_matrix(records, ids)
        assert x.shape == (len(ids), INPUT_DIM) and y.shape == (len(ids),)
        for arr in (x, y):
            assert arr.flags.owndata and not arr.flags.writeable
        assert not any(np.shares_memory(x, records[i].features) for i in ids)


def test_synth_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(n_patients=0, seed=1)
    with pytest.raises(ValueError):
        SynthConfig(n_patients=10, seed=-1)
    with pytest.raises(ValueError):
        SynthConfig(n_patients=10, seed=1, admissions_per_patient=(3, 2))
    with pytest.raises(ValueError):
        SynthConfig(n_patients=10, seed=1, ward_mix={"A1": 0.5, "A3": 0.4})
    with pytest.raises(ValueError):
        SynthConfig(n_patients=10, seed=1, positive_rate=1.5)
    with pytest.raises(ValueError):
        SynthConfig(n_patients=10, seed=1, class_separation=-1.0)


# ---------- records and persistence ----------


def test_admission_record_normalises_timestamps():
    naive = AdmissionRecord(
        patient_id="P1",
        ward="A1",
        admission_ts=datetime(2019, 5, 1, 12, 30, 15, 999999),
        features=np.zeros(INPUT_DIM),
        label=0,
    )
    assert naive.admission_ts.tzinfo == timezone.utc
    assert naive.admission_ts.microsecond == 0


def test_admission_record_validation():
    with pytest.raises(ValueError):
        record("", "A1", 0)
    with pytest.raises(ValueError):
        record("P1", "", 0)
    with pytest.raises(ValueError):
        record("P1", "A1", 0, features=np.zeros(INPUT_DIM - 1))
    with pytest.raises(ValueError):
        record("P1", "A1", 0, features=np.full(INPUT_DIM, np.nan))
    with pytest.raises(ValueError):
        record("P1", "A1", 0, label=2)


def test_records_round_trip(tmp_path):
    records = synthetic_records(n_patients=12, seed=13)
    path = tmp_path / "data.jsonl"
    save_records(path, records)
    loaded = load_records(path)
    assert len(loaded) == len(records)
    for a, b in zip(records, loaded):
        assert a.patient_id == b.patient_id and a.ward == b.ward and a.label == b.label
        assert a.admission_ts == b.admission_ts
        assert np.array_equal(a.features, b.features)  # repr round-trips float64 exactly


def test_record_dict_round_trip():
    r = record("P9", "A2V", 5, label=1, features=np.linspace(-1, 1, INPUT_DIM))
    again = record_from_dict(record_to_dict(r))
    assert np.array_equal(r.features, again.features)
    assert r.admission_ts == again.admission_ts


def test_load_records_reports_bad_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = record_to_dict(record("P1", "A1", 0))
    import json

    bad_lines = [
        {"patient_id": "P2"},
        [good["patient_id"], good["ward"]],
        {**good, "admission_ts": 5},
        {**good, "ward": ["x"]},
        {**good, "patient_id": 7},
    ]
    for bad in bad_lines:
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(ValueError, match="line 2"):
            load_records(path)


def test_split_plan_round_trip(tmp_path):
    records = synthetic_records(seed=14)
    plan = make_split_plan(records, seed=14)
    path = tmp_path / "plan.json"
    save_split_plan(path, plan)
    loaded = load_split_plan(path)
    assert loaded.institution_of_ward == plan.institution_of_ward
    assert loaded.test_ids == plan.test_ids
    assert loaded.fold_of_record == plan.fold_of_record
    assert loaded.dropped_ids == plan.dropped_ids
