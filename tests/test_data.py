"""Records, splitting, and the synthetic generator.

The ward-partition oracle enumerates every two-way assignment; the
leakage checks re-derive patient and time invariants from raw sets
rather than trusting the package's own verifier.
"""

import io
import json
import math
import time
from itertools import product

import numpy as np
import pytest

from fedvra.data import (
    DEFAULT_POSITIVE_RATE,
    DEFAULT_WARD_MIX,
    RecordTable,
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
    _parse_row,
    parse_ts,
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
from record_rows import record, table


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

ONE_INSTITUTION = {"A1": "A"}


def test_split_time_test_takes_latest():
    records = table([record(f"P{i}", "A1", hours=i) for i in range(10)])
    train_val, test = split_time_test(records, 0.2, ONE_INSTITUTION)
    assert test == [8, 9]
    assert train_val == list(range(8))


def test_split_time_test_all_equal_timestamps_uses_stable_order():
    records = table([record(f"P{i}", "A1", hours=0) for i in range(10)])
    train_val, test = split_time_test(records, 0.2, ONE_INSTITUTION)
    assert test == [8, 9]  # stable sort keeps input order on ties


def test_split_time_test_per_institution_counts():
    records = [record(f"P{i}", "A1", hours=i) for i in range(7)]
    records += [record(f"Q{i}", "A2V", hours=i) for i in range(5)]
    records = table(records)
    inst = {"A1": "B", "A2V": "A"}
    train_val, test = split_time_test(records, 0.25, inst)
    test_by_inst = {"A": 0, "B": 0}
    for i in test:
        test_by_inst[inst[records.ward[i]]] += 1
    assert test_by_inst == {"A": math.ceil(0.25 * 5), "B": math.ceil(0.25 * 7)}
    assert sorted(train_val + test) == list(range(12))


def test_split_time_test_rejects_bad_inputs():
    records = table([record("P1", "A1", hours=0)])
    with pytest.raises(ValueError):
        split_time_test(table([]), 0.2, ONE_INSTITUTION)
    with pytest.raises(ValueError):
        split_time_test(records, 0.0, ONE_INSTITUTION)
    with pytest.raises(ValueError):
        split_time_test(records, 1.0, ONE_INSTITUTION)
    with pytest.raises(ValueError):
        split_time_test(records, 0.2, {"other": "A"})


# ---------- overlap removal ----------


def test_remove_patient_overlap_disjoint():
    records = table([record("P1", "A1", 0), record("P2", "A1", 1), record("P3", "A1", 2)])
    pruned, dropped = remove_patient_overlap(records, [0, 1], [2])
    assert pruned == [0, 1] and dropped == []


def test_remove_patient_overlap_shared_patient():
    records = table([record("P1", "A1", 0), record("P1", "A1", 1), record("P2", "A1", 2), record("P1", "A1", 3)])
    pruned, dropped = remove_patient_overlap(records, [0, 1, 2], [3])
    assert pruned == [2] and dropped == [0, 1]


def test_remove_patient_overlap_randomized_oracle():
    rng = np.random.default_rng(32)
    for _ in range(20):
        n = int(rng.integers(5, 40))
        records = table([record(f"P{int(rng.integers(1, 8))}", "A1", hours=i) for i in range(n)])
        split_at = int(rng.integers(1, n))
        train_val, test = list(range(split_at)), list(range(split_at, n))
        pruned, dropped = remove_patient_overlap(records, train_val, test)
        pruned_patients = {records.patient_id[i] for i in pruned}
        test_patients = {records.patient_id[i] for i in test}
        assert pruned_patients & test_patients == set()
        assert sorted(pruned + dropped) == train_val


# ---------- folds ----------


def test_make_folds_one_patient_each():
    records = table([record(f"P{i}", "A1", hours=i) for i in range(5)])
    folds = make_folds(records, list(range(5)), k=5, seed=0)
    assert sorted(folds.values()) == [1, 2, 3, 4, 5]


def test_make_folds_keeps_patients_together():
    records = [record("P1", "A1", 0), record("P1", "A1", 1), record("P1", "A1", 2)]
    records = table(records + [record(f"Q{i}", "A1", 10 + i) for i in range(4)])
    folds = make_folds(records, list(range(7)), k=2, seed=1)
    assert len({folds[0], folds[1], folds[2]}) == 1


def test_make_folds_balanced_and_deterministic():
    rng = np.random.default_rng(33)
    records = []
    for p in range(40):
        for a in range(int(rng.integers(1, 4))):
            records.append(record(f"P{p}", "A1", hours=len(records)))
    records = table(records)
    ids = list(range(len(records)))
    folds = make_folds(records, ids, k=5, seed=7)
    assert folds == make_folds(records, ids, k=5, seed=7)
    assert set(folds) == set(ids)
    sizes = [sum(1 for f in folds.values() if f == fold) for fold in range(1, 6)]
    assert max(sizes) - min(sizes) <= 3  # largest patient has 3 records


def test_make_folds_requires_enough_patients():
    records = table([record("P1", "A1", 0), record("P1", "A1", 1)])
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
        fold_patients.setdefault(records.patient_id[i], set()).add(fold)
    assert all(len(f) == 1 for f in fold_patients.values())
    assert not set(fold_patients) & {records.patient_id[i] for i in test}

    # test records no earlier than any train/val record of their institution
    for inst in ("A", "B"):
        in_inst = lambda i: plan.institution_of_ward[records.ward[i]] == inst
        train_ts = [records.admission_ts[i] for i in folded if in_inst(i)]
        test_ts = [records.admission_ts[i] for i in test if in_inst(i)]
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


def test_verifier_catches_fold_numbers_outside_the_range():
    records = synthetic_records(seed=6)
    plan = make_split_plan(records, n_folds=5, seed=6)

    def renumbered(old, new):
        return SplitPlan(
            institution_of_ward=plan.institution_of_ward,
            test_ids=plan.test_ids,
            fold_of_record={i: new if f == old else f for i, f in plan.fold_of_record.items()},
            dropped_ids=plan.dropped_ids,
        )

    assert verify_split_plan(records, renumbered(1, 0)) == [
        "fold-range: fold numbers outside 1..5: [0]",
        "fold-range: folds of 1..5 that hold no records: [1]",
    ]
    assert verify_split_plan(records, renumbered(3, -2))[0] == "fold-range: fold numbers outside 1..5: [-2]"
    assert verify_split_plan(records, renumbered(5, 7)) == ["fold-range: folds of 1..7 that hold no records: [5, 6]"]
    assert verify_split_plan(records, renumbered(2, 1)) == ["fold-range: folds of 1..5 that hold no records: [2]"]
    assert verify_split_plan(records, renumbered(5, 5)) == []


def test_verifier_catches_patient_fold_overlap():
    records = synthetic_records(seed=7, admissions_per_patient=(2, 3))
    plan = make_split_plan(records, seed=7)
    by_patient = {}
    for i, fold in plan.fold_of_record.items():
        by_patient.setdefault(records.patient_id[i], []).append(i)
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
        key=lambda i: (records.admission_ts[i], inst[records.ward[i]] == "A"),
    )
    target = inst[records.ward[folded]]
    test_candidates = [
        i for i in plan.test_ids
        if inst[records.ward[i]] == target and records.admission_ts[i] > records.admission_ts[folded]
    ]
    early_test = min(test_candidates, key=lambda i: records.admission_ts[i])
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
    partial = {w: i for w, i in plan.institution_of_ward.items() if w != records.ward[0]}
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
    assert a.patient_id == b.patient_id and a.ward == b.ward
    assert np.array_equal(a.admission_ts, b.admission_ts) and np.array_equal(a.label, b.label)
    assert np.array_equal(a.features, b.features)


def test_generate_synthetic_counts_and_allocation():
    config = SynthConfig(n_patients=200, seed=1, positive_rate=0.25)
    records = generate_synthetic(config)
    assert 200 <= len(records) <= 600
    assert records.label.sum() == round(0.25 * len(records))
    assert set(records.ward) <= set(WARDS)
    assert records.features.shape == (len(records), INPUT_DIM)
    for ts in records.admission_ts.tolist():
        assert parse_ts(format_ts(ts)) == ts


def test_generate_synthetic_one_ward_per_patient():
    records = generate_synthetic(SynthConfig(n_patients=80, seed=2, admissions_per_patient=(2, 4)))
    wards_by_patient = {}
    for pid, ward in zip(records.patient_id, records.ward):
        wards_by_patient.setdefault(pid, set()).add(ward)
    assert all(len(w) == 1 for w in wards_by_patient.values())


def test_generate_synthetic_ward_proportions():
    # ~4280 records at 2 admissions per patient on average
    records = generate_synthetic(SynthConfig(n_patients=2140, seed=10))
    counts = ward_counts(records)
    for ward, want in DEFAULT_WARD_MIX.items():
        assert abs(counts[ward] / len(records) - want) <= 0.02, ward
    rate = records.label.sum() / len(records)
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
        assert not np.shares_memory(x, records.features)


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
    # Non-finite values are refused here, not later by the generator.
    with pytest.raises(ValueError, match="class_separation must be finite"):
        SynthConfig(n_patients=5, seed=1, class_separation=float("nan"))
    with pytest.raises(ValueError, match="ward_shift must be finite"):
        SynthConfig(n_patients=5, seed=1, ward_shift=float("inf"))
    with pytest.raises(ValueError, match="ward_mix proportions must be finite"):
        SynthConfig(n_patients=5, seed=1, ward_mix={"A1": float("nan"), "A3": 1.0})


# ---------- records and persistence ----------


def test_timestamps_are_utc_seconds():
    assert format_ts(0) == "1970-01-01T00:00:00Z"
    assert parse_ts("2019-05-01T12:30:15Z") == 1556713815
    assert format_ts(1556713815) == "2019-05-01T12:30:15Z"


def test_admission_record_validation():
    with pytest.raises(ValueError, match="patient_id"):
        table([record("", "A1", 0)])
    with pytest.raises(ValueError, match="ward"):
        table([record("P1", "", 0)])
    with pytest.raises(ValueError, match="length"):
        table([record("P1", "A1", 0, features=np.zeros(INPUT_DIM - 1))])
    with pytest.raises(ValueError, match="finite"):
        table([record("P1", "A1", 0, features=np.full(INPUT_DIM, np.nan))])
    with pytest.raises(ValueError, match="label"):
        table([record("P1", "A1", 0, label=2)])
    with pytest.raises(ValueError, match="label"):
        table([record("P1", "A1", 0, label=0.5)])
    with pytest.raises(ValueError, match="equal length"):
        RecordTable(("P1", "P2"), ("A1",), [0, 1], np.zeros((2, INPUT_DIM)), [0, 1])


def test_record_table_is_read_only_and_leaves_the_callers_arrays_alone():
    x, label = np.zeros((2, INPUT_DIM)), np.array([0, 1])
    records = RecordTable(["P1", "P2"], ["A1", "A1"], [0, 1], x, label)
    assert records.patient_id == ("P1", "P2") and len(records) == 2
    for column in (records.admission_ts, records.features, records.label):
        assert not column.flags.writeable
    assert records.admission_ts.dtype == records.label.dtype == np.int64
    assert x.flags.writeable and label.flags.writeable
    x[0, 0] = 5.0  # the table holds a copy of a writeable array
    assert records.features[0, 0] == 0.0


def sidecar_of(path):
    return path.with_name(path.name + ".npz")


def assert_same_records(expected, loaded):
    assert len(loaded) == len(expected)
    assert loaded.patient_id == expected.patient_id and loaded.ward == expected.ward
    assert np.array_equal(loaded.label, expected.label) and np.array_equal(loaded.admission_ts, expected.admission_ts)
    assert loaded.label.dtype == loaded.admission_ts.dtype == np.int64
    assert loaded.features.tobytes() == expected.features.tobytes()  # repr round-trips float64 exactly
    for column in (loaded.admission_ts, loaded.features, loaded.label):
        assert not column.flags.writeable


def rows(records, which) -> RecordTable:
    """The records of a slice of a table."""
    return RecordTable(
        records.patient_id[which], records.ward[which], records.admission_ts[which],
        records.features[which], records.label[which],
    )


@pytest.mark.parametrize("sidecar", ["present", "deleted"])
def test_records_round_trip(tmp_path, monkeypatch, sidecar):
    records = synthetic_records(n_patients=12, seed=13)
    path = tmp_path / "data.jsonl"
    save_records(path, records)
    assert sidecar_of(path).is_file()
    if sidecar == "present":
        # the sidecar path must not parse a single line
        monkeypatch.setattr("fedvra.data._parse_row", lambda line: pytest.fail("parsed a line"))
    else:
        sidecar_of(path).unlink()
    assert_same_records(records, load_records(path))
    assert not (sidecar == "deleted" and sidecar_of(path).exists())  # loading never writes one


def test_save_records_writes_the_same_sidecar_bytes_twice(tmp_path, monkeypatch):
    records = synthetic_records(n_patients=12, seed=13)
    one, two = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
    save_records(one, records)
    first = sidecar_of(one).read_bytes()
    later = time.time() + 86400 * 400
    monkeypatch.setattr(time, "time", lambda: later)  # a rerun on another day
    save_records(one, records)
    save_records(two, records)
    assert sidecar_of(one).read_bytes() == first == sidecar_of(two).read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["one.jsonl", "one.jsonl.npz", "two.jsonl", "two.jsonl.npz"]


def test_records_round_trip_without_any_record(tmp_path):
    path = tmp_path / "empty.jsonl"
    save_records(path, table([]))
    assert path.read_bytes() == b""
    assert_same_records(table([]), load_records(path))
    sidecar_of(path).unlink()
    assert_same_records(table([]), load_records(path))


def test_ids_ending_in_nul_are_never_cached(tmp_path):
    path = tmp_path / "data.jsonl"
    save_records(path, synthetic_records(n_patients=3, seed=13))
    assert sidecar_of(path).is_file()
    records = table([record("P1\0", "A1", 0), record("P2", "A2V\0", 1)])
    save_records(path, records)  # numpy strings would drop the NULs, so the old sidecar goes
    assert not sidecar_of(path).exists()
    assert_same_records(records, load_records(path))


def test_edited_file_outranks_its_stale_sidecar(tmp_path):
    records = synthetic_records(n_patients=12, seed=13)
    path = tmp_path / "data.jsonl"
    save_records(path, records)
    lines = path.read_text().splitlines()
    edited = json.loads(lines[0])
    edited["label"] = 1 - edited["label"]
    edited["ward"] = "EDITED"
    path.write_text("\n".join([json.dumps(edited)] + lines[1:-1]) + "\n")
    loaded = load_records(path)
    assert len(loaded) == len(records) - 1
    assert loaded.ward[0] == "EDITED" and loaded.label[0] == 1 - records.label[0]
    assert_same_records(rows(records, slice(1, -1)), rows(loaded, slice(1, None)))


@pytest.mark.parametrize(
    "damage",
    [
        lambda blob: blob[: len(blob) // 2],
        lambda blob: blob[:100],
        lambda blob: b"",
        lambda blob: b"not a zip file at all",
        lambda blob: blob.replace(b"P000001", b"P000009"),  # a zip entry whose CRC no longer matches
        lambda blob: npy_bytes(np.zeros(3)),  # a bare .npy array
        lambda blob: npy_bytes(np.array([{"a": 1}], dtype=object)),  # pickled objects are never loaded
    ],
    ids=["half", "head", "empty", "garbage", "crc", "npy", "pickle"],
)
def test_damaged_sidecar_falls_back_to_the_file(tmp_path, damage):
    records = synthetic_records(n_patients=12, seed=13)
    path = tmp_path / "data.jsonl"
    save_records(path, records)
    sidecar = sidecar_of(path)
    sidecar.write_bytes(damage(sidecar.read_bytes()))
    assert_same_records(records, load_records(path))


def npy_bytes(array):
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


@pytest.mark.parametrize(
    "change",
    [
        lambda a: dict(features=a["features"][:-1]),  # the count no longer matches the rows
        lambda a: dict(features=a["features"].astype(np.float32)),
        lambda a: dict(features=np.asfortranarray(a["features"])),
        lambda a: dict(features=None),  # a missing array
        lambda a: dict(label=a["label"].astype(np.float64)),
        lambda a: dict(count=a["count"] + 1),
        lambda a: dict(ward=None),
    ],
    ids=["short_features", "float32_features", "fortran_features", "missing_features", "float_labels",
         "wrong_count", "missing_ward"],
)
def test_sidecar_with_the_wrong_layout_is_ignored(tmp_path, monkeypatch, change):
    records = synthetic_records(n_patients=12, seed=13)
    path = tmp_path / "data.jsonl"
    save_records(path, records)
    with np.load(sidecar_of(path)) as npz:
        arrays = {name: npz[name] for name in npz.files}
    arrays.update(change(arrays))
    np.savez(sidecar_of(path), **{name: a for name, a in arrays.items() if a is not None})
    parsed = []
    monkeypatch.setattr("fedvra.data._parse_row", lambda line: parsed.append(line) or _parse_row(line))
    assert_same_records(records, load_records(path))
    assert len(parsed) == len(records)  # every line was parsed


def test_sidecar_resaved_by_numpy_is_still_used(tmp_path, monkeypatch):
    records = synthetic_records(n_patients=12, seed=13)
    path = tmp_path / "data.jsonl"
    save_records(path, records)
    with np.load(sidecar_of(path)) as npz:
        np.savez(sidecar_of(path), **{name: npz[name] for name in npz.files})
    monkeypatch.setattr("fedvra.data._parse_row", lambda line: pytest.fail("parsed a line"))
    assert_same_records(records, load_records(path))


def test_malformed_line_is_reported_beside_a_foreign_sidecar(tmp_path):
    records = synthetic_records(n_patients=12, seed=13)
    other = tmp_path / "other.jsonl"
    save_records(other, records)
    path = tmp_path / "data.jsonl"
    lines = other.read_text().splitlines()
    path.write_text("\n".join(lines[:2] + ['{"patient_id": "P2"}'] + lines[3:]) + "\n")
    other.with_name("data.jsonl.npz").write_bytes(sidecar_of(other).read_bytes())
    with pytest.raises(ValueError, match=r"data\.jsonl: bad record on line 3"):
        load_records(path)


def test_record_dict_round_trip(tmp_path):
    records = table([record("P9", "A2V", 5, label=1, features=np.linspace(-1, 1, INPUT_DIM))])
    path = tmp_path / "one.jsonl"
    save_records(path, records)
    sidecar_of(path).unlink()  # through the JSON line
    again = load_records(path)
    assert np.array_equal(records.features, again.features)
    assert np.array_equal(records.admission_ts, again.admission_ts)


def test_load_records_reports_bad_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = {"patient_id": "P1", "ward": "A1", "admission_ts": "2019-03-01T00:00:00Z", "features": [0.0] * INPUT_DIM,
            "label": 0}
    bad_lines = [
        {"patient_id": "P2"},
        [good["patient_id"], good["ward"]],
        {**good, "admission_ts": 5},
        {**good, "admission_ts": "yesterday"},
        {**good, "ward": ["x"]},
        {**good, "patient_id": 7},
        {**good, "patient_id": ""},
        {**good, "features": good["features"][:-1]},
        {**good, "features": [float("nan")] * INPUT_DIM},
        {**good, "features": "zeros"},
        {**good, "label": 2},
        {**good, "label": [0]},
    ]
    for bad in bad_lines:
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(ValueError, match="line 2"):
            load_records(path)
    path.write_bytes((json.dumps(good) + "\n").encode() + b'{"patient_id": "P\xff"}\n')  # not UTF-8
    with pytest.raises(ValueError, match=r"bad\.jsonl: bad record on line 2: 'utf-8' codec can't decode"):
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
