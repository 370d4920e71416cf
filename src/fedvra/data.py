"""Admission records, leakage-safe splitting, and a synthetic generator.

Records are grouped two ways: by ward (which determines the owning
institution) and by patient (the leakage unit). A split plan carves a
dataset into a time-ordered test set, five patient-grouped
cross-validation folds, and a dropped set (train/val records of
patients that also appear in the test set). All invariants are checked
by an independent verifier.
"""

from __future__ import annotations

import json
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from itertools import combinations
from pathlib import Path

import numpy as np

from .errors import SplitInvariantError
from .network import INPUT_DIM as FEATURE_DIM
from .seeds import make_rng

WARDS = ("A1", "A3", "A2V", "A2J")
INSTITUTION_A = "A"
INSTITUTION_B = "B"

# defaults keep the synthetic ward sizes and prevalence in realistic
# proportion: 759/826/1877/818 admissions, 425 positives of 4280
DEFAULT_WARD_MIX = {
    "A1": 759 / 4280,
    "A3": 826 / 4280,
    "A2V": 1877 / 4280,
    "A2J": 818 / 4280,
}
DEFAULT_POSITIVE_RATE = 425 / 4280

_TS_FORMAT = "%Y-%m-%dT%H:%M:%SZ"
_WINDOW_START = datetime(2018, 1, 1, tzinfo=timezone.utc)
_WINDOW_SECONDS = 2 * 365 * 24 * 3600  # two-year admission window


def format_ts(ts: datetime) -> str:
    return ts.astimezone(timezone.utc).strftime(_TS_FORMAT)


def parse_ts(text: str) -> datetime:
    return datetime.strptime(text, _TS_FORMAT).replace(tzinfo=timezone.utc)


@dataclass(frozen=True, eq=False)
class AdmissionRecord:
    """One admission: who, where, when, the feature vector, and the label."""

    patient_id: str
    ward: str
    admission_ts: datetime
    features: np.ndarray
    label: int

    def __post_init__(self):
        if not isinstance(self.patient_id, str) or not self.patient_id:
            raise ValueError("patient_id must be a non-empty string")
        if not isinstance(self.ward, str) or not self.ward:
            raise ValueError("ward must be a non-empty string")
        ts = self.admission_ts
        if ts.tzinfo is None:
            ts = ts.replace(tzinfo=timezone.utc)
        else:
            ts = ts.astimezone(timezone.utc)
        ts = ts.replace(microsecond=0)  # second resolution
        x = np.asarray(self.features, dtype=np.float64)
        if x.shape != (FEATURE_DIM,):
            raise ValueError(f"features must be a vector of length {FEATURE_DIM}")
        if not np.isfinite(x).all():
            raise ValueError("features must be finite")
        x = x.copy()
        x.setflags(write=False)
        if self.label not in (0, 1):
            raise ValueError("label must be 0 or 1")
        object.__setattr__(self, "admission_ts", ts)
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "label", int(self.label))


@dataclass(frozen=True)
class SplitPlan:
    """Institution map plus the test / fold / dropped partition of a dataset."""

    institution_of_ward: dict[str, str]
    test_ids: tuple[int, ...]
    fold_of_record: dict[int, int]
    dropped_ids: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "test_ids", tuple(sorted(int(i) for i in self.test_ids)))
        object.__setattr__(self, "dropped_ids", tuple(sorted(int(i) for i in self.dropped_ids)))
        object.__setattr__(
            self, "fold_of_record", {int(k): int(v) for k, v in self.fold_of_record.items()}
        )

    @property
    def n_folds(self) -> int:
        return max(self.fold_of_record.values(), default=0)

    def fold_ids(self, fold: int) -> list[int]:
        return sorted(i for i, f in self.fold_of_record.items() if f == fold)


@dataclass(frozen=True)
class SynthConfig:
    """Settings for the synthetic dataset generator.

    Features are class-conditional Gaussians: standard normal noise plus
    label * class_separation along a fixed unit direction, plus
    ward_shift along a fixed per-ward unit direction (identity
    covariance). Each patient keeps one ward for all admissions.
    """

    n_patients: int
    seed: int
    admissions_per_patient: tuple[int, int] = (1, 3)
    ward_mix: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_WARD_MIX))
    positive_rate: float = DEFAULT_POSITIVE_RATE
    class_separation: float = 1.0
    ward_shift: float = 0.5

    def __post_init__(self):
        if self.n_patients < 1:
            raise ValueError("n_patients must be at least 1")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        lo, hi = self.admissions_per_patient
        if lo < 1 or hi < lo:
            raise ValueError("admissions_per_patient must be a range (lo, hi) with 1 <= lo <= hi")
        if not self.ward_mix:
            raise ValueError("ward_mix must not be empty")
        probs = np.array(list(self.ward_mix.values()), dtype=np.float64)
        if (probs < 0).any() or abs(probs.sum() - 1.0) > 1e-9:
            raise ValueError("ward_mix proportions must be non-negative and sum to 1")
        if not (0.0 <= self.positive_rate <= 1.0):
            raise ValueError("positive_rate must lie in [0, 1]")
        if self.class_separation < 0 or self.ward_shift < 0:
            raise ValueError("class_separation and ward_shift must be non-negative")


def ward_counts(records: list[AdmissionRecord]) -> dict[str, int]:
    return dict(Counter(r.ward for r in records))


def assign_institutions(counts: dict[str, int]) -> dict[str, str]:
    """Two-way ward partition minimising the absolute record-count difference.

    All nonempty proper subsets are enumerated as candidates for
    institution A; ties are broken toward the smaller subset, then the
    lexicographically smallest ward tuple.
    """
    wards = sorted(counts)
    if sum(1 for w in wards if counts[w] > 0) < 2:
        raise ValueError("need at least two wards with nonzero counts")
    total = sum(counts.values())
    best_key = None
    best_set: tuple[str, ...] = ()
    for size in range(1, len(wards)):
        for subset in combinations(wards, size):
            side_a = sum(counts[w] for w in subset)
            key = (abs(total - 2 * side_a), len(subset), subset)
            if best_key is None or key < best_key:
                best_key = key
                best_set = subset
    chosen = set(best_set)
    return {w: (INSTITUTION_A if w in chosen else INSTITUTION_B) for w in wards}


def split_time_test(
    records: list[AdmissionRecord],
    test_fraction: float,
    institution_of_ward: dict[str, str] | None = None,
) -> tuple[list[int], list[int]]:
    """Latest ceil(fraction * n) records per institution become the test set.

    Timestamp ties are resolved by stable record order. With no
    institution map the whole dataset is treated as one pool.
    """
    if not records:
        raise ValueError("records must not be empty")
    if not (0.0 < test_fraction < 1.0):
        raise ValueError("test_fraction must lie strictly between 0 and 1")
    groups: dict[str, list[int]] = defaultdict(list)
    for i, rec in enumerate(records):
        if institution_of_ward is None:
            groups["ALL"].append(i)
        else:
            if rec.ward not in institution_of_ward:
                raise ValueError(f"record {i} has ward {rec.ward!r} missing from the institution map")
            groups[institution_of_ward[rec.ward]].append(i)
    train_val: list[int] = []
    test: list[int] = []
    for name in sorted(groups):
        idxs = groups[name]
        n_test = math.ceil(test_fraction * len(idxs))
        by_time = sorted(idxs, key=lambda i: records[i].admission_ts)  # stable
        test.extend(by_time[len(idxs) - n_test :])
        train_val.extend(by_time[: len(idxs) - n_test])
    return sorted(train_val), sorted(test)


def remove_patient_overlap(
    records: list[AdmissionRecord], train_val: list[int], test: list[int]
) -> tuple[list[int], list[int]]:
    """Drop train/val records of patients that also appear in the test set."""
    test_patients = {records[i].patient_id for i in test}
    pruned = [i for i in train_val if records[i].patient_id not in test_patients]
    dropped = [i for i in train_val if records[i].patient_id in test_patients]
    return pruned, dropped


def make_folds(
    records: list[AdmissionRecord], train_val: list[int], k: int = 5, seed: int = 0
) -> dict[int, int]:
    """Patient-grouped folds 1..k balanced by record count.

    Patients are shuffled deterministically, then placed largest-first
    into the currently smallest fold, so all records of a patient share
    one fold.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    by_patient: dict[str, list[int]] = defaultdict(list)
    for i in train_val:
        by_patient[records[i].patient_id].append(i)
    if len(by_patient) < k:
        raise ValueError(f"need at least {k} distinct patients, got {len(by_patient)}")
    pids = sorted(by_patient)
    rng = make_rng(seed, "folds")
    shuffled = [pids[j] for j in rng.permutation(len(pids))]
    ordered = sorted(shuffled, key=lambda pid: -len(by_patient[pid]))  # stable
    fold_sizes = [0] * k
    assignment: dict[int, int] = {}
    for pid in ordered:
        fold = min(range(k), key=lambda f: (fold_sizes[f], f))
        fold_sizes[fold] += len(by_patient[pid])
        for i in by_patient[pid]:
            assignment[i] = fold + 1
    return assignment


def make_split_plan(
    records: list[AdmissionRecord],
    test_fraction: float = 0.2,
    n_folds: int = 5,
    seed: int = 0,
) -> SplitPlan:
    """Full pipeline: institutions, time-based test split, overlap removal, folds."""
    institution_map = assign_institutions(ward_counts(records))
    train_val, test = split_time_test(records, test_fraction, institution_map)
    pruned, dropped = remove_patient_overlap(records, train_val, test)
    folds = make_folds(records, pruned, n_folds, seed)
    return SplitPlan(
        institution_of_ward=institution_map,
        test_ids=tuple(test),
        fold_of_record=folds,
        dropped_ids=tuple(dropped),
    )


def verify_split_plan(records: list[AdmissionRecord], plan: SplitPlan) -> list[str]:
    """Independent invariant check; returns a list of violation messages."""
    violations: list[str] = []
    n = len(records)
    folded = set(plan.fold_of_record)
    test = set(plan.test_ids)
    dropped = set(plan.dropped_ids)

    all_ids = folded | test | dropped
    if folded & test or folded & dropped or test & dropped:
        violations.append("partition: fold, test, and dropped sets overlap")
    if all_ids != set(range(n)):
        violations.append("partition: fold, test, and dropped sets do not cover the dataset exactly")

    for i in range(n):
        if records[i].ward not in plan.institution_of_ward:
            violations.append(f"institution-map: ward {records[i].ward!r} of record {i} is unmapped")
            break

    patient_folds: dict[str, set[int]] = defaultdict(set)
    for i, fold in plan.fold_of_record.items():
        if 0 <= i < n:
            patient_folds[records[i].patient_id].add(fold)
    spread = sorted(pid for pid, folds in patient_folds.items() if len(folds) > 1)
    if spread:
        violations.append(f"patient-fold-overlap: patients in multiple folds: {spread[:5]}")

    test_patients = {records[i].patient_id for i in test if 0 <= i < n}
    leaked = sorted(pid for pid in patient_folds if pid in test_patients)
    if leaked:
        violations.append(f"patient-test-overlap: patients in both folds and test: {leaked[:5]}")

    def extreme_ts(ids, pick) -> dict[str, datetime]:
        """pick (min or max) of the admission times per institution."""
        out: dict[str, datetime] = {}
        for i in ids:
            inst = plan.institution_of_ward.get(records[i].ward) if 0 <= i < n else None
            if inst is not None:  # an unmapped ward is already an institution-map violation
                ts = records[i].admission_ts
                out[inst] = pick(out.get(inst, ts), ts)
        return out

    latest_train = extreme_ts(folded, max)
    earliest_test = extreme_ts(test, min)
    for inst, latest in sorted(latest_train.items()):
        if inst in earliest_test and earliest_test[inst] < latest:
            violations.append(f"test-time-order: institution {inst} has a test record earlier than a train/val record")

    return violations


def check_split_plan(records: list[AdmissionRecord], plan: SplitPlan) -> None:
    """Raise SplitInvariantError if the plan violates any invariant."""
    violations = verify_split_plan(records, plan)
    if violations:
        raise SplitInvariantError("; ".join(violations))


def _unit_direction(tag: str) -> np.ndarray:
    """Fixed unit vector; the same tag always yields the same direction."""
    g = make_rng("fedvra-direction", tag)
    v = g.standard_normal(FEATURE_DIM)
    return v / np.linalg.norm(v)


def label_direction() -> np.ndarray:
    return _unit_direction("label")


def ward_direction(ward: str) -> np.ndarray:
    return _unit_direction("ward:" + ward)


def generate_synthetic(config: SynthConfig) -> list[AdmissionRecord]:
    """Deterministic synthetic dataset per the config.

    The positive count is allocated exactly (round(rate * n) records,
    chosen by a seeded permutation), so the empirical rate matches the
    configured one to within half a record.
    """
    rng = make_rng(config.seed, "synthetic")
    wards = list(config.ward_mix)
    probs = np.array([config.ward_mix[w] for w in wards], dtype=np.float64)
    probs = probs / probs.sum()
    lo, hi = config.admissions_per_patient

    patient_wards = rng.choice(len(wards), size=config.n_patients, p=probs)
    n_admissions = rng.integers(lo, hi + 1, size=config.n_patients)
    total = int(n_admissions.sum())

    labels = np.zeros(total, dtype=np.int64)
    n_pos = int(round(config.positive_rate * total))
    labels[rng.permutation(total)[:n_pos]] = 1

    offsets = rng.integers(0, _WINDOW_SECONDS, size=total)
    noise = rng.standard_normal((total, FEATURE_DIM))

    u = label_direction()
    ward_dirs = {w: ward_direction(w) for w in wards}

    records: list[AdmissionRecord] = []
    row = 0
    for p in range(config.n_patients):
        ward = wards[int(patient_wards[p])]
        pid = f"P{p + 1:06d}"
        for _ in range(int(n_admissions[p])):
            x = (
                noise[row]
                + config.class_separation * labels[row] * u
                + config.ward_shift * ward_dirs[ward]
            )
            records.append(
                AdmissionRecord(
                    patient_id=pid,
                    ward=ward,
                    admission_ts=_WINDOW_START + timedelta(seconds=int(offsets[row])),
                    features=x,
                    label=int(labels[row]),
                )
            )
            row += 1
    return records


def features_matrix(records: list[AdmissionRecord], indices) -> tuple[np.ndarray, np.ndarray]:
    """Stack features and labels for the given record indices.

    Both arrays are fresh and read-only, so a Silo adopts them as they are.
    """
    idx = list(indices)
    if not idx:
        x, y = np.zeros((0, FEATURE_DIM)), np.zeros(0)
    else:
        x = np.stack([records[i].features for i in idx])
        y = np.array([records[i].label for i in idx], dtype=np.float64)
    x.setflags(write=False)
    y.setflags(write=False)
    return x, y


def record_to_dict(record: AdmissionRecord) -> dict:
    return {
        "patient_id": record.patient_id,
        "ward": record.ward,
        "admission_ts": format_ts(record.admission_ts),
        "features": record.features.tolist(),
        "label": record.label,
    }


def record_from_dict(data: dict) -> AdmissionRecord:
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    if not isinstance(data["admission_ts"], str):
        raise ValueError(f"admission_ts must be a string like 2019-03-01T00:00:00Z, got {data['admission_ts']!r}")
    return AdmissionRecord(
        patient_id=data["patient_id"],
        ward=data["ward"],
        admission_ts=parse_ts(data["admission_ts"]),
        features=data["features"],
        label=data["label"],
    )


def save_records(path, records: list[AdmissionRecord]) -> None:
    """One JSON object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(record_to_dict(rec)) + "\n")


def load_records(path) -> list[AdmissionRecord]:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(record_from_dict(json.loads(line)))
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}: bad record on line {line_no}: {exc}") from exc
    return records


def save_split_plan(path, plan: SplitPlan) -> None:
    data = {
        "institution_of_ward": plan.institution_of_ward,
        "test_ids": list(plan.test_ids),
        "fold_of_record": {str(i): f for i, f in sorted(plan.fold_of_record.items())},
        "dropped_ids": list(plan.dropped_ids),
    }
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


SPLIT_PLAN_KEYS = {"institution_of_ward": dict, "test_ids": list, "fold_of_record": dict, "dropped_ids": list}


def load_split_plan(path) -> SplitPlan:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError(f"split plan {path} must be a JSON object, got {type(data).__name__}")
    missing = [key for key in SPLIT_PLAN_KEYS if key not in data]
    if missing:
        raise ValueError(f"split plan {path} is missing key(s): {', '.join(missing)}")
    for key, kind in SPLIT_PLAN_KEYS.items():
        if not isinstance(data[key], kind):
            expected = "an object" if kind is dict else "an array"
            raise ValueError(f"split plan {path}: {key} must be {expected}, got {type(data[key]).__name__}")
    if any(inst not in (INSTITUTION_A, INSTITUTION_B) for inst in data["institution_of_ward"].values()):
        raise ValueError(
            f"split plan {path}: institution_of_ward must map every ward to {INSTITUTION_A!r} or {INSTITUTION_B!r}"
        )
    try:
        return SplitPlan(**{key: data[key] for key in SPLIT_PLAN_KEYS})
    except (TypeError, ValueError) as exc:
        raise ValueError(
            f"split plan {path}: test_ids, fold_of_record and dropped_ids must hold integers ({exc})"
        ) from None
