"""Admission records, leakage-safe splitting, and a synthetic generator.

A dataset is one RecordTable: a validated column per record field.
Records are grouped two ways: by ward (which determines the owning
institution) and by patient (the leakage unit). A split plan carves a
dataset into a time-ordered test set, five patient-grouped
cross-validation folds, and a dropped set (train/val records of
patients that also appear in the test set). All invariants are checked
by an independent verifier.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
import time
import zipfile
import zlib
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from datetime import datetime, timezone
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
_WINDOW_START = int(datetime(2018, 1, 1, tzinfo=timezone.utc).timestamp())  # seconds since 1970-01-01 UTC
_WINDOW_SECONDS = 2 * 365 * 24 * 3600  # two-year admission window


def format_ts(seconds: int) -> str:
    """Seconds since 1970-01-01 UTC as text like 2019-03-01T00:00:00Z."""
    return time.strftime(_TS_FORMAT, time.gmtime(seconds))


def parse_ts(text: str) -> int:
    return int(datetime.strptime(text, _TS_FORMAT).replace(tzinfo=timezone.utc).timestamp())


@dataclass(frozen=True, eq=False)
class RecordTable:
    """Admission records as columns: row i of every column is record i.

    patient_id and ward are tuples of non-empty Python strings (numpy's
    fixed-width strings drop trailing NULs). admission_ts holds seconds
    since 1970-01-01 UTC and label 0 or 1, both int64; features is one
    finite float64 row of FEATURE_DIM values per record. The arrays are
    read-only: the table adopts a read-only array of the right dtype and
    copies anything else.
    """

    patient_id: tuple[str, ...]
    ward: tuple[str, ...]
    admission_ts: np.ndarray
    features: np.ndarray
    label: np.ndarray

    def __post_init__(self):
        ids, wards = tuple(self.patient_id), tuple(self.ward)
        ts, x = _column(self.admission_ts, np.int64), _column(self.features, np.float64)
        _check_rows(ids, wards, ts, x, np.asarray(self.label))
        label = _column(self.label, np.int64)
        for name, value in zip(_COLUMNS, (ids, wards, ts, x, label)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.patient_id)


_COLUMNS = ("patient_id", "ward", "admission_ts", "features", "label")


def _column(values, dtype) -> np.ndarray:
    """values as a read-only array of dtype; a writeable array is copied,
    so its owner cannot change the table."""
    arr = np.asarray(values, dtype=dtype)
    if arr is values and arr.flags.writeable:
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


def _check_rows(patient_id, ward, admission_ts: np.ndarray, features: np.ndarray, label: np.ndarray) -> None:
    """The rules every record meets; raises ValueError for the first one broken."""
    for name, column in (("patient_id", patient_id), ("ward", ward)):
        if not all(isinstance(s, str) and s for s in column):
            raise ValueError(f"{name} must be a non-empty string")
    if features.ndim != 2 or features.shape[1] != FEATURE_DIM:
        raise ValueError(f"features must be vectors of length {FEATURE_DIM}")
    if not np.isfinite(features).all():
        raise ValueError("features must be finite")
    if label.ndim != 1 or not ((label == 0) | (label == 1)).all():
        raise ValueError("label must be 0 or 1")
    if admission_ts.ndim != 1 or not len(patient_id) == len(ward) == len(admission_ts) == len(features) == len(label):
        raise ValueError("columns must be vectors of equal length")


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
        if not (np.isfinite(probs).all() and (probs >= 0).all() and abs(probs.sum() - 1.0) <= 1e-9):
            raise ValueError("ward_mix proportions must be finite, non-negative and sum to 1")
        if not (0.0 <= self.positive_rate <= 1.0):
            raise ValueError("positive_rate must lie in [0, 1]")
        for name in ("class_separation", "ward_shift"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative")


def ward_counts(records: RecordTable) -> dict[str, int]:
    return dict(Counter(records.ward))


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
    records: RecordTable,
    test_fraction: float,
    institution_of_ward: dict[str, str],
) -> tuple[list[int], list[int]]:
    """Latest ceil(fraction * n) records per institution become the test set.

    Timestamp ties are resolved by stable record order.
    """
    if not len(records):
        raise ValueError("records must not be empty")
    if not (0.0 < test_fraction < 1.0):
        raise ValueError("test_fraction must lie strictly between 0 and 1")
    groups: dict[str, list[int]] = defaultdict(list)
    for i, ward in enumerate(records.ward):
        if ward not in institution_of_ward:
            raise ValueError(f"record {i} has ward {ward!r} missing from the institution map")
        groups[institution_of_ward[ward]].append(i)
    times = records.admission_ts.tolist()
    train_val: list[int] = []
    test: list[int] = []
    for name in sorted(groups):
        idxs = groups[name]
        n_test = math.ceil(test_fraction * len(idxs))
        by_time = sorted(idxs, key=times.__getitem__)  # stable
        test.extend(by_time[len(idxs) - n_test :])
        train_val.extend(by_time[: len(idxs) - n_test])
    return sorted(train_val), sorted(test)


def remove_patient_overlap(
    records: RecordTable, train_val: list[int], test: list[int]
) -> tuple[list[int], list[int]]:
    """Drop train/val records of patients that also appear in the test set."""
    pid = records.patient_id
    test_patients = {pid[i] for i in test}
    pruned = [i for i in train_val if pid[i] not in test_patients]
    dropped = [i for i in train_val if pid[i] in test_patients]
    return pruned, dropped


def make_folds(
    records: RecordTable, train_val: list[int], k: int = 5, seed: int = 0
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
        by_patient[records.patient_id[i]].append(i)
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
    records: RecordTable,
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


def verify_split_plan(records: RecordTable, plan: SplitPlan) -> list[str]:
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

    k = plan.n_folds
    fold_numbers = set(plan.fold_of_record.values())
    outside = sorted(f for f in fold_numbers if not 1 <= f <= k)
    if outside:
        violations.append(f"fold-range: fold numbers outside 1..{k}: {outside[:5]}")
    empty = sorted(set(range(1, k + 1)) - fold_numbers)
    if empty:
        violations.append(f"fold-range: folds of 1..{k} that hold no records: {empty[:5]}")

    for i, ward in enumerate(records.ward):
        if ward not in plan.institution_of_ward:
            violations.append(f"institution-map: ward {ward!r} of record {i} is unmapped")
            break

    pid = records.patient_id
    patient_folds: dict[str, set[int]] = defaultdict(set)
    for i, fold in plan.fold_of_record.items():
        if 0 <= i < n:
            patient_folds[pid[i]].add(fold)
    spread = sorted(pid for pid, folds in patient_folds.items() if len(folds) > 1)
    if spread:
        violations.append(f"patient-fold-overlap: patients in multiple folds: {spread[:5]}")

    test_patients = {pid[i] for i in test if 0 <= i < n}
    leaked = sorted(pid for pid in patient_folds if pid in test_patients)
    if leaked:
        violations.append(f"patient-test-overlap: patients in both folds and test: {leaked[:5]}")

    times = records.admission_ts.tolist()

    def extreme_ts(ids, pick) -> dict[str, int]:
        """pick (min or max) of the admission times per institution."""
        out: dict[str, int] = {}
        for i in ids:
            inst = plan.institution_of_ward.get(records.ward[i]) if 0 <= i < n else None
            if inst is not None:  # an unmapped ward is already an institution-map violation
                ts = times[i]
                out[inst] = pick(out.get(inst, ts), ts)
        return out

    latest_train = extreme_ts(folded, max)
    earliest_test = extreme_ts(test, min)
    for inst, latest in sorted(latest_train.items()):
        if inst in earliest_test and earliest_test[inst] < latest:
            violations.append(f"test-time-order: institution {inst} has a test record earlier than a train/val record")

    return violations


def check_split_plan(records: RecordTable, plan: SplitPlan) -> None:
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


def generate_synthetic(config: SynthConfig) -> RecordTable:
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

    ward_dirs = np.stack([ward_direction(w) for w in wards])
    row_ward = np.repeat(patient_wards, n_admissions)
    # noise + separation * label * u + shift * ward direction, summed in
    # place: one (total, FEATURE_DIM) temporary at a time keeps synth's
    # peak RSS below the run stage's
    features = noise
    features += (config.class_separation * labels)[:, None] * label_direction()
    features += (config.ward_shift * ward_dirs)[row_ward]
    timestamps = _WINDOW_START + offsets
    for column in (timestamps, features, labels):
        column.setflags(write=False)  # fresh, so the table adopts them
    patients = np.repeat(np.arange(1, config.n_patients + 1), n_admissions)
    return RecordTable(
        patient_id=tuple(f"P{p:06d}" for p in patients.tolist()),
        ward=tuple(wards[w] for w in row_ward.tolist()),
        admission_ts=timestamps,
        features=features,
        label=labels,
    )


def features_matrix(records: RecordTable, indices) -> tuple[np.ndarray, np.ndarray]:
    """Features and labels (as float64) of the given record indices.

    Both arrays are fresh and read-only, so a Silo adopts them as they are.
    """
    idx = np.fromiter(indices, dtype=np.intp)
    x, y = records.features[idx], records.label[idx].astype(np.float64)
    x.setflags(write=False)
    y.setflags(write=False)
    return x, y


def save_records(path, records: RecordTable) -> None:
    """One JSON object per line, then the sidecar `<path>.npz` that lets
    load_records skip the parse (see load_records)."""
    digest = hashlib.sha256()
    rows = zip(records.patient_id, records.ward, records.admission_ts.tolist(), records.features, records.label.tolist())
    with open(path, "wb") as fh:
        for pid, ward, ts, x, label in rows:
            row = dict(zip(_COLUMNS, (pid, ward, format_ts(ts), x.tolist(), label)))
            line = (json.dumps(row) + "\n").encode("utf-8")
            fh.write(line)
            digest.update(line)
    _write_sidecar(path, records, digest.hexdigest())


def load_records(path) -> RecordTable:
    """Records of a JSON-lines file.

    The file is the source of truth. When its sidecar `<path>.npz` holds
    the SHA-256 of the file's current bytes, the table is built from the
    sidecar's arrays instead of parsing every line; a missing, stale,
    truncated or foreign sidecar is ignored. Either way RecordTable
    checks every record. Loading never writes a sidecar.
    """
    cached = _records_from_sidecar(path)
    if cached is not None:
        return cached
    columns = tuple([] for _ in _COLUMNS)
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if line:
                    for column, value in zip(columns, _parse_row(line)):
                        column.append(value)
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}: bad record on line {line_no}: {exc}") from exc
    ids, wards, times, features, labels = columns
    return RecordTable(ids, wards, times, features or np.zeros((0, FEATURE_DIM)), labels)


def _parse_row(line: str) -> tuple:
    """One JSON line as a row of the table's columns, checked by the
    table's rules so a bad line can be named."""
    data = json.loads(line)
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    pid, ward, ts, x, label = (data[name] for name in _COLUMNS)
    if not isinstance(ts, str):
        raise ValueError(f"admission_ts must be a string like 2019-03-01T00:00:00Z, got {ts!r}")
    ts, x = parse_ts(ts), np.asarray(x, dtype=np.float64)
    _check_rows((pid,), (ward,), np.array([ts]), x[None], np.array([label]))
    return pid, ward, ts, x, label


# The sidecar is an uncompressed .npz of these arrays, by name, with
# their dtype kind, item size and shape (-1 is the record count). Its
# zip entries carry a fixed time, so rewriting the same records gives
# the same bytes.
_SIDECAR_LAYOUT = {
    "digest": ("U", None, ()),
    "count": ("i", 8, ()),
    "patient_id": ("U", None, (-1,)),
    "ward": ("U", None, (-1,)),
    "admission_ts": ("i", 8, (-1,)),  # seconds since 1970-01-01 UTC
    "label": ("i", 8, (-1,)),
    "features": ("f", 8, (-1, FEATURE_DIM)),
}
_ZIP_TIME = (1980, 1, 1, 0, 0, 0)
# what opening the sidecar and reading its arrays raise when it is missing, damaged or foreign
# (KeyError: a missing array; ValueError also: arrays the table rejects)
_SIDECAR_READ_ERRORS = (OSError, ValueError, EOFError, KeyError, NotImplementedError, zipfile.BadZipFile, zlib.error)
_HASH_BLOCK = 1 << 20


def _sidecar_path(path) -> Path:
    return Path(os.fspath(path) + ".npz")


def _sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(_HASH_BLOCK):
            digest.update(block)
    return digest.hexdigest()


def _write_sidecar(path, records: RecordTable, digest: str) -> None:
    """Write `<path>.npz` through a temporary file and os.replace, so a
    reader never sees half a sidecar."""
    sidecar = _sidecar_path(path)
    if any(s.endswith("\0") for s in records.patient_id + records.ward):
        # fixed-width numpy strings drop trailing NULs; such files always parse
        sidecar.unlink(missing_ok=True)
        return
    arrays = {
        "digest": np.array(digest),
        "count": np.array(len(records), dtype=np.int64),
        "patient_id": np.array(records.patient_id, dtype=str),
        "ward": np.array(records.ward, dtype=str),
        "admission_ts": records.admission_ts,
        "label": records.label,
        "features": records.features,
    }
    fd, tmp = tempfile.mkstemp(prefix=sidecar.name + ".", suffix=".tmp", dir=sidecar.parent)
    try:
        with os.fdopen(fd, "wb") as fh, zipfile.ZipFile(fh, "w") as zf:
            for name, array in arrays.items():
                with zf.open(zipfile.ZipInfo(name + ".npy", _ZIP_TIME), "w", force_zip64=True) as out:
                    np.lib.format.write_array(out, array, allow_pickle=False)
        os.replace(tmp, sidecar)
    except BaseException:
        os.unlink(tmp)
        raise


def _records_from_sidecar(path) -> RecordTable | None:
    """The records of `<path>.npz` if it was written for the file's
    current bytes, else None."""
    try:
        # opened here, not by np.load, which leaks its handle when the zip is truncated
        with open(_sidecar_path(path), "rb") as fh:
            npz = np.load(fh, allow_pickle=False)
            if not isinstance(npz, np.lib.npyio.NpzFile):  # a bare .npy array
                return None
            with npz:
                if str(npz["digest"]) != _sha256_file(path):  # stale: its arrays are never read
                    return None
                arrays = {name: npz[name] for name in _SIDECAR_LAYOUT}
        n = arrays["label"].size
        if not _layout_ok(arrays, n) or int(arrays["count"]) != n:
            return None
        numeric = {name: arrays[name] for name in ("admission_ts", "features", "label")}
        for array in numeric.values():
            array.setflags(write=False)  # fresh, so the table adopts them
        return RecordTable(tuple(arrays["patient_id"].tolist()), tuple(arrays["ward"].tolist()), **numeric)
    except _SIDECAR_READ_ERRORS:  # no sidecar, or a damaged or foreign one: parse the file
        return None


def _layout_ok(arrays: dict[str, np.ndarray], n: int) -> bool:
    for name, array in arrays.items():
        kind, itemsize, shape = _SIDECAR_LAYOUT[name]
        if array.dtype.kind != kind or itemsize not in (None, array.dtype.itemsize):
            return False
        if array.shape != tuple(n if d == -1 else d for d in shape) or not array.flags.c_contiguous:
            return False
    return True


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
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValueError(f"split plan {path} is not UTF-8 JSON: {exc}") from None
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
