"""Admission records, leakage-safe splitting, and a synthetic generator.

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
import zipfile
import zlib
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
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
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

    k = plan.n_folds
    fold_numbers = set(plan.fold_of_record.values())
    outside = sorted(f for f in fold_numbers if not 1 <= f <= k)
    if outside:
        violations.append(f"fold-range: fold numbers outside 1..{k}: {outside[:5]}")
    empty = sorted(set(range(1, k + 1)) - fold_numbers)
    if empty:
        violations.append(f"fold-range: folds of 1..{k} that hold no records: {empty[:5]}")

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
    """One JSON object per line, then the sidecar `<path>.npz` that lets
    load_records skip the parse (see load_records)."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for rec in records:
            line = (json.dumps(record_to_dict(rec)) + "\n").encode("utf-8")
            fh.write(line)
            digest.update(line)
    _write_sidecar(path, records, digest.hexdigest())


def load_records(path) -> list[AdmissionRecord]:
    """Records of a JSON-lines file.

    The file is the source of truth. When its sidecar `<path>.npz` holds
    the SHA-256 of the file's current bytes, the records are built from
    the sidecar's arrays instead of parsing every line; a missing,
    stale, truncated or foreign sidecar is ignored. Either way every
    record passes AdmissionRecord's checks. Loading never writes a
    sidecar.
    """
    cached = _records_from_sidecar(path)
    if cached is not None:
        return cached
    records = []
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if line:
                    records.append(record_from_dict(json.loads(line)))
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}: bad record on line {line_no}: {exc}") from exc
    return records


# The sidecar is an uncompressed .npz: these arrays, by name, with their
# dtype kind, item size and shape (-1 is the record count), plus the
# float64 features.npy of shape (count, FEATURE_DIM). Its zip entries
# carry a fixed time, so rewriting the same records gives the same bytes.
_SIDECAR_LAYOUT = {
    "digest": ("U", None, ()),
    "count": ("i", 8, ()),
    "patient_id": ("U", None, (-1,)),
    "ward": ("U", None, (-1,)),
    "admission_ts": ("i", 8, (-1,)),  # seconds since 1970-01-01 UTC
    "label": ("i", 8, (-1,)),
}
_ZIP_TIME = (1980, 1, 1, 0, 0, 0)
# what opening the sidecar and reading its arrays raise when it is missing, damaged or foreign
# (KeyError: a missing array)
_SIDECAR_READ_ERRORS = (OSError, ValueError, EOFError, KeyError, NotImplementedError, zipfile.BadZipFile, zlib.error)
_HASH_BLOCK = 1 << 20
# Features are read 32 rows (75 KB) at a time. Reading the whole matrix
# allocates and frees one large block, which raises glibc's mmap
# threshold: the training arrays allocated later then fragment the heap,
# and the run stage's peak RSS rose 1.2 MB (2.5%) on 800 records.
_ROWS_PER_READ = 32


def _sidecar_path(path) -> Path:
    return Path(os.fspath(path) + ".npz")


def _sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(_HASH_BLOCK):
            digest.update(block)
    return digest.hexdigest()


def _write_sidecar(path, records: list[AdmissionRecord], digest: str) -> None:
    """Write `<path>.npz` through a temporary file and os.replace, so a
    reader never sees half a sidecar. Features are streamed row by row."""
    sidecar = _sidecar_path(path)
    ids = [r.patient_id for r in records]
    wards = [r.ward for r in records]
    if any(s.endswith("\0") for s in ids + wards):
        # fixed-width numpy strings drop trailing NULs; such files always parse
        sidecar.unlink(missing_ok=True)
        return
    arrays = {
        "digest": np.array(digest),
        "count": np.array(len(records), dtype=np.int64),
        "patient_id": np.array(ids, dtype=str),
        "ward": np.array(wards, dtype=str),
        "admission_ts": np.array(
            [(r.admission_ts - _EPOCH) // timedelta(seconds=1) for r in records], dtype=np.int64
        ),
        "label": np.array([r.label for r in records], dtype=np.int64),
    }
    features_header = {
        "descr": np.lib.format.dtype_to_descr(np.dtype(np.float64)),
        "fortran_order": False,
        "shape": (len(records), FEATURE_DIM),
    }
    fd, tmp = tempfile.mkstemp(prefix=sidecar.name + ".", suffix=".tmp", dir=sidecar.parent)
    try:
        with os.fdopen(fd, "wb") as fh, zipfile.ZipFile(fh, "w") as zf:
            for name, array in arrays.items():
                with zf.open(zipfile.ZipInfo(name + ".npy", _ZIP_TIME), "w", force_zip64=True) as out:
                    np.lib.format.write_array(out, array, allow_pickle=False)
            with zf.open(zipfile.ZipInfo("features.npy", _ZIP_TIME), "w", force_zip64=True) as out:
                np.lib.format.write_array_header_1_0(out, features_header)
                for rec in records:
                    out.write(rec.features.tobytes())
        os.replace(tmp, sidecar)
    except BaseException:
        os.unlink(tmp)
        raise


def _records_from_sidecar(path) -> list[AdmissionRecord] | None:
    """The records of `<path>.npz` if it was written for the file's
    current bytes, else None."""
    try:
        # opened here, not by np.load, which leaks its handle when the zip is truncated
        with open(_sidecar_path(path), "rb") as fh:
            npz = np.load(fh, allow_pickle=False)
            if not isinstance(npz, np.lib.npyio.NpzFile):  # a bare .npy array
                return None
            with npz:
                arrays = {name: npz[name] for name in _SIDECAR_LAYOUT}
                n = arrays["label"].size
                if not _layout_ok(arrays, n) or int(arrays["count"]) != n:
                    return None
                if str(arrays["digest"]) != _sha256_file(path):  # stale
                    return None
                with npz.zip.open("features.npy") as member:
                    return [
                        AdmissionRecord(
                            patient_id=pid,
                            ward=ward,
                            admission_ts=_EPOCH + timedelta(seconds=ts),
                            features=x,
                            label=label,
                        )
                        for pid, ward, ts, x, label in zip(
                            arrays["patient_id"].tolist(),
                            arrays["ward"].tolist(),
                            arrays["admission_ts"].tolist(),
                            _feature_rows(member, n),
                            arrays["label"].tolist(),
                        )
                    ]
    except _SIDECAR_READ_ERRORS:  # no sidecar, or a damaged or foreign one: parse the file
        return None


def _layout_ok(arrays: dict[str, np.ndarray], n: int) -> bool:
    for name, array in arrays.items():
        kind, itemsize, shape = _SIDECAR_LAYOUT[name]
        if array.dtype.kind != kind or itemsize not in (None, array.dtype.itemsize):
            return False
        if array.shape != tuple(n if d == -1 else d for d in shape):
            return False
    return True


def _feature_rows(fh, n: int):
    """The n feature rows of an open features.npy, _ROWS_PER_READ at a time."""
    if np.lib.format.read_magic(fh) != (1, 0):
        raise ValueError("features.npy: unknown format version")
    shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
    if shape != (n, FEATURE_DIM) or fortran_order or dtype.kind != "f" or dtype.itemsize != 8:
        raise ValueError("features.npy: not an (n, FEATURE_DIM) float64 array")
    for start in range(0, n, _ROWS_PER_READ):
        rows = min(_ROWS_PER_READ, n - start)
        yield from np.frombuffer(fh.read(rows * FEATURE_DIM * 8), dtype=dtype).reshape(rows, FEATURE_DIM)


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
