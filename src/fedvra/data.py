"""Admission records, leakage-safe splitting, and a synthetic generator.

A dataset is one RecordTable: a validated column per record field.
Records are grouped two ways: by ward (which determines the owning
institution) and by patient (the leakage unit). A split plan carves a
dataset into a time-ordered test set, five patient-grouped
cross-validation folds, and a dropped set (train/val records of
patients that also appear in the test set). split_index checks every
invariant of a plan before it returns the plan's index.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
import zipfile
import zlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import combinations
from pathlib import Path

import numpy as np

from .errors import SplitInvariantError
from .network import INPUT_DIM, _check_int, _frozen
from .seeds import make_rng

INSTITUTION_A = "A"
INSTITUTION_B = "B"

# the synthetic ward sizes and default prevalence are in realistic
# proportion: 759/826/1877/818 admissions, 425 positives of 4280
WARD_MIX = {
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
    finite float64 row of INPUT_DIM values per record. The arrays are
    read-only: the table copies an array unless _frozen may adopt it. An
    adopted array is the caller's own, and the caller must not make it
    writeable again, or the checked table could change under it.
    """

    patient_id: tuple[str, ...]
    ward: tuple[str, ...]
    admission_ts: np.ndarray
    features: np.ndarray
    label: np.ndarray

    def __post_init__(self):
        ids, wards = tuple(self.patient_id), tuple(self.ward)
        ts, x = _frozen(self.admission_ts, np.int64), _frozen(self.features)
        _check_rows(ids, wards, ts, x, np.asarray(self.label))
        label = _frozen(self.label, np.int64)
        for name, value in zip(_COLUMNS, (ids, wards, ts, x, label)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.patient_id)


_COLUMNS = ("patient_id", "ward", "admission_ts", "features", "label")


def _check_rows(patient_id, ward, admission_ts: np.ndarray, features: np.ndarray, label: np.ndarray) -> None:
    """The rules every record meets; raises ValueError for the first one broken."""
    for name, column in (("patient_id", patient_id), ("ward", ward)):
        if not all(isinstance(s, str) and s for s in column):
            raise ValueError(f"{name} must be a non-empty string")
    if features.ndim != 2 or features.shape[1] != INPUT_DIM:
        raise ValueError(f"features must be vectors of length {INPUT_DIM}")
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
        folds = self.fold_of_record
        for name, values in (("test_ids", self.test_ids), ("dropped_ids", self.dropped_ids),
                             ("fold_of_record keys", folds), ("fold_of_record values", folds.values())):
            # int() would read True as 1, 5.5 as 5 and "3" as 3, so only integers pass
            wrong = [v for v in values if isinstance(v, bool) or not isinstance(v, (int, np.integer))]
            if wrong:
                raise ValueError(f"{name} must be integers, got {wrong[0]!r}")
        object.__setattr__(self, "test_ids", tuple(sorted(int(i) for i in self.test_ids)))
        object.__setattr__(self, "dropped_ids", tuple(sorted(int(i) for i in self.dropped_ids)))
        object.__setattr__(self, "fold_of_record", {int(k): int(v) for k, v in folds.items()})

    @property
    def n_folds(self) -> int:
        return max(self.fold_of_record.values(), default=0)


@dataclass(frozen=True)
class SynthConfig:
    """Settings for the synthetic dataset generator.

    Features are class-conditional Gaussians: standard normal noise plus
    label * class_separation along a fixed unit direction, plus
    ward_shift along a fixed per-ward unit direction (identity
    covariance). Each patient keeps one ward, drawn from WARD_MIX, for
    all admissions.
    """

    n_patients: int
    seed: int
    admissions_per_patient: tuple[int, int] = (1, 3)
    positive_rate: float = DEFAULT_POSITIVE_RATE
    class_separation: float = 1.0
    ward_shift: float = 0.5

    def __post_init__(self):
        _check_int("n_patients", self.n_patients, 1)
        _check_int("seed", self.seed, 0)
        lo, hi = self.admissions_per_patient  # a range: 1 <= lo <= hi
        _check_int("admissions_per_patient[0]", lo, 1)
        _check_int("admissions_per_patient[1]", hi, lo)
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
    return SplitPlan(institution_of_ward=institution_map, test_ids=test, fold_of_record=folds, dropped_ids=dropped)


def split_index(records: RecordTable, plan: SplitPlan) -> tuple[np.ndarray, np.ndarray]:
    """Every record's institution and fold, as arrays by record id: fold
    1..k for a cross-validation record, 0 for a test record and -1 for a
    dropped one. A silo, a fold or a test set is a boolean mask over
    them, so its rows stay in ascending record order.

    Raises SplitInvariantError, naming every violation, unless the plan
    meets every invariant verify_split_plan checks."""
    violations, index = _checked_index(records, plan)
    if violations:
        raise SplitInvariantError("; ".join(violations))
    return index


def verify_split_plan(records: RecordTable, plan: SplitPlan) -> list[str]:
    """The plan's invariant violations as messages; empty for a valid plan."""
    return _checked_index(records, plan)[0]


def _checked_index(records: RecordTable, plan: SplitPlan) -> tuple[list[str], tuple[np.ndarray, np.ndarray] | None]:
    """The plan's violations, and its split_index arrays unless the plan itself
    is broken (_plan_violations): only then has every record one institution
    and one fold, and the patient and time checks read the arrays silos read."""
    violations = _plan_violations(records, plan)  # its sets are freed before the index is built
    if violations:  # some record has no single fold or no institution
        return violations, None

    institution = np.array([plan.institution_of_ward[ward] for ward in records.ward], dtype=str)
    fold = np.full(len(records), -1, dtype=np.int64)
    fold[list(plan.test_ids)] = 0
    fold[list(plan.fold_of_record)] = list(plan.fold_of_record.values())

    folds_of: dict[str, set[int]] = defaultdict(set)  # each patient's folds, 0 for the test set
    for pid, f in zip(records.patient_id, fold.tolist()):
        if f >= 0:
            folds_of[pid].add(f)
    spread = sorted(pid for pid, folds in folds_of.items() if len(folds - {0}) > 1)
    if spread:
        violations.append(f"patient-fold-overlap: patients in multiple folds: {spread[:5]}")
    leaked = sorted(pid for pid, folds in folds_of.items() if 0 in folds and len(folds) > 1)
    if leaked:
        violations.append(f"patient-test-overlap: patients in both folds and test: {leaked[:5]}")

    ts = records.admission_ts
    for inst in sorted(set(institution[fold > 0].tolist())):  # np.unique would import numpy.ma
        mine = institution == inst
        test_ts = ts[mine & (fold == 0)]
        if test_ts.size and test_ts.min() < ts[mine & (fold > 0)].max():
            violations.append(f"test-time-order: institution {inst} has a test record earlier than a train/val record")
    return violations, (institution, fold)


def _plan_violations(records: RecordTable, plan: SplitPlan) -> list[str]:
    """The plan's own violations: its sets must partition the record ids,
    its folds number 1..k and its map hold every ward."""
    violations: list[str] = []
    folded = set(plan.fold_of_record)
    test = set(plan.test_ids)
    dropped = set(plan.dropped_ids)

    if folded & test or folded & dropped or test & dropped:
        violations.append("partition: fold, test, and dropped sets overlap")
    for name, ids in (("test", plan.test_ids), ("dropped", plan.dropped_ids)):
        repeated = sorted(i for i, count in Counter(ids).items() if count > 1)
        if repeated:
            violations.append(f"partition: the {name} set lists records more than once: {repeated[:5]}")
    if folded | test | dropped != set(range(len(records))):
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
    return violations


def _unit_direction(tag: str) -> np.ndarray:
    """Fixed unit vector; the same tag always yields the same direction."""
    g = make_rng("fedvra-direction", tag)
    v = g.standard_normal(INPUT_DIM)
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
    wards = list(WARD_MIX)
    probs = np.array(list(WARD_MIX.values()), dtype=np.float64)
    probs = probs / probs.sum()
    lo, hi = config.admissions_per_patient

    patient_wards = rng.choice(len(wards), size=config.n_patients, p=probs)
    n_admissions = rng.integers(lo, hi + 1, size=config.n_patients)
    total = int(n_admissions.sum())

    labels = np.zeros(total, dtype=np.int64)
    n_pos = int(round(config.positive_rate * total))
    labels[rng.permutation(total)[:n_pos]] = 1

    offsets = rng.integers(0, _WINDOW_SECONDS, size=total)
    noise = rng.standard_normal((total, INPUT_DIM))

    ward_dirs = np.stack([ward_direction(w) for w in wards])
    row_ward = np.repeat(patient_wards, n_admissions)
    # noise + separation * label * u + shift * ward direction, summed in
    # place: one (total, INPUT_DIM) temporary at a time keeps synth's
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


@contextmanager
def _replacing(path):
    """A binary handle on `<path>.tmp`, which os.replace puts at path when
    the block ends; on any exception the temp file goes and path keeps its
    old bytes. The one place in the package that opens a file for writing.
    Nothing is fsynced: a raised error or a killed process leaves no part
    of a file at path, a power loss may."""
    tmp = Path(os.fspath(path) + ".tmp")
    fh = open(tmp, "wb")  # not mkstemp, so the file's mode follows the umask
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_text(path, pieces) -> None:
    """Text pieces in order, UTF-8: every text file the package writes."""
    with _replacing(path) as fh:
        fh.writelines(piece.encode("utf-8") for piece in pieces)


def _write_lines(path, lines) -> None:
    """Each line followed by a newline."""
    _write_text(path, (line + "\n" for line in lines))


def _write_json(path, payload) -> None:
    """Indented JSON with sorted keys and a trailing newline."""
    _write_lines(path, [json.dumps(payload, indent=2, sort_keys=True)])


def save_records(path, records: RecordTable) -> None:
    """One JSON object per line, then the sidecar `<path>.npz` that lets
    load_records skip the parse (see load_records)."""
    digest = hashlib.sha256()
    rows = zip(records.patient_id, records.ward, records.admission_ts.tolist(), records.features, records.label.tolist())
    with _replacing(path) as fh:
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
                line = raw.decode("utf-8-sig" if line_no == 1 else "utf-8").strip()  # a leading BOM is skipped
                if line:
                    for column, value in zip(columns, _parse_row(line)):
                        column.append(value)
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}: bad record on line {line_no}: {exc}") from exc
    ids, wards, times, features, labels = columns
    return RecordTable(ids, wards, times, features or np.zeros((0, INPUT_DIM)), labels)


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
    "features": ("f", 8, (-1, INPUT_DIM)),
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
    """Write `<path>.npz`, through _replacing like every file."""
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
    with _replacing(sidecar) as fh, zipfile.ZipFile(fh, "w") as zf:
        for name, array in arrays.items():
            with zf.open(zipfile.ZipInfo(name + ".npy", _ZIP_TIME), "w", force_zip64=True) as out:
                np.lib.format.write_array(out, array, allow_pickle=False)


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
        for array in numeric.values():  # np.load's fresh view of a fresh array: frozen, the table adopts it
            array.base.setflags(write=False)
            array.setflags(write=False)
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
    _write_json(path, data)


SPLIT_PLAN_KEYS = {"institution_of_ward": dict, "test_ids": list, "fold_of_record": dict, "dropped_ids": list}


def load_split_plan(path) -> SplitPlan:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8-sig"))  # drops one leading byte-order mark
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
    # a key must read back as written, so "5.5", "05" or "5_0" cannot pass as another record id
    if any(not k.isascii() or not k.removeprefix("-").isdigit() or str(int(k)) != k for k in data["fold_of_record"]):
        raise ValueError(f"split plan {path}: fold_of_record keys must be record ids written as plain integers")
    data["fold_of_record"] = {int(k): fold for k, fold in data["fold_of_record"].items()}
    try:
        return SplitPlan(**{key: data[key] for key in SPLIT_PLAN_KEYS})
    except ValueError as exc:
        raise ValueError(f"split plan {path}: {exc}") from None
