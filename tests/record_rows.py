"""Small hand-made record tables for the data and CLI tests."""

from datetime import datetime, timezone

import numpy as np

from fedvra.data import RecordTable
from fedvra.network import INPUT_DIM

BASE_TS = int(datetime(2019, 3, 1, tzinfo=timezone.utc).timestamp())  # seconds since 1970-01-01 UTC


def record(pid, ward, hours, label=0, features=None):
    """One row of a table: (patient_id, ward, admission_ts, features, label),
    admitted `hours` after BASE_TS."""
    x = np.zeros(INPUT_DIM) if features is None else features
    return pid, ward, BASE_TS + 3600 * hours, x, label


def table(rows) -> RecordTable:
    """The RecordTable of a list of record() rows."""
    columns = list(zip(*rows)) or [(), (), (), np.zeros((0, INPUT_DIM)), ()]
    return RecordTable(*columns)
