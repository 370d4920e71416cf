"""Byte identity: every output of the benchmark's pipelines matches its pin.

Runs synth -> split -> run -> report as `python -m fedvra.cli` child
processes with BLAS at one thread, exactly as `perfbench/pin.py` made
the pins, and compares every pinned file digest and work count in
`perfbench/pinned.json`. Only reads `perfbench/`; all outputs go to a
temporary directory.
"""

import json
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from outputs import check_digests, collect_digests, work_counts  # noqa: E402
from pipeline import child_env, run_pipeline_processes  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PINNED = json.loads((ROOT / "perfbench" / "pinned.json").read_text(encoding="utf-8"))
CASES = [
    ("cv-serial", 0),
    ("cv-serial", 5),
    ("report-bootstrap", 0),
    ("report-bootstrap", 5),
    ("cv-threads2", 0),
    ("cv-threads2", 5),
]


@pytest.mark.parametrize("workload, seed", CASES, ids=[f"{w}-seed{s}" for w, s in CASES])
def test_outputs_match_the_pins(tmp_path, workload, seed):
    result = run_pipeline_processes(
        WORKLOADS[workload].stage_args(seed), tmp_path, child_env(ROOT), time.perf_counter() + 300
    )
    assert [(s.name, s.exit_code, s.error) for s in result.failed_stages] == []
    pinned = PINNED[workload][str(seed)]
    assert check_digests(collect_digests(tmp_path), pinned["digests"]) == []
    assert work_counts(tmp_path) == pinned["counts"]
